// Command dsmtxload drives a live dsmtxd job server: open-loop Poisson
// (or closed-loop) arrivals from N concurrent clients over a mix of
// benchmarks, reporting sustained throughput, latency percentiles
// (p50/p99/p999), verification, and result-cache behaviour.
//
// Usage:
//
//	dsmtxd serve -listen 127.0.0.1:7800 &
//	dsmtxload -addr 127.0.0.1:7800 -jobs 200 -clients 120
//	dsmtxload -addr 127.0.0.1:7800 -rate 50 -bench crc32,164.gzip
//
// Every job is submitted with verify=true, so the server checks each
// parallel checksum against the sequential vtime reference; dsmtxload
// exits nonzero if any job fails or any checksum mismatches. -distinct
// bounds the number of distinct specs, so a longer run resubmits
// duplicates and exercises the server's result cache and coalescer.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsmtx/internal/cli"
	"dsmtx/internal/engine"
	"dsmtx/internal/job"
	"dsmtx/internal/workloads"
)

// options are the parsed, validated command-line settings.
type options struct {
	addr     string
	jobs     int
	clients  int
	rate     float64 // arrivals/sec; 0 = closed loop
	benches  []string
	cores    int
	scale    int
	distinct int
	loadSeed int64
}

// parseFlags parses and validates args (without the program name).
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("dsmtxload", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "", "dsmtxd serve address (host:port), required")
	fs.IntVar(&o.jobs, "jobs", 200, "total jobs to submit")
	fs.IntVar(&o.clients, "clients", 120, "concurrent client connections")
	fs.Float64Var(&o.rate, "rate", 0, "open-loop Poisson arrival rate in jobs/sec (0 = closed loop: clients submit back to back)")
	bench := fs.String("bench", "crc32", "comma-separated benchmark mix, cycled across jobs")
	fs.IntVar(&o.cores, "cores", 4, "cores per job")
	fs.IntVar(&o.scale, "scale", 1, "problem-size multiplier per job")
	fs.IntVar(&o.distinct, "distinct", 16, "distinct seeds per benchmark; more jobs than distinct specs means duplicates that exercise the server's cache")
	fs.Int64Var(&o.loadSeed, "load-seed", 1, "seed for the arrival-time and mix shuffle randomness")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.addr == "" {
		return nil, fmt.Errorf("-addr is required (start one with: dsmtxd serve)")
	}
	if o.jobs < 1 || o.clients < 1 {
		return nil, fmt.Errorf("-jobs and -clients must be >= 1")
	}
	if o.rate < 0 {
		return nil, fmt.Errorf("-rate must be >= 0")
	}
	if o.distinct < 1 {
		return nil, fmt.Errorf("-distinct must be >= 1")
	}
	for _, name := range strings.Split(*bench, ",") {
		name = strings.TrimSpace(name)
		if _, err := workloads.ByName(name); err != nil {
			return nil, err
		}
		o.benches = append(o.benches, name)
	}
	return o, nil
}

func main() {
	cli.Main("dsmtxload", parseFlags, func(o *options) error { return run(o, os.Stdout) })
}

// jobOutcome is one job's client-side measurement.
type jobOutcome struct {
	latency  time.Duration
	source   string
	verified bool
	err      error
}

// serverStats mirrors the engine section of dsmtxd's /stats reply.
type serverStats struct {
	Engine engine.Stats `json:"engine"`
	Cache  *struct {
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
	} `json:"cache"`
}

// jobReply is the subset of the server's Result body dsmtxload reads.
type jobReply struct {
	Checksum uint64 `json:"Checksum"`
	SeqCheck uint64 `json:"seq_check"`
	Verified bool   `json:"verified"`
	Source   string `json:"source"`
}

// run generates the load and writes the report to stdout.
func run(o *options, stdout io.Writer) error {
	base := "http://" + o.addr
	client := &http.Client{}

	before, err := fetchStats(client, base)
	if err != nil {
		return fmt.Errorf("server not reachable: %w", err)
	}

	// The job list: benchmarks cycled, seeds bounded by -distinct so the
	// tail of a long run re-requests specs the server has already computed.
	rng := rand.New(rand.NewSource(o.loadSeed))
	specs := make([]job.Spec, o.jobs)
	for i := range specs {
		specs[i] = job.Spec{
			Bench:  o.benches[i%len(o.benches)],
			Cores:  o.cores,
			Scale:  o.scale,
			Seed:   uint64(1 + i%o.distinct),
			Verify: true,
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	// Arrival offsets: exponential inter-arrival gaps for the open-loop
	// Poisson process; all-zero for the closed loop (latency then measures
	// from the moment a client becomes free).
	arrivals := make([]time.Duration, o.jobs)
	if o.rate > 0 {
		var at time.Duration
		for i := range arrivals {
			at += time.Duration(rng.ExpFloat64() / o.rate * float64(time.Second))
			arrivals[i] = at
		}
	}

	// A poller samples the server's in-flight depth (running + queued)
	// while the load runs.
	var maxServerInflight atomic.Int64
	pollDone := make(chan struct{})
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pollDone:
				return
			case <-tick.C:
				if st, err := fetchStats(client, base); err == nil {
					depth := int64(st.Engine.Running + st.Engine.Queued)
					if depth > maxServerInflight.Load() {
						maxServerInflight.Store(depth)
					}
				}
			}
		}
	}()

	var inflight, maxInflight atomic.Int64
	outcomes := make([]jobOutcome, o.jobs)
	next := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if d := arrivals[i]; d > 0 {
					if wait := d - time.Since(start); wait > 0 {
						time.Sleep(wait)
					}
				}
				cur := inflight.Add(1)
				if cur > maxInflight.Load() {
					maxInflight.Store(cur)
				}
				// Open-loop latency runs from the job's scheduled arrival,
				// so queueing delay counts against the server; closed-loop
				// latency runs from the actual request.
				issued := time.Now()
				if o.rate > 0 {
					issued = start.Add(arrivals[i])
				}
				reply, err := submit(client, base, specs[i])
				inflight.Add(-1)
				outcomes[i] = jobOutcome{
					latency:  time.Since(issued),
					source:   reply.Source,
					verified: reply.Verified && reply.Checksum == reply.SeqCheck,
					err:      err,
				}
			}
		}()
	}
	for i := 0; i < o.jobs; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)
	close(pollDone)

	after, err := fetchStats(client, base)
	if err != nil {
		return fmt.Errorf("server stats after run: %w", err)
	}
	return report(o, stdout, outcomes, elapsed, before, after,
		int(maxInflight.Load()), int(maxServerInflight.Load()))
}

// submit posts one synchronous job.
func submit(client *http.Client, base string, spec job.Spec) (jobReply, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobReply{}, err
	}
	resp, err := client.Post(base+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobReply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobReply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return jobReply{}, fmt.Errorf("%s: HTTP %d: %s", spec.Bench, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var reply jobReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return jobReply{}, err
	}
	return reply, nil
}

func fetchStats(client *http.Client, base string) (serverStats, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return serverStats{}, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serverStats{}, err
	}
	return st, nil
}

// percentile reads the p-quantile from sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// report renders the summary. It fails (nonzero exit through cli.Main)
// when any job errored or any checksum mismatched.
func report(o *options, stdout io.Writer, outcomes []jobOutcome, elapsed time.Duration,
	before, after serverStats, maxClient, maxServer int) error {
	var latencies []time.Duration
	var failed, verified int
	sources := map[string]int{}
	for _, out := range outcomes {
		if out.err != nil {
			failed++
			continue
		}
		latencies = append(latencies, out.latency)
		sources[out.source]++
		if out.verified {
			verified++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p50 := percentile(latencies, 0.50)
	p99 := percentile(latencies, 0.99)
	p999 := percentile(latencies, 0.999)
	throughput := float64(len(latencies)) / elapsed.Seconds()
	cacheHits := after.Engine.CacheHits - before.Engine.CacheHits
	coalesced := after.Engine.Coalesced - before.Engine.Coalesced

	mode := "closed loop"
	if o.rate > 0 {
		mode = fmt.Sprintf("open loop, %.1f jobs/s Poisson", o.rate)
	}
	fmt.Fprintf(stdout, "dsmtxload: %d jobs via %d clients (%s) against %s\n", o.jobs, o.clients, mode, o.addr)
	fmt.Fprintf(stdout, "  mix             %s, %d cores/job, %d distinct specs\n", strings.Join(o.benches, ","), o.cores, o.distinct*len(o.benches))
	fmt.Fprintf(stdout, "  throughput      %.1f jobs/s (%d jobs in %v)\n", throughput, len(latencies), elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  latency         p50 %v  p99 %v  p999 %v\n",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), p999.Round(time.Microsecond))
	fmt.Fprintf(stdout, "  sources         run %d, cache %d, coalesced %d (server: +%d cache hits, +%d coalesced)\n",
		sources["run"], sources["cache"], sources["coalesced"], cacheHits, coalesced)
	fmt.Fprintf(stdout, "  max in-flight   %d at the clients, %d at the server\n", maxClient, maxServer)
	if after.Cache != nil {
		fmt.Fprintf(stdout, "  server cache    %d entries, %.1f KB on disk\n", after.Cache.Entries, float64(after.Cache.Bytes)/1e3)
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "  output          FAILED (%d of %d jobs errored)\n", failed, o.jobs)
		for _, out := range outcomes {
			if out.err != nil {
				return fmt.Errorf("%d jobs failed; first: %v", failed, out.err)
			}
		}
	}
	if verified != len(latencies) {
		fmt.Fprintf(stdout, "  output          MISMATCH (%d/%d checksums match sequential)\n", verified, len(latencies))
		return fmt.Errorf("%d of %d jobs did not verify", len(latencies)-verified, len(latencies))
	}
	fmt.Fprintf(stdout, "  output          VERIFIED (%d/%d checksums match sequential)\n", verified, len(latencies))
	return nil
}
