package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dsmtx/internal/engine"
	"dsmtx/internal/workloads"
)

// env is where a run finds its tools and keeps its scratch files.
type env struct {
	dsmtxd  string // the daemon/server binary, built before set-up
	workdir string // scratch directory; everything the run writes lives here
	log     io.Writer
}

// oracle holds what a correct job must report: the sequential reference
// checksum for its input and the loop trip count. Both come from running
// the benchmark's own sequential program, memoized per input.
type oracle struct {
	mu    sync.Mutex
	refs  map[engine.JobSpec]uint64
	trips map[engine.JobSpec]uint64
}

func newOracle() *oracle {
	return &oracle{refs: make(map[engine.JobSpec]uint64), trips: make(map[engine.JobSpec]uint64)}
}

// inputKey strips a spec down to what determines its input and output.
func inputKey(s engine.JobSpec) engine.JobSpec {
	return engine.JobSpec{Bench: s.Bench, Scale: s.Scale, Seed: s.Seed, Rate: s.Rate}
}

func inputOf(s engine.JobSpec) workloads.Input {
	return workloads.Input{Scale: s.Scale, Seed: s.Seed, MisspecRate: s.Rate}
}

// reference runs (once) the sequential program for the spec's input.
func (o *oracle) reference(s engine.JobSpec) (uint64, error) {
	key := inputKey(s)
	o.mu.Lock()
	sum, ok := o.refs[key]
	o.mu.Unlock()
	if ok {
		return sum, nil
	}
	b, err := workloads.ByName(s.Bench)
	if err != nil {
		return 0, err
	}
	_, sum, err = workloads.RunSequentialRef(b, inputOf(s))
	if err != nil {
		return 0, err
	}
	o.mu.Lock()
	o.refs[key] = sum
	o.mu.Unlock()
	return sum, nil
}

// tripCount is the loop trip count a job must commit.
func (o *oracle) tripCount(s engine.JobSpec) (uint64, error) {
	key := engine.JobSpec{Bench: s.Bench, Scale: s.Scale}
	o.mu.Lock()
	defer o.mu.Unlock()
	if n, ok := o.trips[key]; ok {
		return n, nil
	}
	b, err := workloads.ByName(s.Bench)
	if err != nil {
		return 0, err
	}
	n := b.NewDSMTX(inputOf(s), 0).Iterations()
	o.trips[key] = n
	return n, nil
}

// target is a system under test, set up and warm.
type target struct {
	def    *workloadDef
	oracle *oracle
	submit func(ctx context.Context, spec engine.JobSpec) (engine.Result, error)
	// eng is the in-process engine of an engine-driven workload; srv the
	// server process of serve-mix. Exactly one is set.
	eng *engine.Engine
	srv *server
}

func (t *target) close() {
	if t.eng != nil {
		t.eng.Close()
	}
	if t.srv != nil {
		t.srv.stop()
	}
}

// setUp brings a workload to the point where its first timed job can be
// sent: input seeds, sequential references, fleet or server start, warm-up
// jobs. This interval is setup_s.
func setUp(ctx context.Context, p plan, e env) (*target, error) {
	t := &target{def: p.def, oracle: newOracle()}
	if p.def.http {
		srv, err := startServer(e)
		if err != nil {
			return nil, err
		}
		t.srv = srv
		t.submit = srv.submit
		// First sight of the hot set happens here, so hot draws inside the
		// timed window are cache hits; these jobs also warm the pools.
		for k := 0; k < seedCycle; k++ {
			j := job{spec: p.hotSpec(k)}
			res, err := t.submit(ctx, j.spec)
			if why := t.check(j, res, err); why != "" {
				t.close()
				return nil, fmt.Errorf("%s warm-up: %s", p.def.name, why)
			}
		}
		return t, nil
	}
	// No result cache (every job must execute), unbounded admission (one
	// client), warm pools and an engine-owned persistent fleet.
	t.eng = engine.New(engine.Config{Exe: e.dsmtxd})
	t.submit = func(ctx context.Context, spec engine.JobSpec) (engine.Result, error) {
		return t.eng.SubmitOpts(ctx, spec, engine.Options{NetDaemons: 2})
	}
	for k := 0; k < seedCycle; k++ {
		if _, err := t.oracle.reference(p.job(k).spec); err != nil {
			t.close()
			return nil, fmt.Errorf("%s reference: %w", p.def.name, err)
		}
	}
	for i := 0; i < warmupJobs; i++ {
		j := p.job(i)
		res, err := t.submit(ctx, j.spec)
		if why := t.check(j, res, err); why != "" {
			t.close()
			return nil, fmt.Errorf("%s warm-up: %s", p.def.name, why)
		}
	}
	return t, nil
}

// check is the per-job correctness gate; it returns why the job fails, or
// "". Every job's committed image must equal serial execution in iteration
// order: the checksum matches the sequential reference (computed here for
// engine-driven workloads, by the server's verify for serve-mix) and the
// commit count equals the loop trip count.
func (t *target) check(j job, res engine.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", j.spec, err)
	}
	trips, err := t.oracle.tripCount(j.spec)
	if err != nil {
		return err.Error()
	}
	if res.Committed != trips {
		return fmt.Sprintf("%s: committed %d MTXs, loop has %d iterations", j.spec, res.Committed, trips)
	}
	if t.def.http {
		if !res.Verified {
			return fmt.Sprintf("%s: server did not verify the result", j.spec)
		}
		return ""
	}
	want, err := t.oracle.reference(j.spec)
	if err != nil {
		return err.Error()
	}
	if res.Checksum != want {
		return fmt.Sprintf("%s: checksum %#x, sequential reference %#x", j.spec, res.Checksum, want)
	}
	return ""
}

// outcome is one finished job.
type outcome struct {
	index   int
	job     job
	latency time.Duration
	res     engine.Result
	why     string // non-empty when the job failed its gate
}

// executed reports whether the job actually ran (rather than being served
// from the cache or coalesced onto another submission).
func (o outcome) executed() bool { return o.why == "" && o.res.Source == "run" }

// runLoop drives the closed loop: each client sends its next job only when
// the previous one has answered. Jobs are taken from the sequence starting
// at first for as long as more says so. hook, if non-nil, wraps each
// submission (the traced run's spans).
func runLoop(ctx context.Context, p plan, t *target, first int, more func(taken int) bool,
	hook func(index int, j job, send func() (engine.Result, error)) (engine.Result, error)) []outcome {
	var next atomic.Int64
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	for c := 0; c < p.def.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				taken := int(next.Add(1)) - 1
				if !more(taken) {
					return
				}
				j := p.job(first + taken)
				send := func() (engine.Result, error) { return t.submit(ctx, j.spec) }
				start := time.Now()
				var res engine.Result
				var err error
				if hook != nil {
					res, err = hook(first+taken, j, send)
				} else {
					res, err = send()
				}
				o := outcome{index: first + taken, job: j, latency: time.Since(start), res: res}
				o.why = t.check(j, res, err)
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, k int) bool { return out[i].index < out[k].index })
	return out
}

// window bounds a timed run to a fixed number of jobs, so both sides of a
// comparison do the same work. guard, when positive, also ends the window
// once that much time has passed, so a box far slower than the one the job
// counts were sized on cannot run past the driver's limit.
func window(jobs int, guard time.Duration) func(taken int) bool {
	deadline := time.Now().Add(guard)
	return func(taken int) bool {
		return taken < jobs && (guard <= 0 || time.Now().Before(deadline))
	}
}

// claims checks that the workload exercised what it says it does, over a
// window's outcomes; each violation is one more failure.
func claims(def *workloadDef, outs []outcome) []string {
	var misspecs uint64
	var hits, ok int
	var bad []string
	for _, o := range outs {
		if o.why != "" {
			continue
		}
		ok++
		misspecs += o.res.Misspecs
		if o.res.Source != "run" {
			hits++
		}
		if def.name == "net-loopback" && o.res.Daemons != 2 {
			bad = append(bad, fmt.Sprintf("job %d ran on %d daemons, want 2", o.index, o.res.Daemons))
		}
	}
	switch def.name {
	case "host-stream":
		if misspecs != 0 {
			bad = append(bad, fmt.Sprintf("host-stream misspeculated %d times, want 0", misspecs))
		}
	case "host-recover":
		if misspecs == 0 && ok > 0 {
			bad = append(bad, "host-recover never misspeculated: recovery was not exercised")
		}
	case "serve-mix":
		// Hit fraction within 5 points of one half (or one job, when the
		// window is too short for 5 points to be a whole job).
		slack := max(0.05*float64(ok), 1)
		if d := float64(hits) - float64(ok)/2; d > slack || d < -slack {
			bad = append(bad, fmt.Sprintf("serve-mix hit %d of %d jobs, want half", hits, ok))
		}
	}
	return bad
}

// server is a running `dsmtxd serve` process with default flags, an
// ephemeral port and a fresh result cache.
type server struct {
	cmd    *exec.Cmd
	url    string
	dir    string
	client *http.Client
	exited chan struct{}
}

func startServer(e env) (*server, error) {
	dir, err := os.MkdirTemp(e.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.dsmtxd, "serve", "-listen", "127.0.0.1:0", "-cache", filepath.Join(dir, "cache"))
	cmd.Dir = dir
	cmd.Stderr = e.log
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start %s serve: %w", e.dsmtxd, err)
	}
	s := &server{cmd: cmd, dir: dir, exited: make(chan struct{}),
		client: &http.Client{Timeout: 2 * time.Minute}}
	ready := make(chan string, 1)
	go func() {
		// Scrape the listen address, then keep the pipe drained; Wait must
		// follow the last read.
		const marker = "serving jobs on http://"
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, addr, ok := strings.Cut(sc.Text(), marker); ok {
				select {
				case ready <- strings.TrimSpace(addr):
				default:
				}
			}
		}
		cmd.Wait()
		close(s.exited)
	}()
	select {
	case addr := <-ready:
		s.url = "http://" + addr
		return s, nil
	case <-s.exited:
		os.RemoveAll(dir)
		return nil, fmt.Errorf("dsmtxd serve exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("dsmtxd serve did not report a listen address")
	}
}

// stop drains the server (SIGTERM), kills it if that takes too long, waits
// for it to end and removes its directory.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	os.RemoveAll(s.dir)
}

// submit posts one job and waits for its result.
func (s *server) submit(ctx context.Context, spec engine.JobSpec) (engine.Result, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return engine.Result{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return engine.Result{}, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return engine.Result{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return engine.Result{}, err
	}
	if resp.StatusCode/100 != 2 {
		return engine.Result{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var res engine.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return engine.Result{}, fmt.Errorf("decode result: %w", err)
	}
	return res, nil
}

// stats reads GET /stats.
func (s *server) stats(ctx context.Context) (engine.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/stats", nil)
	if err != nil {
		return engine.Stats{}, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return engine.Stats{}, err
	}
	defer resp.Body.Close()
	var reply struct {
		Engine engine.Stats `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return engine.Stats{}, err
	}
	return reply.Engine, nil
}
