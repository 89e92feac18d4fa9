package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"dsmtx/internal/engine"
)

// Tests for the benchmark's own arithmetic, and a smoke run of every
// workload. Run with `go test ./...` from bench/ (the module is separate
// from the repository's, so the root `go test ./...` does not descend here).

func TestPercentileSupport(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: selection must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 100, p: 0.90, want: 90, ok: true},   // exactly ten samples beyond
		{n: 99, p: 0.90, want: 90, ok: false},   // nine beyond: omitted
		{n: 20, p: 0.90, want: 18, ok: false},   // net-loopback's sample
		{n: 400, p: 0.90, want: 360, ok: true},  // forty beyond
		{n: 1000, p: 0.99, want: 990, ok: true}, // ten beyond p99
		{n: 999, p: 0.99, want: 990, ok: false},
	}
	for _, c := range cases {
		got, ok := percentile(ramp(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.9); ok {
		t.Error("an empty sample supports no percentile")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
	q1, q2, q3 = quartiles([]float64{2, 4, 4, 5, 9})
	if q1 != 3 || q2 != 4 || q3 != 7 {
		t.Errorf("quartiles = %v %v %v, want 3 4 7", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := maxPairwise([]float64{95, 100, 105}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("maxPairwise = %v, want 0.1", got)
	}
}

func TestAAVerdict(t *testing.T) {
	steady := []float64{100, 100.5, 101, 100.2, 99.8, 100.1, 100.4, 99.9, 100.3, 100.6}
	if _, v := aaVerdict(steady, 0.10); v != "ok" {
		t.Errorf("steady runs: verdict %q", v)
	}
	loose := []float64{100, 102, 104, 98, 96, 101, 103, 97, 99, 105}
	if _, v := aaVerdict(loose, 0.10); v != "loose" {
		t.Errorf("runs within the bound but not a third of it: verdict %q", v)
	}
	wild := []float64{100, 120, 80, 130, 70, 110, 90, 125, 75, 100}
	if _, v := aaVerdict(wild, 0.10); v != "FAIL" {
		t.Errorf("runs beyond the bound: verdict %q", v)
	}
}

func TestJobSequenceDeterminism(t *testing.T) {
	for i := range workloadDefs {
		def := &workloadDefs[i]
		a := plan{def: def, seed: 7}.jobs(64)
		b := plan{def: def, seed: 7}.jobs(64)
		c := plan{def: def, seed: 8}.jobs(64)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different job lists", def.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same job list", def.name)
		}
		// Same mix whatever the seed: benchmarks, backends and hot share.
		mix := func(js []job) map[string]int {
			m := make(map[string]int)
			for _, j := range js {
				m[fmt.Sprintf("%s/%s/hot=%v", j.spec.Bench, j.spec.Backend, j.hot)]++
			}
			return m
		}
		if !def.http && !reflect.DeepEqual(mix(a), mix(c)) {
			t.Errorf("%s: mix differs between seeds: %v vs %v", def.name, mix(a), mix(c))
		}
	}
}

func TestServeMixProportions(t *testing.T) {
	def, err := workloadByName("serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2, 99} {
		p := plan{def: def, seed: seed}
		hot, fresh := 0, map[string]int{}
		seen := map[uint64]bool{}
		hotSeeds := map[uint64]bool{}
		for i, j := range p.jobs(240) {
			if !j.spec.Verify {
				t.Fatalf("seed %d job %d does not ask for verification", seed, i)
			}
			if j.hot {
				hot++
				hotSeeds[j.spec.Seed] = true
			} else {
				fresh[j.spec.Bench]++
				if seen[j.spec.Seed] {
					t.Fatalf("seed %d: fresh job %d repeats input seed %d", seed, i, j.spec.Seed)
				}
				seen[j.spec.Seed] = true
			}
			// Any prefix is half hot to within one job.
			if d := 2*hot - (i + 1); d < -2 || d > 2 {
				t.Fatalf("seed %d: %d hot in first %d jobs", seed, hot, i+1)
			}
		}
		if hot != 120 {
			t.Errorf("seed %d: %d hot of 240, want 120", seed, hot)
		}
		if len(hotSeeds) > seedCycle {
			t.Errorf("seed %d: hot set has %d members, want <= %d", seed, len(hotSeeds), seedCycle)
		}
		for _, c := range mixClasses {
			if fresh[c.Bench] != 40 {
				t.Errorf("seed %d: %d fresh %s jobs, want 40 (even split)", seed, fresh[c.Bench], c.Bench)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100): children [10,30) and [20,50) overlap, [90,120) overruns.
	// Covered: [10,50) = 40 and [90,100) = 10, so self = 50.
	// Child [20,50) has a grandchild [25,35): self 20.
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", StartNs: 20, EndNs: 50},
		{ID: 4, Parent: 1, Name: "late", StartNs: 90, EndNs: 120},
		{ID: 5, Parent: 3, Name: "bb", StartNs: 25, EndNs: 35},
		{ID: 6, Name: "other root", StartNs: 200, EndNs: 260},
	}
	want := map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 60}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderChildIsParentSelfTime(t *testing.T) {
	r := newRecorder()
	id := r.begin("run", 0, 1)
	time.Sleep(5 * time.Millisecond)
	total := r.end(id)
	r.child("remote", id, total-2*time.Millisecond)
	if self := selfTimes(r.snapshot())[id]; self != 2*time.Millisecond {
		t.Errorf("self = %v, want 2ms", self)
	}
}

func TestParseStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	line := "4242 (weird) name (x)) S 17 4242 4242 0 -1 4194304 100 0 0 0 250 50 7 3 20 0 9 0 1000 123456789 321 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	st, err := parseStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if st.pid != 4242 || st.ppid != 17 || st.cpuTicks != 300 || st.rssPages != 321 {
		t.Errorf("parseStat = %+v", st)
	}
	if _, err := parseStat([]byte("12 (short) S 1")); err == nil {
		t.Error("a truncated stat line must be rejected")
	}
}

func TestFamily(t *testing.T) {
	procs := []procStat{
		{pid: 1, ppid: 0}, {pid: 10, ppid: 1}, {pid: 11, ppid: 10}, {pid: 12, ppid: 10},
		{pid: 13, ppid: 12}, {pid: 20, ppid: 1}, {pid: 21, ppid: 20},
	}
	var pids []int
	for _, p := range family(procs, 10) {
		pids = append(pids, p.pid)
	}
	if want := []int{10, 11, 12, 13}; !reflect.DeepEqual(pids, want) {
		t.Errorf("family(10) = %v, want %v", pids, want)
	}
}

func TestDescendantDiscovery(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	// A child that itself starts a child: both must be found.
	cmd := exec.Command("sh", "-c", "sleep 30 & wait")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true} // so the grandchild can be killed too
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		cmd.Wait()
	}()
	var fam []procStat
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if fam = family(readProcs(), os.Getpid()); len(fam) >= 3 {
			break
		}
	}
	found := map[int]bool{}
	grandchild := false
	for _, p := range fam {
		found[p.pid] = true
		if p.ppid == cmd.Process.Pid {
			grandchild = true
		}
	}
	if !found[os.Getpid()] || !found[cmd.Process.Pid] || !grandchild {
		t.Fatalf("family of %d misses the child %d or its child: %+v", os.Getpid(), cmd.Process.Pid, fam)
	}
	if u := familyUsage(os.Getpid()); u.procs < 3 || u.rssMB <= 0 {
		t.Errorf("familyUsage = %+v", u)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	type row struct{ name, unit, better string }
	check := func(kind string, code, file []row) {
		t.Helper()
		if !reflect.DeepEqual(code, file) {
			t.Errorf("%s: the program reports\n  %v\nBENCHMARK.json lists\n  %v", kind, code, file)
		}
		seen := map[string]bool{}
		for _, r := range code {
			if !nameRE.MatchString(r.name) {
				t.Errorf("%s name %q is outside [A-Za-z0-9_.-]", kind, r.name)
			}
			if seen[r.name] {
				t.Errorf("%s name %q is used twice", kind, r.name)
			}
			seen[r.name] = true
			if r.better != "lower" && r.better != "higher" {
				t.Errorf("%s %s: better = %q", kind, r.name, r.better)
			}
		}
	}
	var codeE, fileE, codeL, fileL []row
	var codeW, fileW []string
	for _, d := range endToEnd {
		codeE = append(codeE, row{d.name, d.unit, d.better})
	}
	for i, m := range bf.EndToEnd {
		fileE = append(fileE, row{m.Name, m.Unit, m.Better})
		if m.Bound != endToEnd[min(i, len(endToEnd)-1)].bound {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program", m.Name, m.Bound, endToEnd[min(i, len(endToEnd)-1)].bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, d := range perLayer {
		codeL = append(codeL, row{d.name, d.unit, d.better})
		if layer, _, ok := strings.Cut(d.name, "."); !ok || layer == "" {
			t.Errorf("per-layer name %q is not layer.metric", d.name)
		}
		switch d.source {
		case "span", "count", "probe":
		default:
			t.Errorf("%s: source %q", d.name, d.source)
		}
	}
	for _, m := range bf.PerLayer {
		fileL = append(fileL, row{m.Name, m.Unit, m.Better})
	}
	for _, d := range workloadDefs {
		codeW = append(codeW, d.name)
	}
	for _, w := range bf.Workloads {
		fileW = append(fileW, w.Name)
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is outside [A-Za-z0-9_.-]", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check("end-to-end metric", codeE, fileE)
	check("per-layer metric", codeL, fileL)
	if !reflect.DeepEqual(codeW, fileW) {
		t.Errorf("workloads: the program runs %v, BENCHMARK.json lists %v", codeW, fileW)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
}

func TestReportInsistsOnEveryMetric(t *testing.T) {
	got := map[string]float64{"setup_s": 1, "jobs_per_s": 2, "stray": 3}
	vals, missing := report(endToEnd, got)
	if len(vals) != 2 || len(missing) != len(endToEnd)-2 {
		t.Errorf("report kept %d values, missed %v", len(vals), missing)
	}
	if _, ok := vals["stray"]; ok {
		t.Error("report passed on a metric BENCHMARK.json does not name")
	}
}

func TestClaims(t *testing.T) {
	mk := func(n, hits int, misspecs uint64, daemons int) []outcome {
		outs := make([]outcome, n)
		for i := range outs {
			outs[i].index = i
			outs[i].res.Source = "run"
			if i < hits {
				outs[i].res.Source = "cache"
			}
			outs[i].res.Daemons = daemons
		}
		outs[0].res.Misspecs = misspecs
		return outs
	}
	def := func(name string) *workloadDef {
		d, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		name string
		outs []outcome
		bad  int
	}{
		{"host-stream", mk(10, 0, 0, 0), 0},
		{"host-stream", mk(10, 0, 3, 0), 1},
		{"host-recover", mk(10, 0, 21, 0), 0},
		{"host-recover", mk(10, 0, 0, 0), 1},
		{"net-loopback", mk(3, 0, 0, 2), 0},
		{"net-loopback", mk(3, 0, 0, 1), 3},
		{"serve-mix", mk(100, 50, 0, 0), 0},
		{"serve-mix", mk(100, 54, 0, 0), 0},
		{"serve-mix", mk(100, 40, 0, 0), 1},
		{"serve-mix", mk(4, 2, 0, 0), 0},
		{"serve-mix", mk(4, 0, 0, 0), 1},
	}
	for _, c := range cases {
		if got := claims(def(c.name), c.outs); len(got) != c.bad {
			t.Errorf("%s: %d violations %v, want %d", c.name, len(got), got, c.bad)
		}
	}
}

// smokeTools builds dsmtxd once for the smoke runs.
func smokeTools(t *testing.T) (dsmtxd, workdir string) {
	t.Helper()
	workdir = t.TempDir()
	dsmtxd = filepath.Join(workdir, "dsmtxd")
	if err := buildDsmtxd(dsmtxd, os.Stderr); err != nil {
		t.Fatal(err)
	}
	return dsmtxd, workdir
}

// noStrays fails the test if the benchmark left a process behind.
func noStrays(t *testing.T) {
	t.Helper()
	var fam []procStat
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if fam = family(readProcs(), os.Getpid()); len(fam) == 1 {
			return
		}
	}
	t.Errorf("processes left behind: %+v", fam)
}

// TestSmoke runs every workload with four timed jobs, then the traced mode
// once, through the same entry point the driver uses. It keeps the harness
// compiling and its gates firing, and checks that daemons, the server and
// scratch files are gone afterwards.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real jobs; skipped under -short")
	}
	dsmtxd, workdir := smokeTools(t)
	resultOf := func(args ...string) (result, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args = append(args, "-dsmtxd", dsmtxd, "-workdir", workdir, "-root", "..", "-probe-ms", "20")
		code := run(args, &stdout, &stderr)
		var res result
		if err := json.Unmarshal([]byte(lastLine(stdout.Bytes())), &res); err != nil {
			t.Fatalf("%v: exit %d, no result line: %v\nstdout:\n%s\nstderr:\n%s", args, code, err, stdout.String(), stderr.String())
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("%v: exit %d, result %+v\nstdout:\n%s\nstderr:\n%s", args, code, res, stdout.String(), stderr.String())
		}
		return res, stdout.String()
	}
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			res, out := resultOf("-workload", def.name, "-seed", "5", "-jobs", "4", "-trace", "0")
			if res.Attempted != 4 {
				t.Errorf("attempted %d jobs, want 4", res.Attempted)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || !(v.Value > 0) {
					t.Errorf("%s = %+v (present %v)", d.name, v, ok)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(endToEnd))
			}
			if !strings.Contains(out, `"claim":null`) || !strings.Contains(out, "job_p90_ms") {
				t.Errorf("report lacks the null claim or the p90 line:\n%s", out)
			}
			noStrays(t)
		})
	}
	t.Run("traced", func(t *testing.T) {
		res, out := resultOf("-workload", "host-recover", "-seed", "5", "-jobs", "6", "-trace", "1")
		for _, d := range perLayer {
			v, ok := res.Metrics[d.name]
			if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s = %+v (present %v)", d.name, v, ok)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(perLayer))
		}
		if res.Metrics["core.misspec_frac"].Value <= 0 || res.Metrics["core.rfp_ms"].Value <= 0 {
			t.Error("host-recover traced run shows no recovery")
		}
		spans, err := filepath.Glob(filepath.Join(workdir, "spans-host-recover-*.json"))
		if err != nil || len(spans) != 1 {
			t.Fatalf("span file: %v %v", spans, err)
		}
		data, err := os.ReadFile(spans[0])
		if err != nil {
			t.Fatal(err)
		}
		var recorded []span
		if err := json.Unmarshal(data, &recorded); err != nil || len(recorded) == 0 {
			t.Fatalf("span file holds %d spans: %v", len(recorded), err)
		}
		if !strings.Contains(out, "trace.overhead_frac") {
			t.Error("traced report lacks trace.overhead_frac")
		}
		noStrays(t)
	})
	// Nothing but the tools and the span file may remain in the scratch dir.
	ents, err := os.ReadDir(workdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if n := e.Name(); n != "dsmtxd" && !strings.HasPrefix(n, "spans-") {
			t.Errorf("scratch file left behind: %s", n)
		}
	}
}

// TestGateFires checks that a wrong result reaches the exit status: a
// target whose checksums cannot match must fail every job.
func TestGateFires(t *testing.T) {
	def, err := workloadByName("host-recover")
	if err != nil {
		t.Fatal(err)
	}
	tg := &target{def: def, oracle: newOracle()}
	j := plan{def: def, seed: 1}.job(0)
	want, err := tg.oracle.reference(j.spec)
	if err != nil {
		t.Fatal(err)
	}
	trips, err := tg.oracle.tripCount(j.spec)
	if err != nil {
		t.Fatal(err)
	}
	var good engine.Result
	good.Checksum, good.Committed = want, trips
	if why := tg.check(j, good, nil); why != "" {
		t.Errorf("a correct result was refused: %s", why)
	}
	bad := good
	bad.Checksum++
	if why := tg.check(j, bad, nil); !strings.Contains(why, "checksum") {
		t.Errorf("a wrong checksum passed: %q", why)
	}
	short := good
	short.Committed--
	if why := tg.check(j, short, nil); !strings.Contains(why, "committed") {
		t.Errorf("a wrong commit count passed: %q", why)
	}
	if why := tg.check(j, good, fmt.Errorf("HTTP 503")); !strings.Contains(why, "503") {
		t.Errorf("a refused job passed: %q", why)
	}
	http, _ := workloadByName("serve-mix")
	ts := &target{def: http, oracle: tg.oracle}
	if why := ts.check(j, good, nil); !strings.Contains(why, "verify") {
		t.Errorf("an unverified server reply passed: %q", why)
	}
}
