package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/build"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmtx/internal/expsched"
	"dsmtx/internal/job"
	"dsmtx/internal/trace"
	"dsmtx/internal/workloads"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// crc32Spec is the cheap vtime job the behavioural tests run.
func crc32Spec(seed uint64) job.Spec {
	return job.Spec{Bench: "crc32", Cores: 8, Seed: seed}
}

// TestAdmitQueueFull: with one slot running and the queue at depth, the
// next admission is rejected immediately with the typed overload error.
func TestAdmitQueueFull(t *testing.T) {
	e := New(Config{MaxConcurrent: 1, QueueDepth: 2})
	release, err := e.admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		go func() {
			r, err := e.admit(context.Background(), 1)
			if err == nil {
				r()
			}
		}()
	}
	waitFor(t, "queue to fill", func() bool { return e.Stats().Queued == 2 })
	// Shrink the depth under the full queue so the message's two numbers
	// differ: it must report what is queued, then the limit.
	e.cfg.QueueDepth = 1
	_, err = e.admit(context.Background(), 1)
	var over *ErrOverloaded
	if !errors.As(err, &over) {
		t.Fatalf("err = %v, want *ErrOverloaded", err)
	}
	if want := "2 jobs queued (depth 1)"; over.Reason != want {
		t.Fatalf("reason = %q, want %q", over.Reason, want)
	}
	if e.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d", e.Stats().Rejected)
	}
	release()
	waitFor(t, "queue to drain", func() bool {
		s := e.Stats()
		return s.Queued == 0 && s.Running == 0
	})
}

// TestAdmitCoreBudget: core accounting admits what fits, queues what does
// not, and rejects outright a job bigger than the whole budget.
func TestAdmitCoreBudget(t *testing.T) {
	e := New(Config{CoreBudget: 8})
	if _, err := e.admit(context.Background(), 9); err == nil {
		t.Fatal("9 cores must never fit a budget of 8")
	}
	rel4, err := e.admit(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rel3, err := e.admit(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().CoresInUse; got != 7 {
		t.Fatalf("cores in use = %d, want 7", got)
	}
	// 2 more cores do not fit 7/8: the admission parks in the queue.
	granted := make(chan func(), 1)
	go func() {
		r, err := e.admit(context.Background(), 2)
		if err == nil {
			granted <- r
		}
	}()
	waitFor(t, "2-core job to queue", func() bool { return e.Stats().Queued == 1 })
	select {
	case <-granted:
		t.Fatal("2-core job admitted over budget")
	case <-time.After(20 * time.Millisecond):
	}
	rel3()
	var rel2 func()
	select {
	case rel2 = <-granted:
	case <-time.After(5 * time.Second):
		t.Fatal("queued job not granted after release")
	}
	if got := e.Stats().CoresInUse; got != 6 {
		t.Fatalf("cores in use = %d, want 6 (4 running + 2 granted)", got)
	}
	rel4()
	rel2()
	if got := e.Stats().CoresInUse; got != 0 {
		t.Fatalf("cores in use after release = %d", got)
	}
}

// TestAdmitFIFO: a small job arriving behind a large queued job waits for
// it (head-of-line blocking is the fairness guarantee: a stream of small
// jobs can never starve a large one).
func TestAdmitFIFO(t *testing.T) {
	e := New(Config{CoreBudget: 8})
	rel6, err := e.admit(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	var wg sync.WaitGroup
	enqueue := func(name string, cores int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := e.admit(context.Background(), cores)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			order <- name
			r()
		}()
	}
	enqueue("big", 8)
	waitFor(t, "big to queue", func() bool { return e.Stats().Queued == 1 })
	enqueue("small", 1)
	waitFor(t, "small to queue", func() bool { return e.Stats().Queued == 2 })
	// The small job fits right now (6+1 <= 8) but must wait behind big —
	// and big needs the whole budget, so the grant order is observable.
	select {
	case name := <-order:
		t.Fatalf("%s admitted past the queue head", name)
	case <-time.After(20 * time.Millisecond):
	}
	rel6()
	wg.Wait()
	if first := <-order; first != "big" {
		t.Fatalf("first grant = %s, want big", first)
	}
}

// TestAdmitCancelledHead: a cancelled ticket at the queue head must not
// block the tickets behind it.
func TestAdmitCancelledHead(t *testing.T) {
	e := New(Config{MaxConcurrent: 1})
	release, err := e.admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	headErr := make(chan error, 1)
	go func() {
		_, err := e.admit(ctx, 1)
		headErr <- err
	}()
	waitFor(t, "head to queue", func() bool { return e.Stats().Queued == 1 })
	granted := make(chan func(), 1)
	go func() {
		r, err := e.admit(context.Background(), 1)
		if err == nil {
			granted <- r
		}
	}()
	waitFor(t, "second to queue", func() bool { return e.Stats().Queued == 2 })
	cancel()
	if err := <-headErr; err != context.Canceled {
		t.Fatalf("cancelled head err = %v", err)
	}
	release()
	select {
	case r := <-granted:
		r()
	case <-time.After(5 * time.Second):
		t.Fatal("ticket behind a cancelled head never granted")
	}
}

// TestSubmitVTimeMatchesDirect: the engine is a pure refactor of the
// pre-engine call path — a vtime job through Submit returns exactly what
// workloads.RunParallel returns directly.
func TestSubmitVTimeMatchesDirect(t *testing.T) {
	spec := crc32Spec(7).Normalized()
	e := New(Config{})
	defer e.Close()
	got, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName(spec.Bench)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workloads.RunParallel(b, spec.Input(), spec.ParsedParadigm(), spec.Cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want) {
		t.Fatalf("engine result diverges from direct RunParallel:\n got %+v\nwant %+v", got.Result, want)
	}
	if got.Source != "run" {
		t.Fatalf("source = %q", got.Source)
	}
}

// TestSubmitVerify: a Verify job resolves the sequential reference and
// reports the checksum match.
func TestSubmitVerify(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	spec := crc32Spec(3)
	spec.Verify = true
	res, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.SeqCheck == 0 || res.Checksum != res.SeqCheck {
		t.Fatalf("verify: %+v", res)
	}
	if res.SeqTime == 0 {
		t.Fatal("verify must carry the sequential reference time")
	}

	// An in-process job builds its core.System and drops it: the same
	// uncached host spec twice is two verified runs, and the fleet counters
	// stay where net jobs left them.
	host := job.Spec{Bench: "crc32", Cores: 4, Backend: "host", Seed: 11, Rate: 0.02, Verify: true}
	for i := 0; i < 2; i++ {
		res, err := e.Submit(context.Background(), host)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Verified || res.Source != "run" {
			t.Fatalf("host run %d: %+v", i, res)
		}
	}
	if st := e.Stats(); st.PoolBuilds != 0 || st.PoolReuses != 0 {
		t.Fatalf("in-process jobs moved the net fleet counters: %+v", st)
	}

	// The one chained benchmark: its parallel run and its sequential
	// reference both run every epoch.
	res, err = e.Submit(context.Background(), job.Spec{Bench: "052.alvinn", Cores: 8, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Checksum != res.SeqCheck {
		t.Fatalf("chained verify: %+v", res)
	}
}

// TestSubmitCache: a configured cache serves the second submission of a
// spec without re-running it, bit-exactly.
func TestSubmitCache(t *testing.T) {
	cache, err := expsched.OpenCache(t.TempDir(), "enginetest")
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Cache: cache})
	defer e.Close()
	spec := crc32Spec(5)
	first, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "cache" {
		t.Fatalf("second source = %q, want cache", second.Source)
	}
	first.Source, second.Source = "", ""
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache round trip not bit-exact:\n got %+v\nwant %+v", second, first)
	}
	st := e.Stats()
	if st.CacheHits != 1 || st.Completed != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if cs, ok := e.CacheStats(); !ok || cs.Entries == 0 {
		t.Fatalf("cache stats = %+v, %v", cs, ok)
	}
}

// TestInputLifetime: an engine with a result cache drops a parallel job's
// generated input once the result is cached, unless another queued or
// running job reads the same input (a sweep's other points), and keeps a
// seq job's (a verify pair's parallel run reads it next); an engine
// without one keeps every input for the next job over the same seed, as
// the bench's host engines rely on.
func TestInputLifetime(t *testing.T) {
	cache, err := expsched.OpenCache(t.TempDir(), "enginetest")
	if err != nil {
		t.Fatal(err)
	}
	cached := New(Config{Cache: cache})
	defer cached.Close()
	ctx := context.Background()

	verified := crc32Spec(9101)
	verified.Verify = true
	res, err := cached.Submit(ctx, verified)
	if err != nil || !res.Verified {
		t.Fatalf("verified job: %+v, %v", res, err)
	}
	if workloads.InputCached("crc32", verified.Input()) {
		t.Fatal("a cached verified job's input is still held")
	}
	if again, err := cached.Submit(ctx, verified); err != nil || again.Source != "cache" {
		t.Fatalf("resubmission: source %q, %v; want cache", again.Source, err)
	}

	// A sibling point over the same input, still queued, keeps it alive;
	// the last point to finish drops it.
	point, sibling := crc32Spec(9104), crc32Spec(9104)
	sibling.Cores, sibling.Rate = 16, 0.05
	cached.mu.Lock()
	cached.inflight[sibling.Normalized()] = &call{done: make(chan struct{})}
	cached.mu.Unlock()
	if _, err := cached.Submit(ctx, point); err != nil {
		t.Fatal(err)
	}
	if !workloads.InputCached("crc32", point.Input()) {
		t.Fatal("a job dropped an input a queued job shares")
	}
	cached.mu.Lock()
	delete(cached.inflight, sibling.Normalized())
	cached.mu.Unlock()
	if _, err := cached.Submit(ctx, sibling); err != nil {
		t.Fatal(err)
	}
	if workloads.InputCached("crc32", point.Input()) {
		t.Fatal("the last job over an input left it held")
	}

	seq := job.Spec{Kind: job.KindSeq, Bench: "crc32", Seed: 9102}
	if _, err := cached.Submit(ctx, seq); err != nil {
		t.Fatal(err)
	}
	if !workloads.InputCached("crc32", seq.Input()) {
		t.Fatal("a seq job dropped its input")
	}

	plain := New(Config{})
	defer plain.Close()
	spec := crc32Spec(9103)
	if _, err := plain.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if !workloads.InputCached("crc32", spec.Input()) {
		t.Fatal("an engine without a result cache dropped a job's input")
	}
}

// TestSubmitStorm: a storm of concurrent duplicate submissions — the
// race-detector gate for the engine's admission, singleflight, and stats
// paths. Every submission must succeed with the identical deterministic
// result, and duplicates in flight must coalesce rather than re-run.
func TestSubmitStorm(t *testing.T) {
	e := New(Config{MaxConcurrent: 4, QueueDepth: 256})
	defer e.Close()
	const n = 32
	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Two distinct specs interleaved; duplicates of each coalesce.
			results[i], errs[i] = e.Submit(context.Background(), crc32Spec(uint64(i%2)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i := 2; i < n; i++ {
		if results[i].Checksum != results[i%2].Checksum {
			t.Fatalf("checksum %d diverges: %x vs %x", i, results[i].Checksum, results[i%2].Checksum)
		}
	}
	st := e.Stats()
	if st.Submitted != n || st.Completed != n || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Coalesced == 0 {
		t.Fatalf("no coalescing across %d duplicate submissions: %+v", n, st)
	}
	if st.Running != 0 || st.Queued != 0 || st.CoresInUse != 0 {
		t.Fatalf("engine not quiescent: %+v", st)
	}
}

// TestStatsAreTheMetrics: Stats and the registry are one record. After a
// fresh job, its cache hit, a coalesced follower, an overload rejection and
// a failed job, every Stats field equals its instrument in Metrics.
func TestStatsAreTheMetrics(t *testing.T) {
	cache, err := expsched.OpenCache(t.TempDir(), "enginetest")
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Cache: cache, MaxConcurrent: 1, QueueDepth: 1})
	defer e.Close()
	ctx := context.Background()
	for _, want := range []string{"run", "cache"} {
		if res, err := e.Submit(ctx, crc32Spec(31)); err != nil || res.Source != want {
			t.Fatalf("source %q err %v, want %q", res.Source, err, want)
		}
	}

	// With the only slot held, a leader queues, a duplicate coalesces onto
	// it, and a third spec finds the queue full.
	release, err := e.admit(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	submit := func() {
		_, err := e.Submit(ctx, crc32Spec(32))
		done <- err
	}
	go submit()
	waitFor(t, "leader to queue", func() bool { return e.Stats().Queued == 1 })
	go submit()
	waitFor(t, "follower to coalesce", func() bool { return e.Stats().Coalesced == 1 })
	var over *ErrOverloaded
	if _, err := e.Submit(ctx, crc32Spec(33)); !errors.As(err, &over) {
		t.Fatalf("err = %v, want *ErrOverloaded", err)
	}
	release()
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// A net job whose daemon refuses the connection fails once admitted.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if _, err := e.SubmitOpts(ctx, job.Spec{Bench: "crc32", Cores: 5, Backend: "net"}, Options{NetJoin: []string{dead}}); err == nil {
		t.Fatal("net job against a closed port succeeded")
	}

	st := e.Stats()
	if want := (Stats{Submitted: 6, Completed: 4, Failed: 1, Rejected: 1, CacheHits: 1, Coalesced: 1}); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	m := e.Metrics()
	for _, c := range []struct {
		name string
		got  uint64
	}{
		{"engine.jobs.submitted", st.Submitted},
		{"engine.jobs.completed", st.Completed},
		{"engine.jobs.failed", st.Failed},
		{"engine.jobs.rejected", st.Rejected},
		{"engine.jobs.cachehit", st.CacheHits},
		{"engine.jobs.coalesced", st.Coalesced},
		{"engine.pool.reuse", st.PoolReuses},
		{"engine.pool.build", st.PoolBuilds},
	} {
		if want := m.Counter(c.name).Value(); c.got != want {
			t.Errorf("%s: Stats %d, registry %d", c.name, c.got, want)
		}
	}
	for _, g := range []struct {
		name string
		got  int
	}{
		{"engine.jobs.running", st.Running},
		{"engine.jobs.queued", st.Queued},
		{"engine.cores.inuse", st.CoresInUse},
	} {
		if want := m.Gauge(g.name).Value(); int64(g.got) != want {
			t.Errorf("%s: Stats %d, registry %d", g.name, g.got, want)
		}
	}
}

// TestDrainRejects: after Drain, submissions fail with the typed error.
func TestDrainRejects(t *testing.T) {
	e := New(Config{MaxConcurrent: 1})
	e.Drain()
	if _, err := e.Submit(context.Background(), crc32Spec(1)); err != ErrDraining {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
}

// TestSubmitValidates: broken specs — and options the spec's backend
// cannot honour — are rejected before admission, naming the field.
func TestSubmitValidates(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	net := job.Spec{Bench: "crc32", Cores: 8, Backend: "net"}
	for _, tc := range []struct {
		spec job.Spec
		opts Options
		want string
	}{
		{spec: job.Spec{}, want: "benchmark name"},
		{spec: job.Spec{Bench: "no-such-bench"}, want: "unknown benchmark"},
		{spec: job.Spec{Bench: "crc32", Cores: -1}, want: "cores"},
		// Used to run as rates 0, 1 and 0 under cache keys of their own; NaN
		// (never equal to itself) also stranded its singleflight entry.
		{spec: job.Spec{Bench: "crc32", Cores: 8, Rate: -0.5}, want: "rate -0.5 outside [0,1]"},
		{spec: job.Spec{Bench: "crc32", Cores: 8, Rate: 2}, want: "rate 2 outside [0,1]"},
		{spec: job.Spec{Bench: "crc32", Cores: 8, Rate: math.NaN()}, want: "rate NaN outside [0,1]"},
		{spec: job.Spec{Bench: "crc32", Cores: 8, Knob: "warp-drive"}, want: "knob"},
		{spec: job.Spec{Bench: "crc32", Cores: 8, Paradigm: "openmp"}, want: "paradigm"},
		// What a net job cannot honour is refused, not silently dropped: a
		// coordinator-side tracer, and no more.
		{spec: net, opts: Options{Tracer: trace.New()}, want: "Options.Tracer"},
		// The daemons run the spec's own tune hook, so TLS and the knobs run.
		{spec: job.Spec{Bench: "crc32", Cores: 8, Backend: "net", Paradigm: "TLS"}},
		{spec: job.Spec{Bench: "crc32", Cores: 8, Backend: "net", Knob: job.KnobQueueUnopt}},
		// What only core.Config.Validate sees is a spec error too, not a
		// failed job; the machine the cores must fit is the knob's.
		{spec: job.Spec{Bench: "crc32", Cores: 2, Backend: "host"}, want: "2 cores leave 0 workers"},
		{spec: job.Spec{Bench: "crc32", Cores: 129, Backend: "host", Verify: true}, want: "129 cores exceed the machine's 128"},
		{spec: job.Spec{Bench: "crc32", Cores: 49, Knob: job.KnobManycore}, want: "49 cores exceed the machine's 48"},
	} {
		if tc.want == "" {
			if err := tc.spec.Normalized().Validate(); err != nil {
				t.Errorf("spec %+v: Validate = %v, want accepted", tc.spec, err)
			}
			continue
		}
		_, err := e.SubmitOpts(context.Background(), tc.spec, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("spec %+v opts %+v: err = %v, want substring %q", tc.spec, tc.opts, err, tc.want)
		}
	}
	if st := e.Stats(); st.Submitted != 0 || st.Completed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFollowerSurvivesLeaderCancel: a coalesced follower must not inherit
// the leader's own cancellation. With the only slot held, the leader
// queues for admission and a duplicate submission coalesces onto it; when
// the leader's context is cancelled the follower (live context) takes
// over as leader and, once the slot frees, runs the job itself.
func TestFollowerSurvivesLeaderCancel(t *testing.T) {
	e := New(Config{MaxConcurrent: 1})
	release, err := e.admit(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := crc32Spec(11)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.Submit(leaderCtx, spec)
		leaderErr <- err
	}()
	waitFor(t, "leader to queue", func() bool { return e.Stats().Queued == 1 })

	type outcome struct {
		res Result
		err error
	}
	follower := make(chan outcome, 1)
	go func() {
		res, err := e.Submit(context.Background(), spec)
		follower <- outcome{res, err}
	}()
	waitFor(t, "follower to coalesce", func() bool { return e.Stats().Coalesced == 1 })

	cancelLeader()
	if err := <-leaderErr; err != context.Canceled {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	waitFor(t, "follower to queue as the new leader", func() bool { return e.Stats().Queued == 1 })
	release()
	got := <-follower
	if got.err != nil {
		t.Fatalf("follower inherited the leader's fate: %v", got.err)
	}
	if got.res.Source != "run" || got.res.Committed == 0 {
		t.Fatalf("follower result = %+v, want its own run", got.res)
	}
	if st := e.Stats(); st.Running != 0 || st.Queued != 0 || st.CoresInUse != 0 {
		t.Fatalf("leaked admission slot: %+v", st)
	}
}

// resultNeutral are the packages on Submit's run path whose sources cannot
// change a cached result: instrumentation, formatting and the cache itself.
var resultNeutral = map[string]bool{"internal/trace": true, "internal/stats": true, "internal/expsched": true}

// TestFingerprintCoversRunPath: every in-module package Submit's run path
// imports, directly or not, is under a simSourceDirs entry or named
// result-neutral, so editing it invalidates the result cache.
func TestFingerprintCoversRunPath(t *testing.T) {
	root, ok := moduleRoot()
	if !ok {
		t.Skip("not inside the module")
	}
	seen := map[string]bool{}
	var walk func(rel string)
	walk = func(rel string) {
		if seen[rel] {
			return
		}
		seen[rel] = true
		pkg, err := build.ImportDir(filepath.Join(root, filepath.FromSlash(rel)), 0)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, imp := range pkg.Imports {
			if dep, ok := strings.CutPrefix(imp, "dsmtx/"); ok {
				walk(dep)
			}
		}
	}
	walk("internal/engine")
	for rel := range seen {
		covered := resultNeutral[rel]
		for _, dir := range simSourceDirs {
			covered = covered || rel == dir || strings.HasPrefix(rel, dir+"/")
		}
		if !covered {
			t.Errorf("%s is on the run path but neither in simSourceDirs nor result-neutral", rel)
		}
	}
	if !seen["internal/netrun"] || !seen["internal/job"] {
		t.Fatalf("walk missed the net path: %v", seen)
	}
}

// TestResultCacheRoundTrip: the cache stores engine.Result as-is, so a
// Put→Get round trip must preserve every serialized field — checked by
// reflection over a fully populated Result, so a field added later without
// a JSON encoding fails here — and entries written under an older record
// schema must miss rather than decode into a zeroed Result.
func TestResultCacheRoundTrip(t *testing.T) {
	var want Result
	fillNonZero(reflect.ValueOf(&want).Elem(), 1)

	dir := t.TempDir()
	fp, err := resultFingerprint(recordSchema)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := expsched.OpenCache(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	spec := crc32Spec(9).Normalized()
	if err := cache.Put(spec, want); err != nil {
		t.Fatal(err)
	}
	var got Result
	if ok, err := cache.Get(spec, &got); err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", got, want)
	}

	// A hit through the engine reports where it came from, not how the
	// original ran.
	e := New(Config{Cache: cache})
	defer e.Close()
	hit, err := e.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Source != "cache" {
		t.Fatalf("hit Source=%q, want cache", hit.Source)
	}
	hit.Source = want.Source
	if !reflect.DeepEqual(hit, want) {
		t.Fatalf("engine hit differs from the stored record:\n got %+v\nwant %+v", hit, want)
	}

	// The same job.Spec key under the previous schema string held the old
	// lower-case record shape; it must be invisible, not a zeroed hit.
	oldFP, err := resultFingerprint("record-v2")
	if err != nil {
		t.Fatal(err)
	}
	oldCache, err := expsched.OpenCache(dir, oldFP)
	if err != nil {
		t.Fatal(err)
	}
	stale := crc32Spec(10).Normalized()
	if err := oldCache.Put(stale, map[string]any{"elapsed": 1, "checksum": 2, "committed": 3}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := cache.Get(stale, &got); ok {
		t.Fatal("an entry written under record-v2 was served under " + recordSchema)
	}
	res, err := e.Submit(context.Background(), stale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "run" || res.Committed == 0 {
		t.Fatalf("stale-schema spec: %+v, want a fresh run", res)
	}
}

// fillNonZero sets every serialized field reachable from v to a distinct
// non-zero value.
func fillNonZero(v reflect.Value, seed int64) int64 {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Tag.Get("json") != "-" {
				seed = fillNonZero(v.Field(i), seed)
			}
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(seed)
		seed++
	case reflect.Uint64:
		v.SetUint(uint64(seed))
		seed++
	case reflect.Float64:
		v.SetFloat(float64(seed) + 0.5)
		seed++
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprint("s", seed))
		seed++
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
	return seed
}

// TestServerHostileBodies: an oversized POST /jobs body is a 413 and bytes
// after the JSON object are a 400, both before the engine sees a job.
func TestServerHostileBodies(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	hs := httptest.NewServer(NewServer(e).Handler())
	defer hs.Close()
	good := `{"bench":"crc32","cores":8}`
	for _, tc := range []struct {
		name, body, want string
		status           int
	}{
		{"oversized", `{"bench":"` + strings.Repeat("x", maxSpecBytes) + `"}`, "too large", http.StatusRequestEntityTooLarge},
		{"padded past the cap", good + strings.Repeat(" ", maxSpecBytes), "too large", http.StatusRequestEntityTooLarge},
		{"second object", good + good, "trailing data", http.StatusBadRequest},
		{"trailing garbage", good + " xyz", "bad job spec", http.StatusBadRequest},
		{"invocations", `{"bench":"052.alvinn","cores":8,"invocations":1}`, `unknown field "invocations"`, http.StatusBadRequest},
	} {
		resp, err := http.Post(hs.URL+"/jobs?wait=1", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var reply struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != tc.status || !strings.Contains(reply.Error, tc.want) {
			t.Errorf("%s: status %d, error %q; want %d with %q", tc.name, resp.StatusCode, reply.Error, tc.status, tc.want)
		}
	}
	if st := e.Stats(); st.Submitted != 0 {
		t.Fatalf("hostile bodies reached the engine: %+v", st)
	}
}

// TestServerForgetsOldestFinished: the detached-job table keeps the newest
// maxFinishedJobs finished entries; older ids answer 404 like unknown ones.
func TestServerForgetsOldestFinished(t *testing.T) {
	cache, err := expsched.OpenCache(t.TempDir(), "enginetest")
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Cache: cache}) // all but the first submission are cache hits
	defer e.Close()
	srv := NewServer(e)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	status := func(id int) int {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%d", hs.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	submit := func(n int) {
		for i := 0; i < n; i++ {
			resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(`{"bench":"crc32","cores":8}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("detached submit: status %d", resp.StatusCode)
			}
		}
		srv.Drain()
	}
	const k = 3
	submit(k) // finish first, so they are the oldest-finished
	if got := status(1); got != http.StatusOK {
		t.Fatalf("job 1 before eviction: status %d", got)
	}
	submit(maxFinishedJobs)
	for id := 1; id <= k; id++ {
		if got := status(id); got != http.StatusNotFound {
			t.Errorf("evicted job %d: status %d, want 404", id, got)
		}
	}
	for _, id := range []int{k + 1, k + maxFinishedJobs} {
		if got := status(id); got != http.StatusOK {
			t.Errorf("retained job %d: status %d, want 200", id, got)
		}
	}
	srv.mu.Lock()
	kept, order := len(srv.jobs), len(srv.done)
	srv.mu.Unlock()
	if kept != maxFinishedJobs || order != maxFinishedJobs {
		t.Errorf("table holds %d jobs (%d in eviction order), want %d", kept, order, maxFinishedJobs)
	}
	if st := e.Stats(); st.Running != 0 || st.Queued != 0 {
		t.Errorf("gauges not back to zero: %+v", st)
	}
}
