package pipeline

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestSpecDSWPNotation(t *testing.T) {
	p := SpecDSWP("S", "DOALL", "S")
	if p.Name != "Spec-DSWP+[S,DOALL,S]" {
		t.Fatalf("Name = %q", p.Name)
	}
	if len(p.Stages) != 3 || p.Stages[0].Kind != Sequential || p.Stages[1].Kind != Parallel {
		t.Fatalf("stages = %+v", p.Stages)
	}
	if p.MinWorkers() != 3 {
		t.Fatalf("MinWorkers = %d", p.MinWorkers())
	}
}

func TestSpecDOALLPlan(t *testing.T) {
	p := SpecDOALL()
	if p.MinWorkers() != 1 || p.ParallelStages() != 1 {
		t.Fatalf("plan = %+v", p)
	}
}

func TestLayoutSequentialGetsOneWorker(t *testing.T) {
	l, err := NewLayout(SpecDSWP("S", "DOALL", "S"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Assign[0]) != 1 || len(l.Assign[2]) != 1 {
		t.Fatalf("sequential stages got %d, %d workers", len(l.Assign[0]), len(l.Assign[2]))
	}
	if len(l.Assign[1]) != 8 {
		t.Fatalf("parallel stage got %d workers, want 8", len(l.Assign[1]))
	}
}

func TestLayoutAllWorkersAssignedExactlyOnce(t *testing.T) {
	l, err := NewLayout(SpecDSWP("S", "DOALL", "S"), 13)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for s, pool := range l.Assign {
		for _, tid := range pool {
			seen[tid]++
			if l.StageOf(tid) != s {
				t.Errorf("StageOf(%d) = %d, want %d", tid, l.StageOf(tid), s)
			}
		}
	}
	for tid := 0; tid < 13; tid++ {
		if seen[tid] != 1 {
			t.Errorf("tid %d assigned %d times", tid, seen[tid])
		}
	}
}

func TestLayoutTooFewWorkers(t *testing.T) {
	if _, err := NewLayout(SpecDSWP("S", "DOALL", "S"), 2); err == nil {
		t.Fatal("expected error for 2 workers on a 3-stage plan")
	}
}

func TestAllSequentialPlanRejectsSpares(t *testing.T) {
	p := Plan{Name: "seq", Stages: []Stage{{Kind: Sequential}, {Kind: Sequential}}}
	if _, err := NewLayout(p, 5); err == nil {
		t.Fatal("expected error: no parallel stage for spare workers")
	}
	if _, err := NewLayout(p, 2); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
}

func TestWorkerOfRoundRobin(t *testing.T) {
	l, err := NewLayout(SpecDSWP("S", "DOALL", "S"), 6) // pool of 4 in stage 1
	if err != nil {
		t.Fatal(err)
	}
	pool := l.Assign[1]
	for iter := uint64(0); iter < 12; iter++ {
		want := pool[iter%4]
		if got := l.WorkerOf(1, iter); got != want {
			t.Errorf("WorkerOf(1, %d) = %d, want %d", iter, got, want)
		}
	}
	// Sequential stages execute every iteration.
	for iter := uint64(0); iter < 5; iter++ {
		if l.WorkerOf(0, iter) != l.Assign[0][0] {
			t.Errorf("sequential stage rotated workers")
		}
	}
}

func TestEdgesAdjacent(t *testing.T) {
	edges := SpecDSWP("S", "DOALL", "S", "S").Edges()
	if want := [][2]int{{0, 1}, {1, 2}, {2, 3}}; !reflect.DeepEqual(edges, want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	if edges := SpecDOALL().Edges(); len(edges) != 0 {
		t.Fatalf("one-stage plan has edges %v", edges)
	}
}

func TestPoolIndex(t *testing.T) {
	l, err := NewLayout(SpecDSWP("S", "DOALL", "S"), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, tid := range l.Assign[1] {
		if got := l.PoolIndex(tid); got != i {
			t.Errorf("PoolIndex(%d) = %d, want %d", tid, got, i)
		}
	}
}

// Property: for any worker budget >= the minimum, every worker lands in
// exactly one stage, parallel pools absorb all spares, and WorkerOf picks a
// worker of the stage asked for.
func TestLayoutProperty(t *testing.T) {
	plans := []Plan{
		SpecDOALL(),
		SpecDSWP("S", "DOALL", "S"),
		SpecDSWP("DOALL", "S"),
		DSWP("Spec-DOALL", "S"),
	}
	f := func(extra uint8, planIdx uint8) bool {
		p := plans[int(planIdx)%len(plans)]
		workers := p.MinWorkers() + int(extra%120)
		l, err := NewLayout(p, workers)
		if err != nil {
			return false
		}
		total := 0
		for _, pool := range l.Assign {
			total += len(pool)
		}
		if total != workers {
			return false
		}
		for iter := uint64(0); iter < 40; iter++ {
			for s := range p.Stages {
				w := l.WorkerOf(s, iter)
				if l.StageOf(w) != s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTLSPlanShape(t *testing.T) {
	p := TLS()
	if p.Name != "TLS" {
		t.Fatalf("Name = %q", p.Name)
	}
	if !p.Sync {
		t.Fatal("TLS plan must carry the sync ring")
	}
	if len(p.Stages) != 1 || p.Stages[0].Kind != Parallel {
		t.Fatalf("stages = %+v, want one parallel stage", p.Stages)
	}
}

func TestTLSNoSyncPlanShape(t *testing.T) {
	p := TLSNoSync()
	if p.Sync {
		t.Fatal("TLSNoSync must not carry a ring")
	}
	if len(p.Stages) != 1 || p.Stages[0].Kind != Parallel {
		t.Fatalf("stages = %+v", p.Stages)
	}
}

func TestTLSPlanLaysOutOnAnyPool(t *testing.T) {
	for _, workers := range []int{1, 2, 30, 126} {
		l, err := NewLayout(TLS(), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(l.Assign[0]) != workers {
			t.Fatalf("workers=%d: pool size %d", workers, len(l.Assign[0]))
		}
	}
}
