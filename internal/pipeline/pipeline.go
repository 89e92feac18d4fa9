// Package pipeline describes parallelization plans in the paper's
// DSWP+[...] notation and lays them out onto a worker budget.
//
// A Plan is a sequence of pipeline stages, each sequential ("S") or parallel
// ("DOALL"/"Spec-DOALL"). A Layout binds the plan to a concrete number of
// worker threads: each sequential stage gets exactly one worker and the
// parallel stages share the rest — which is how DSWP+ turns an unbalanced
// pipeline into scalable parallelism (Huang et al., §2.1): adding cores
// widens the parallel stage, and the pipeline balance improves naturally.
package pipeline

import "fmt"

// StageKind distinguishes sequential from parallel (replicated) stages.
type StageKind int

// Stage kinds.
const (
	Sequential StageKind = iota // "S": one worker runs every iteration
	Parallel                    // "DOALL"/"Spec-DOALL": iterations spread over a worker pool
)

func (k StageKind) String() string {
	if k == Sequential {
		return "S"
	}
	return "DOALL"
}

// Stage is one pipeline stage.
type Stage struct {
	Kind StageKind
	Name string // optional diagnostic label, e.g. "read", "compress", "write"
}

// Plan is a parallelization scheme: a sequence of stages, each forwarding
// to the next.
type Plan struct {
	Name   string // paper notation, e.g. "Spec-DSWP+[S,DOALL,S]"
	Stages []Stage

	// Sync adds an intra-stage ring of synchronization queues over the
	// (single) parallel stage's pool: worker i forwards to worker i+1.
	// This is how TLS communicates non-speculated cross-iteration
	// dependences — the cyclic, latency-exposed pattern of DOACROSS.
	Sync bool

	// Occupancy makes the sequential stage feeding a parallel stage
	// distribute iterations by outstanding-work occupancy instead of
	// round-robin (the 179.art load-balancing scheme).
	Occupancy bool
}

// Validate reports structural problems with the plan.
func (p Plan) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("pipeline: plan %q has no stages", p.Name)
	}
	return nil
}

// MinWorkers reports the smallest worker count the plan can run on.
func (p Plan) MinWorkers() int { return len(p.Stages) }

// ParallelStages reports how many stages are parallel.
func (p Plan) ParallelStages() int {
	n := 0
	for _, s := range p.Stages {
		if s.Kind == Parallel {
			n++
		}
	}
	return n
}

// Edges lists the forwarding edges, one per adjacent stage pair, in
// (from, to) order.
func (p Plan) Edges() [][2]int {
	var edges [][2]int
	for s := 0; s+1 < len(p.Stages); s++ {
		edges = append(edges, [2]int{s, s + 1})
	}
	return edges
}

// Layout binds a plan to a concrete worker budget. Worker thread IDs are
// dense, 0..Workers-1, assigned stage by stage.
type Layout struct {
	Plan    Plan
	Workers int
	Assign  [][]int // stage -> worker tids
	stageOf []int   // tid -> stage
}

// NewLayout distributes workers across the plan's stages: one per
// sequential stage, the remainder split evenly over parallel stages.
func NewLayout(p Plan, workers int) (Layout, error) {
	if err := p.Validate(); err != nil {
		return Layout{}, err
	}
	if workers < p.MinWorkers() {
		return Layout{}, fmt.Errorf("pipeline: plan %q needs >= %d workers, have %d",
			p.Name, p.MinWorkers(), workers)
	}
	l := Layout{Plan: p, Workers: workers, Assign: make([][]int, len(p.Stages)), stageOf: make([]int, workers)}
	spare := workers - len(p.Stages) // beyond the 1-per-stage minimum
	nPar := p.ParallelStages()
	tid := 0
	parSeen := 0
	for s, st := range p.Stages {
		n := 1
		if st.Kind == Parallel && nPar > 0 {
			n += spare / nPar
			if parSeen < spare%nPar {
				n++
			}
			parSeen++
		}
		for i := 0; i < n; i++ {
			l.Assign[s] = append(l.Assign[s], tid)
			l.stageOf[tid] = s
			tid++
		}
	}
	// A plan with no parallel stage cannot use spare workers.
	if tid < workers {
		return Layout{}, fmt.Errorf("pipeline: plan %q has no parallel stage to absorb %d spare workers",
			p.Name, workers-tid)
	}
	return l, nil
}

// StageOf reports the stage a worker tid belongs to.
func (l Layout) StageOf(tid int) int { return l.stageOf[tid] }

// WorkerOf reports the worker executing iteration iter of stage s under the
// default round-robin distribution.
func (l Layout) WorkerOf(s int, iter uint64) int {
	pool := l.Assign[s]
	return pool[int(iter%uint64(len(pool)))]
}

// PoolIndex reports tid's position within its stage's pool.
func (l Layout) PoolIndex(tid int) int {
	for i, w := range l.Assign[l.stageOf[tid]] {
		if w == tid {
			return i
		}
	}
	panic("pipeline: tid not in its own stage pool")
}

// Convenient plan constructors for the paradigms in Table 2.

// SpecDOALL is a one-stage fully parallel plan ("Spec-DOALL").
func SpecDOALL() Plan {
	return Plan{Name: "Spec-DOALL", Stages: []Stage{{Kind: Parallel, Name: "body"}}}
}

// SpecDSWP builds "Spec-DSWP+[...]" from stage kinds, e.g. SpecDSWP("S",
// "DOALL", "S").
func SpecDSWP(kinds ...string) Plan {
	return fromKinds("Spec-DSWP+", kinds)
}

// DSWP builds "DSWP+[...]" (speculation within a stage, not spanning the
// pipeline) from stage kinds.
func DSWP(kinds ...string) Plan {
	return fromKinds("DSWP+", kinds)
}

// TLS is the comparison paradigm's plan: thread-level speculation in the
// DOACROSS discipline. Each iteration is a single-threaded transaction run
// entirely by one worker, iterations assigned round-robin across the pool
// (the STAMPede [27] / Zhai [34] algorithms the paper's baseline follows),
// and the pool carries the synchronization ring. An MTX with one subTX
// degenerates to exactly such a transaction, so the DSMTX runtime runs TLS
// plans directly, on any backend.
//
// Conventions TLS programs follow:
//
//  1. The stage body receives each synchronized dependence with
//     Ctx.SyncRecv immediately before its first use and forwards it with
//     Ctx.SyncSend immediately after its last def — the optimal placement
//     of Zhai's value-communication optimization. Everything before the
//     recv overlaps with the predecessor iteration; everything between
//     recv and send is the serial section, and the forwarding latency sits
//     on the critical path (the cyclic pattern of Fig. 1 that Spec-DSWP's
//     acyclic pipelines avoid).
//  2. The first iteration after a loop entry or a recovery has no running
//     predecessor; Ctx.EpochFirst selects loading the committed value
//     instead of receiving it.
//  3. Speculated accesses use Ctx.Read / Ctx.Write exactly as under
//     Spec-DSWP; validation and commit are unchanged (single-subTX MTXs).
func TLS() Plan {
	p := TLSNoSync()
	p.Sync = true
	return p
}

// TLSNoSync is the TLS plan for loops with no synchronized dependences
// (pure Spec-DOALL under TLS — e.g. 052.alvinn and swaptions, where the
// paper notes the TLS and DSMTX parallelizations coincide).
func TLSNoSync() Plan {
	p := SpecDOALL()
	p.Name = "TLS"
	return p
}

func fromKinds(prefix string, kinds []string) Plan {
	p := Plan{Name: prefix + "["}
	for i, k := range kinds {
		if i > 0 {
			p.Name += ","
		}
		p.Name += k
		switch k {
		case "S":
			p.Stages = append(p.Stages, Stage{Kind: Sequential})
		case "DOALL", "Spec-DOALL":
			p.Stages = append(p.Stages, Stage{Kind: Parallel})
		default:
			panic(fmt.Sprintf("pipeline: unknown stage kind %q", k))
		}
	}
	p.Name += "]"
	return p
}
