package harness

import (
	"fmt"

	"dsmtx/internal/platform"
	"dsmtx/internal/sim"
	"dsmtx/internal/stats"
)

// Figure 1: DSWP tolerates inter-core latency, DOACROSS does not. The toy
// loop has four single-cycle statements A;B;C;D with the dependences of
// Fig. 1(b): B(i)→A(i+1) (loop-carried list walk), B(i)→C(i) (value), and
// C(i)→C(i+1) (work may modify the list). Two cores, communication latency
// L cycles. The paper's numbers: at L=1 both run 2 cycles/iter; at L=2
// DOACROSS degrades to 3 while DSWP stays at 2.

// Fig1Result reports steady-state cycles per iteration.
type Fig1Result struct {
	Latency        int
	DOACROSS, DSWP float64
}

// RunFigure1 simulates both schedules for the given latency (in cycles).
func RunFigure1(latency int) Fig1Result {
	const iters = 400
	return Fig1Result{
		Latency:  latency,
		DOACROSS: doacrossCyclesPerIter(latency, iters),
		DSWP:     dswpCyclesPerIter(latency, iters),
	}
}

const cycle = platform.Nanosecond

// doacrossCyclesPerIter schedules whole iterations on alternating cores;
// the loop-carried B→A dependence crosses cores every iteration (cyclic
// communication).
func doacrossCyclesPerIter(latency, iters int) float64 {
	k := sim.NewKernel()
	tokens := [2]*sim.Chan[int]{
		sim.NewChan[int]("to0"),
		sim.NewChan[int]("to1"),
	}
	var last platform.Time
	for core := 0; core < 2; core++ {
		core := core
		k.Spawn(fmt.Sprintf("core%d", core), func(p *sim.Proc) {
			for i := core; i < iters; i += 2 {
				if i > 0 {
					tokens[core].Recv(p) // B(i-1)'s value arrives
				}
				p.Advance(2 * cycle) // A;B
				// Forward the list pointer to the other core: a value
				// produced in cycle t is usable in cycle t+L.
				next := tokens[1-core]
				v := i
				k.After(platform.Duration(latency-1)*cycle, func() { next.Push(v) })
				p.Advance(2 * cycle) // C;D overlap with the next iteration's A;B
				if i >= iters-2 {
					last = p.Now()
				}
			}
		})
	}
	if err := k.Run(0); err != nil {
		panic(err)
	}
	return float64(last) / float64(iters)
}

// dswpCyclesPerIter pipelines the loop: core 1 runs A;B for every
// iteration (the dependence recurrence stays local), core 2 runs C;D,
// consuming B's values through a unidirectional queue.
func dswpCyclesPerIter(latency, iters int) float64 {
	k := sim.NewKernel()
	q := sim.NewChan[int]("q")
	var last platform.Time
	k.Spawn("stage1", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			p.Advance(2 * cycle) // A;B — recurrence local to this core
			v := i
			k.After(platform.Duration(latency-1)*cycle, func() { q.Push(v) })
		}
	})
	k.Spawn("stage2", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			q.Recv(p)
			p.Advance(2 * cycle) // C;D — C's self-dependence local too
			last = p.Now()
		}
	})
	if err := k.Run(0); err != nil {
		panic(err)
	}
	// Exclude the pipeline-fill time, as the paper's steady-state numbers do.
	fill := platform.Duration(1+latency) * cycle
	return float64(last-fill) / float64(iters)
}

// RenderFigure1 prints the latency-tolerance comparison.
func RenderFigure1(results []Fig1Result) string {
	tb := stats.Table{Header: []string{"latency (cycles)", "DOACROSS cyc/iter", "DSWP cyc/iter"}}
	for _, r := range results {
		tb.AddRow(fmt.Sprint(r.Latency), fmt.Sprintf("%.2f", r.DOACROSS), fmt.Sprintf("%.2f", r.DSWP))
	}
	return "Figure 1: DSWP latency tolerance vs DOACROSS\n" + tb.String()
}
