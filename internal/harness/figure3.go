package harness

import (
	"fmt"
	"strings"

	"dsmtx/internal/core"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/platform"
	"dsmtx/internal/trace"
	"dsmtx/internal/uva"
)

// Figure 3(c): the DSMTX execution model, rendered from a live trace. The
// example loop of Fig. 1(a) runs as a two-stage pipeline — stage 1 (the
// list walk, sequential) on one core, stage 2 (work) on a worker pool —
// with the try-commit and commit units in their own pipeline stages. The
// timeline shows workers running ahead and executing later MTXs while the
// decoupled units validate and commit earlier ones (the paper's
// "Worker1 executing MTX_k while the commit unit commits MTX_i, k > i").

// fig3Prog is the Fig. 1(a) loop: B walks, C computes, D(write) happens at
// commit.
type fig3Prog struct {
	n       uint64
	in, out uva.Addr
}

func (p *fig3Prog) Setup(ctx *core.SeqCtx) {
	p.in = ctx.AllocWords(int(p.n))
	p.out = ctx.AllocWords(int(p.n))
	for k := uint64(0); k < p.n; k++ {
		ctx.Store(p.in+uva.Addr(k*8), k*5+3)
	}
}

func (p *fig3Prog) Stage(ctx *core.Ctx, stage int, iter uint64) bool {
	switch stage {
	case 0: // B: the walk
		if iter >= p.n {
			return false
		}
		ctx.Compute(9000)
		ctx.Produce(1, ctx.Load(p.in+uva.Addr(iter*8)))
	case 1: // C: work(node); D is the commit unit applying the write
		v := ctx.Consume(0)
		ctx.Compute(30000)
		ctx.Write(p.out+uva.Addr(iter*8), v*v+1)
	}
	return true
}

func (p *fig3Prog) SeqIter(ctx *core.SeqCtx, iter uint64) {
	v := ctx.Load(p.in + uva.Addr(iter*8))
	ctx.Compute(39000)
	ctx.Store(p.out+uva.Addr(iter*8), v*v+1)
}

// Fig3Result carries the MTX lifecycle spans (SpanSubTX, SpanValidate,
// SpanCommit, in recording order) and the layout needed to render the
// timeline.
type Fig3Result struct {
	Events  []trace.Event
	Workers int
	Elapsed platform.Time
}

// RunFigure3 executes the Fig. 1(a) loop on a 5-core DSMTX system (as in
// the paper's diagram: one stage-1 core, two stage-2 cores, try-commit,
// commit) with a Tracer attached.
func RunFigure3() (Fig3Result, error) {
	prog := &fig3Prog{n: 10}
	cfg := core.DefaultConfig(5, pipeline.SpecDSWP("S", "DOALL"))
	cfg.Tracer = trace.New()
	cfg.MarkerFlushIters = 1 // per-iteration flushes, so the diagram shows each MTX's validate/commit
	cfg.Cluster.InterNodeLatency = 500 * platform.Nanosecond
	sys, err := core.NewSystem(cfg, prog, nil)
	if err != nil {
		return Fig3Result{}, err
	}
	res, err := sys.Run()
	if err != nil {
		return Fig3Result{}, err
	}
	var events []trace.Event
	for _, e := range cfg.Tracer.Events() {
		switch e.Kind {
		case trace.SpanSubTX, trace.SpanValidate, trace.SpanCommit:
			events = append(events, e)
		}
	}
	return Fig3Result{Events: events, Workers: cfg.Workers(), Elapsed: res.Elapsed}, nil
}

// RenderFigure3 draws the execution-model timeline: one row per unit, MTX
// numbers painted over virtual time.
func RenderFigure3(r Fig3Result) string {
	const width = 100
	if len(r.Events) == 0 {
		return "Figure 3: (no trace)\n"
	}
	// A subTX is painted over its interval; validate and commit as the
	// instant the unit finished with the MTX.
	interval := func(e trace.Event) (platform.Time, platform.Time) {
		if e.Kind == trace.SpanSubTX {
			return e.Start, e.End
		}
		return e.End, e.End
	}
	start, _ := interval(r.Events[0])
	end := platform.Time(0)
	for _, e := range r.Events {
		if lo, _ := interval(e); lo < start {
			start = lo
		}
		if e.End > end {
			end = e.End
		}
	}
	span := float64(end - start)
	col := func(t platform.Time) int {
		c := int(float64(t-start) / span * (width - 1))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}
	rows := map[string][]byte{}
	order := []string{}
	row := func(name string) []byte {
		if _, ok := rows[name]; !ok {
			rows[name] = []byte(strings.Repeat(".", width))
			order = append(order, name)
		}
		return rows[name]
	}
	// Predeclare rows in the paper's order.
	row("Stage1  (core 1)")
	for wkr := 1; wkr <= r.Workers-1; wkr++ {
		row(fmt.Sprintf("Stage2  (core %d)", wkr+1))
	}
	row("TryCommit unit")
	row("Commit unit")
	paint := func(name string, e trace.Event) {
		line := row(name)
		lo, hi := interval(e)
		for c := col(lo); c <= col(hi); c++ {
			line[c] = byte('0' + e.MTX%10)
		}
	}
	for _, e := range r.Events {
		switch e.Kind {
		case trace.SpanSubTX:
			if e.V1 == 0 { // V1 is the pipeline stage, Track the worker
				paint("Stage1  (core 1)", e)
			} else {
				paint(fmt.Sprintf("Stage2  (core %d)", e.Track+1), e)
			}
		case trace.SpanValidate:
			paint("TryCommit unit", e)
		case trace.SpanCommit:
			paint("Commit unit", e)
		}
	}
	var b strings.Builder
	b.WriteString("Figure 3(c): DSMTX execution model (digits are MTX numbers mod 10; time runs right)\n")
	for _, name := range order {
		fmt.Fprintf(&b, "%-18s |%s|\n", name, rows[name])
	}
	fmt.Fprintf(&b, "%-18s  0%*s\n", "", width, r.Elapsed.String())
	b.WriteString("\nWorkers run ahead executing later MTXs while the decoupled try-commit\n")
	b.WriteString("and commit units validate and commit earlier ones (pipeline fill at left).\n")
	return b.String()
}
