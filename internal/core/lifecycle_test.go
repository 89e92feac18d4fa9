package core

import (
	"testing"

	"dsmtx/internal/pipeline"
	"dsmtx/internal/trace"
)

// TestLifecycleSpans pins the Tracer as the record of every MTX's
// lifecycle on both in-process backends: a clean run of n MTXs over a
// three-stage pipeline leaves exactly one SpanSubTX per (MTX, stage), and
// one SpanValidate and one SpanCommit per MTX, in MTX order on the
// try-commit and commit tracks. On host those spans are recorded by live
// goroutines, which is why this rides in verify.sh's GOMAXPROCS -race rows.
func TestLifecycleSpans(t *testing.T) {
	const stages = 3
	for _, backend := range []Backend{BackendVTime, BackendHost} {
		t.Run(backend.String(), func(t *testing.T) {
			prog := &pipeProg{n: 40}
			cfg := smallConfig(6, pipeline.SpecDSWP("S", "DOALL", "S"))
			cfg.Backend = backend
			cfg.Tracer = trace.New()
			_, res := runProg(t, cfg, prog)
			if res.Committed != prog.n || res.Misspecs != 0 {
				t.Fatalf("committed %d misspecs %d, want %d/0", res.Committed, res.Misspecs, prog.n)
			}
			if dropped := cfg.Tracer.DroppedSpans(); dropped != 0 {
				t.Fatalf("%d spans dropped", dropped)
			}
			subTXs := map[[2]uint64]int{} // (MTX, stage) -> spans
			var validates, commits []trace.Event
			for _, ev := range cfg.Tracer.Events() {
				switch ev.Kind {
				case trace.SpanSubTX:
					subTXs[[2]uint64{ev.MTX, uint64(ev.V1)}]++
				case trace.SpanValidate:
					if int(ev.Track) != cfg.tryCommitRank() {
						t.Errorf("validate of MTX %d on track %d", ev.MTX, ev.Track)
					}
					validates = append(validates, ev)
				case trace.SpanCommit:
					if int(ev.Track) != cfg.commitRank() {
						t.Errorf("commit of MTX %d on track %d", ev.MTX, ev.Track)
					}
					commits = append(commits, ev)
				}
			}
			for name, evs := range map[string][]trace.Event{"validate": validates, "commit": commits} {
				if uint64(len(evs)) != prog.n {
					t.Fatalf("%d %s spans, want %d", len(evs), name, prog.n)
				}
				for i, ev := range evs {
					if ev.MTX != uint64(i) {
						t.Fatalf("%s span %d is MTX %d — out of order", name, i, ev.MTX)
					}
				}
			}
			if uint64(len(subTXs)) != prog.n*stages {
				t.Errorf("subTX spans cover %d (MTX, stage) pairs, want %d", len(subTXs), prog.n*stages)
			}
			for key, n := range subTXs {
				if n != 1 || key[0] >= prog.n || key[1] >= stages {
					t.Errorf("MTX %d stage %d: %d subTX spans", key[0], key[1], n)
				}
			}
			// Cross-track ordering holds on the virtual clock only: on host a
			// unit can be descheduled between sending and stamping its span.
			if backend == BackendVTime {
				for i, c := range commits {
					if c.End < validates[i].End {
						t.Errorf("MTX %d committed at %v before its validation at %v", i, c.End, validates[i].End)
					}
				}
			}
		})
	}
}
