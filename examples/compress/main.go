// Compress: a parallel block compressor built on the DSMTX public API —
// the 164.gzip/256.bzip2 shape from the paper, with your own kernel.
//
// Pipeline (Spec-DSWP+[S,DOALL,S]):
//
//	stage 0 (S):     read the next fixed-size block from the input
//	stage 1 (DOALL): compress the block (run-length coding here)
//	stage 2 (S):     append the compressed block to the output, in order
//
// The variable-length output makes stage 2's cursor a loop-carried
// dependence — kept local to that stage's worker, so it costs nothing. The
// whole input streams through stage 0's NIC, which is what bounds this
// shape's scalability in the paper (and here: watch the speedup flatten).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"dsmtx"
)

const (
	blockSize = 16 << 10
	numBlocks = 120
)

// rle is the user-supplied kernel: byte-wise run-length coding.
func rle(src []byte) []byte {
	out := make([]byte, 0, len(src)/2)
	for i := 0; i < len(src); {
		j := i
		for j < len(src) && src[j] == src[i] && j-i < 255 {
			j++
		}
		out = append(out, src[i], byte(j-i))
		i = j
	}
	return out
}

func unrle(comp []byte) []byte {
	var out []byte
	for i := 0; i+1 < len(comp); i += 2 {
		out = append(out, bytes.Repeat(comp[i:i+1], int(comp[i+1]))...)
	}
	return out
}

// compressor is the DSMTX program.
type compressor struct {
	input, output   dsmtx.Addr
	lengths, outCur dsmtx.Addr
}

func (p *compressor) Setup(ctx *dsmtx.SeqCtx) {
	p.input = ctx.Alloc(numBlocks * blockSize)
	p.output = ctx.Alloc(2 * numBlocks * blockSize)
	p.lengths = ctx.AllocWords(numBlocks)
	p.outCur = ctx.AllocWords(1)
	// Synthesize runs-heavy input (sensor-log-like).
	data := make([]byte, numBlocks*blockSize)
	v, run := byte(0), 0
	for i := range data {
		if run == 0 {
			v = byte(i * 2654435761 >> 13)
			run = 3 + i%29
		}
		data[i] = v
		run--
	}
	ctx.Image().StoreBytes(p.input, data)
}

func (p *compressor) Stage(ctx *dsmtx.Ctx, stage int, iter uint64) bool {
	switch stage {
	case 0: // read block
		if iter >= numBlocks {
			return false
		}
		block := ctx.LoadBytes(p.input+dsmtx.Addr(iter*blockSize), blockSize)
		ctx.ProduceData(1, block, blockSize)
	case 1: // compress in parallel; charge ~6 instructions per input byte
		block := ctx.ConsumeData(0).([]byte)
		comp := rle(block)
		ctx.Compute(6 * blockSize)
		ctx.ProduceData(2, comp, len(comp))
	case 2: // append in order
		comp := ctx.ConsumeData(1).([]byte)
		cur := ctx.Load(p.outCur)
		ctx.WriteBytesCommit(p.output+dsmtx.Addr(cur), comp)
		ctx.WriteCommit(p.lengths+dsmtx.Addr(iter*8), uint64(len(comp)))
		ctx.WriteCommit(p.outCur, cur+uint64((len(comp)+7)&^7))
	}
	return true
}

func (p *compressor) SeqIter(ctx *dsmtx.SeqCtx, iter uint64) {
	block := ctx.LoadBytes(p.input+dsmtx.Addr(iter*blockSize), blockSize)
	comp := rle(block)
	ctx.Compute(6 * blockSize)
	cur := ctx.Load(p.outCur)
	ctx.StoreBytes(p.output+dsmtx.Addr(cur), comp)
	ctx.Store(p.lengths+dsmtx.Addr(iter*8), uint64(len(comp)))
	ctx.Store(p.outCur, cur+uint64((len(comp)+7)&^7))
}

func main() {
	traceOut := flag.String("trace", "", "write the 17-core run's Chrome trace-event JSON timeline here")
	flag.Parse()

	plan := dsmtx.SpecDSWP("S", "DOALL", "S")
	prog := &compressor{}
	seqTime, _, err := dsmtx.RunSequential(dsmtx.DefaultConfig(5, plan), prog, numBlocks, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel block compressor: %d x %d KiB blocks\n\n", numBlocks, blockSize>>10)
	for _, cores := range []int{5, 9, 17, 33} {
		sys, err := dsmtx.NewSystem(dsmtx.DefaultConfig(cores, plan), &compressor{}, nil)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %3d cores: %10v  (%.1fx, %.0f MB/s wire traffic)\n",
			cores, res.Elapsed, seqTime.Seconds()/res.Elapsed.Seconds(), res.Bandwidth()/1e6)
	}

	// Verify the committed output decompresses to the input; this run also
	// carries the timeline tracer when -trace is set.
	var tr *dsmtx.Tracer
	cfg := dsmtx.DefaultConfig(17, plan)
	if *traceOut != "" {
		tr = dsmtx.NewTracer()
		cfg.Tracer = tr
	}
	sys, _ := dsmtx.NewSystem(cfg, prog, nil)
	if _, err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s: load it in Perfetto (ui.perfetto.dev) to see each rank's timeline\n", *traceOut)
	}
	img := sys.CommitImage()
	var restored []byte
	off := uint64(0)
	for i := uint64(0); i < numBlocks; i++ {
		n := img.Load(prog.lengths + dsmtx.Addr(i*8))
		restored = append(restored, unrle(img.LoadBytes(prog.output+dsmtx.Addr(off), int(n)))...)
		off += (n + 7) &^ 7
	}
	original := img.LoadBytes(prog.input, numBlocks*blockSize)
	if !bytes.Equal(restored, original) {
		log.Fatal("round trip failed")
	}
	fmt.Printf("\ncompressed %d KiB -> %d KiB; round trip VERIFIED\n",
		len(original)>>10, int(img.Load(prog.outCur))>>10)
}
