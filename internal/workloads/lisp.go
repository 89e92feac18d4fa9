package workloads

import (
	"fmt"
	"strconv"
	"strings"

	"dsmtx/internal/core"
	"dsmtx/internal/mem"
	"dsmtx/internal/pipeline"
	"dsmtx/internal/uva"
)

// 130.li — Lisp interpreter. Each iteration interprets one script from the
// input batch. The parallelization speculates that scripts are independent:
// that none modifies the interpreter's global environment (memory value
// speculation — reads of globals are validated) and that none exits the
// interpreter (control-flow speculation). Accesses to the environment are
// transactional; a rare (set! g …) script invalidates in-flight readers and
// a rare (exit) is caught in-thread.
//
// DSMTX: DSWP+[Spec-DOALL,S] — interpret in parallel, print in order.
// TLS: the print is a synchronized dependence; the paper observes TLS
// "limited due to synchronization arising from the print instruction".

const (
	liScripts       = 600
	liSlotBytes     = 320
	liInstrPerEval  = 100
	liLineBytes     = 24    // fixed-width output record per script
	liTLSPrintInstr = 30000 // the in-order print path of the TLS version
)

type liProg struct {
	tls     bool
	scripts uint64
	seed    uint64
	special map[uint64]int // iteration -> 1 (set!) or 2 (exit)

	slots    uva.Addr // script texts
	out      uva.Addr // per-script result words
	printBuf uva.Addr // the "printed" output records
	printCur uva.Addr // print cursor (loop-carried)
	g        uva.Addr // the global environment variable
}

func newLiProg(in Input, tls bool) *liProg {
	n := uint64(liScripts * in.scale())
	p := &liProg{tls: tls, scripts: n, seed: in.Seed, special: make(map[uint64]int)}
	// Alternate environment writers and interpreter exits, deterministically.
	for i, iter := range misspecList(n, in.MisspecRate, in.Seed+4) {
		p.special[iter] = 1 + i%2
	}
	return p
}

// Lisp returns the Table 2 entry.
func Lisp() *Benchmark {
	return &Benchmark{
		Name:        "130.li",
		Suite:       "SPEC CINT 95",
		Description: "lisp interpreter",
		SpecTypes:   "CFS,MVS,MV",
		Invocations: 1,
		NewDSMTX:    func(in Input, _ int) Program { return newLiProg(in, false) },
		NewTLS:      func(in Input, _ int) Program { return newLiProg(in, true) },
	}
}

func (p *liProg) Plan() pipeline.Plan {
	if p.tls {
		return pipeline.TLS()
	}
	return pipeline.DSWP("Spec-DOALL", "S")
}

func (p *liProg) Iterations() uint64 { return p.scripts }

func (p *liProg) slotAddr(i uint64) uva.Addr { return p.slots + uva.Addr(i*liSlotBytes) }

// script generates the deterministic source text for one iteration.
func (p *liProg) script(iter uint64) string {
	switch p.special[iter] {
	case 1:
		return "(set! g (+ g 7))"
	case 2:
		return "(exit)"
	}
	r := newRNG(mix(p.seed, iter*131))
	switch r.intn(5) {
	case 0: // environment reader
		return fmt.Sprintf("(define (f n) (if (< n 2) n (+ (f (- n 1)) (f (- n 2))))) (+ (f %d) g)", 9+r.intn(3))
	case 1: // tail-recursive sum
		return fmt.Sprintf("(define (sum n acc) (if (= n 0) acc (sum (- n 1) (+ acc n)))) (sum %d 0)", 150+r.intn(100))
	default: // fibonacci tower
		return fmt.Sprintf("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2))))) (fib %d)", 9+r.intn(4))
	}
}

func (p *liProg) Setup(ctx *core.SeqCtx) {
	p.slots = ctx.Alloc(int64(p.scripts) * liSlotBytes)
	p.out = ctx.AllocWords(int(p.scripts))
	p.printBuf = ctx.Alloc(int64(p.scripts) * liLineBytes)
	p.printCur = ctx.AllocWords(1)
	p.g = ctx.AllocWords(1)
	if ctx.Shadow() {
		return
	}
	img := ctx.Image()
	for i := uint64(0); i < p.scripts; i++ {
		text := p.script(i)
		slot := make([]byte, liSlotBytes)
		copy(slot, text)
		img.StoreBytes(p.slotAddr(i), slot)
	}
	ctx.Store(p.g, 1000)
	ctx.Store(p.printCur, 0)
}

// env adapts the interpreter's global-variable access to either worker
// (transactional) or sequential memory.
type liEnv struct {
	getG func() int64
	setG func(int64)
	exit func() // invoked by (exit)
}

// interpret runs one script and reports the result and the eval-step count
// (the work measure).
func (p *liProg) interpret(src string, env liEnv) (result int64, steps int64) {
	it := &liInterp{env: env}
	forms := parseLisp(src)
	var v int64
	for _, f := range forms {
		v = it.eval(f, nil)
	}
	return v, it.steps
}

// formatLine renders the fixed-width output record the print stage emits.
func formatLine(iter uint64, v int64) []byte {
	line := make([]byte, liLineBytes)
	copy(line, fmt.Sprintf("%06d %d\n", iter, v))
	return line
}

func (p *liProg) Stage(ctx *core.Ctx, stage int, iter uint64) bool {
	if p.tls {
		return p.tlsStage(ctx, iter)
	}
	switch stage {
	case 0: // parallel: interpret the script transactionally
		if iter >= p.scripts {
			return false
		}
		src := string(ctx.LoadBytes(p.slotAddr(iter), liSlotBytes))
		env := liEnv{
			getG: func() int64 { return int64(ctx.Read(p.g)) },
			setG: func(v int64) { ctx.Write(p.g, uint64(v)) },
			exit: func() { ctx.Misspec() }, // speculated: no script exits
		}
		v, steps := p.interpret(src, env)
		ctx.Compute(steps * liInstrPerEval)
		ctx.WriteCommit(p.out+uva.Addr(iter*8), uint64(v))
		ctx.Produce(1, uint64(v))
	case 1: // sequential: print in order
		v := int64(ctx.Consume(0))
		cur := ctx.Load(p.printCur)
		ctx.Compute(800) // formatting
		ctx.WriteBytesCommit(p.printBuf+uva.Addr(cur), formatLine(iter, v))
		ctx.WriteCommit(p.printCur, cur+liLineBytes)
	}
	return true
}

func (p *liProg) tlsStage(ctx *core.Ctx, iter uint64) bool {
	if iter >= p.scripts {
		return false
	}
	src := string(ctx.LoadBytes(p.slotAddr(iter), liSlotBytes))
	env := liEnv{
		getG: func() int64 { return int64(ctx.Read(p.g)) },
		setG: func(v int64) { ctx.Write(p.g, uint64(v)) },
		exit: func() { ctx.Misspec() },
	}
	v, steps := p.interpret(src, env)
	ctx.Compute(steps * liInstrPerEval)
	ctx.WriteCommit(p.out+uva.Addr(iter*8), uint64(v))
	// The print is synchronized: the cursor token serializes formatting
	// and output across iterations.
	var cur uint64
	if ctx.EpochFirst() {
		cur = ctx.Load(p.printCur)
	} else {
		cur = ctx.SyncRecv()
	}
	ctx.Compute(liTLSPrintInstr)
	ctx.WriteBytesCommit(p.printBuf+uva.Addr(cur), formatLine(iter, v))
	ctx.WriteCommit(p.printCur, cur+liLineBytes)
	ctx.SyncSend(cur + liLineBytes)
	return true
}

func (p *liProg) SeqIter(ctx *core.SeqCtx, iter uint64) {
	src := string(ctx.LoadBytes(p.slotAddr(iter), liSlotBytes))
	exited := false
	env := liEnv{
		getG: func() int64 { return int64(ctx.Load(p.g)) },
		setG: func(v int64) { ctx.Store(p.g, uint64(v)) },
		exit: func() { exited = true },
	}
	v, steps := p.interpret(src, env)
	if exited {
		v = -1 // batch mode: (exit) is recorded, not fatal
	}
	ctx.Compute(steps * liInstrPerEval)
	ctx.Store(p.out+uva.Addr(iter*8), uint64(v))
	cur := ctx.Load(p.printCur)
	ctx.Compute(800)
	ctx.StoreBytes(p.printBuf+uva.Addr(cur), formatLine(iter, v))
	ctx.Store(p.printCur, cur+liLineBytes)
}

func (p *liProg) Checksum(img *mem.Image) uint64 {
	h := img.Load(p.g)
	h = mix(h, img.Load(p.printCur))
	h = mix(h, img.ChecksumRange(p.out, int(p.scripts)*8))
	h = mix(h, img.ChecksumRange(p.printBuf, int(p.scripts)*liLineBytes))
	return h
}

// --- the interpreter ---

// liInterp evaluates parsed forms. Functions are global (defined by
// (define (name args…) body)); locals are the active call's frame.
type liInterp struct {
	env   liEnv
	funcs map[string]liFunc
	steps int64
}

type liFunc struct {
	params []string
	body   any
}

type frame map[string]int64

func (it *liInterp) eval(form any, f frame) int64 {
	it.steps++
	switch v := form.(type) {
	case int64:
		return v
	case string:
		if f != nil {
			if val, ok := f[v]; ok {
				return val
			}
		}
		if v == "g" {
			return it.env.getG()
		}
		panic("li: unbound symbol " + v)
	case []any:
		return it.evalList(v, f)
	}
	panic(fmt.Sprintf("li: bad form %T", form))
}

func (it *liInterp) evalList(list []any, f frame) int64 {
	if len(list) == 0 {
		return 0
	}
	head, _ := list[0].(string)
	switch head {
	case "define":
		sig := list[1].([]any)
		name := sig[0].(string)
		var params []string
		for _, p := range sig[1:] {
			params = append(params, p.(string))
		}
		if it.funcs == nil {
			it.funcs = make(map[string]liFunc)
		}
		it.funcs[name] = liFunc{params: params, body: list[2]}
		return 0
	case "if":
		if it.eval(list[1], f) != 0 {
			return it.eval(list[2], f)
		}
		return it.eval(list[3], f)
	case "set!":
		v := it.eval(list[2], f)
		it.env.setG(v)
		return v
	case "exit":
		it.env.exit()
		return 0
	case "+", "-", "*", "<", "=":
		a := it.eval(list[1], f)
		b := it.eval(list[2], f)
		switch head {
		case "+":
			return a + b
		case "-":
			return a - b
		case "*":
			return a * b
		case "<":
			if a < b {
				return 1
			}
			return 0
		default:
			if a == b {
				return 1
			}
			return 0
		}
	}
	// Function application.
	fn, ok := it.funcs[head]
	if !ok {
		panic("li: undefined function " + head)
	}
	callFrame := make(frame, len(fn.params))
	for i, pname := range fn.params {
		callFrame[pname] = it.eval(list[i+1], f)
	}
	return it.eval(fn.body, callFrame)
}

// parseLisp tokenizes and parses source into a list of top-level forms.
func parseLisp(src string) []any {
	src = strings.ReplaceAll(src, "(", " ( ")
	src = strings.ReplaceAll(src, ")", " ) ")
	src = strings.TrimRight(src, "\x00")
	tokens := strings.Fields(src)
	var forms []any
	pos := 0
	for pos < len(tokens) {
		form, next := parseForm(tokens, pos)
		forms = append(forms, form)
		pos = next
	}
	return forms
}

func parseForm(tokens []string, pos int) (any, int) {
	tok := tokens[pos]
	if tok == "(" {
		var list []any
		pos++
		for tokens[pos] != ")" {
			var form any
			form, pos = parseForm(tokens, pos)
			list = append(list, form)
		}
		return list, pos + 1
	}
	if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return n, pos + 1
	}
	return tok, pos + 1
}
