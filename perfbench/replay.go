package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/backend/encode"
	"rolag/internal/backend/mach"
	"rolag/internal/cc"
	"rolag/internal/costmodel"
	"rolag/internal/ir"
	"rolag/internal/obs"
	"rolag/internal/passes"
	rl "rolag/internal/rolag"
	"rolag/internal/unroll"
)

// pipeline is the compile a workload serves, as the replay and the
// oracle need to know it.
type pipeline struct {
	unroll   int
	flatten  bool
	failSoft bool // rolagd's served default: every pass sandboxed
	lower    bool // lower and encode machine code
	asm      bool // also print the assembly text (format=asm)
	printIR  bool // the served path prints the IR (rolagd responses)
}

func (pc pipeline) config(name string) rolag.Config {
	return rolag.Config{Name: name, Opt: rolag.OptRoLAG, Unroll: pc.unroll, Flatten: pc.flatten, FailSoft: pc.failSoft}
}

// span is one timed call into a module's public function during the
// traced replay. Spans of one input share Req; Parent is the enclosing
// span's ID (0 for the input's root span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`

	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends. Sandboxed passes run
// on a helper goroutine, strictly nested inside the caller's span, so a
// mutex-guarded stack gives every span its parent.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(req int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, start: time.Now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(req int, name string, f func()) {
	id := t.begin(req, name)
	f()
	t.end(id)
}

// selfTimes sums, per span name, each span's duration minus the time
// its direct children cover. Children never overlap: the replay is
// serial.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Name] += s.dur() - child[s.ID]
	}
	return self
}

// write stores the spans as JSON for offline inspection.
func (t *tracer) write(path string) error {
	for i := range t.spans {
		s := &t.spans[i]
		s.StartUs = s.start.Sub(t.epoch).Microseconds()
		s.EndUs = s.end.Sub(t.epoch).Microseconds()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replayed is what one staged replay produced and counted.
type replayed struct {
	irHash, asmHash [32]byte
	code            *encode.ModuleCode
	stats           *rl.Stats
	passRuns        int // canonicalization and flatten executions
	passChanged     int
	sandboxRuns     int
	sandboxSkips    int
	instrsCC        int
	instrsPasses    int
	instrsUnroll    int
	instrsFinal     int
}

func countInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// replay compiles one input by calling each module's public functions
// in the order rolag.BuildContext and the rolagd engine call them
// (serially, as with Parallelism 0), timing every call as a span.
// Under fail-soft each execution runs inside passes.Sandbox exactly as
// served, so the sandbox's own cost is the sandbox span's self time.
func replay(t *tracer, req int, src, name string, pc pipeline) (*replayed, error) {
	out := &replayed{stats: rl.NewStats()}
	root := t.begin(req, "request")
	defer t.end(root)

	var sb *passes.Sandbox
	if pc.failSoft {
		sb = &passes.Sandbox{}
	}
	// exec runs one per-function transformation under its layer span,
	// inside a sandbox span when the workload is fail-soft. inPlace
	// selects RunInPlaceIn (RoLAG appends globals to the module).
	exec := func(layer, sbName string, f *ir.Func, m *ir.Module, inPlace bool, run func(*ir.Func) bool) bool {
		inner := func(g *ir.Func) (c bool) {
			t.do(req, layer, func() { c = run(g) })
			return c
		}
		if sb == nil {
			inner(f)
			return true
		}
		out.sandboxRuns++
		var ok bool
		t.do(req, "passes.sandbox", func() {
			if inPlace {
				_, ok = sb.RunInPlaceIn(sbName, f, m, inner)
			} else {
				_, ok = sb.RunShadow(sbName, f, inner)
			}
		})
		return ok
	}
	pass := func(layer, sbName string, f *ir.Func, run func(*ir.Func) bool) {
		exec(layer, sbName, f, nil, false, func(g *ir.Func) bool {
			c := run(g)
			out.passRuns++
			if c {
				out.passChanged++
			}
			return c
		})
	}
	forFuncs := func(m *ir.Module, fn func(*ir.Func)) {
		for _, f := range m.Funcs {
			if !f.IsDecl() {
				fn(f)
			}
		}
	}
	canon := func(m *ir.Module) {
		forFuncs(m, func(f *ir.Func) {
			for _, ps := range passes.Standard().Passes {
				pass("passes."+ps.Name, ps.Name, f, ps.Run)
			}
		})
	}
	verify := func(m *ir.Module) (err error) {
		t.do(req, "ir.verify", func() { err = m.Verify() })
		return err
	}
	sizes := func(m *ir.Module) {
		t.do(req, "costmodel", func() { costmodel.Default().Module(m); costmodel.Binary().Module(m) })
	}

	var m *ir.Module
	var err error
	t.do(req, "cc", func() { m, err = cc.Compile(src, name) })
	if err != nil {
		return nil, err
	}
	out.instrsCC = countInstrs(m)
	if sb == nil {
		canon(m)
		err = verify(m)
	} else {
		err = verify(m)
		canon(m)
	}
	if err != nil {
		return nil, err
	}
	out.instrsPasses = countInstrs(m)
	if pc.unroll >= 2 {
		forFuncs(m, func(f *ir.Func) {
			exec("unroll", "unroll", f, nil, false, func(g *ir.Func) bool { return unroll.UnrollAll(g, pc.unroll) > 0 })
		})
		out.instrsUnroll = countInstrs(m)
		canon(m)
		if sb == nil {
			if err := verify(m); err != nil {
				return nil, err
			}
		}
	}
	sizes(m)
	opts := rl.DefaultOptions()
	forFuncs(m, func(f *ir.Func) {
		var st *rl.Stats
		if exec("rolag", "rolag", f, m, true, func(g *ir.Func) bool {
			st = rl.RollFuncInto(g, opts, nil, m, nil)
			return st.LoopsRolled > 0
		}) && st != nil {
			out.stats.Add(st)
		}
	})
	if pc.flatten {
		forFuncs(m, func(f *ir.Func) { pass("passes.flatten", "flatten", f, passes.Flatten) })
	}
	canon(m)
	if err := verify(m); err != nil {
		return nil, err
	}
	sizes(m)
	out.instrsFinal = countInstrs(m)
	if sb != nil {
		if rep := sb.Report(); rep != nil {
			out.sandboxSkips = len(rep.Skips)
		}
	}

	if pc.lower {
		var mm *mach.Module
		t.do(req, "backend.lower", func() { mm, err = backend.Lower(m, nil) })
		if err != nil {
			return nil, err
		}
		t.do(req, "backend.encode", func() { out.code, err = backend.Encode(mm, nil) })
		if err != nil {
			return nil, err
		}
		if pc.asm {
			var asm string
			t.do(req, "backend.asm", func() { asm = (&backend.Result{Mach: mm, Code: out.code}).Asm() })
			out.asmHash = sha256.Sum256([]byte(asm))
		}
	}
	var text string
	if pc.printIR {
		t.do(req, "ir.print", func() { text = m.String() })
	} else {
		// The offline path never prints; this print only feeds the
		// parity check, outside every layer span.
		text = m.String()
	}
	out.irHash = sha256.Sum256([]byte(text))
	return out, nil
}

// direct runs the same compile through the public entry points the
// workload serves, untraced: the wall time the layers must add up to.
func direct(src, name string, pc pipeline) error {
	res, err := rolag.BuildContext(context.Background(), src, pc.config(name))
	if err != nil {
		return err
	}
	if pc.lower {
		br, err := backend.Compile(res.Module, nil)
		if err != nil {
			return err
		}
		if pc.asm {
			_ = br.Asm()
		}
	}
	if pc.printIR {
		_ = res.Module.String()
	}
	return nil
}

// replayInput is one distinct input of the traced run with what the
// timed run served for it.
type replayInput struct {
	src, name string
	// irHash is the served IR (for the offline workload, the fail-hard
	// rolag.Build IR the oracle printed).
	irHash [32]byte
	// asmHash is the served assembly (format=asm workloads only).
	asmHash [32]byte
	// code is the served machine code's digest (offline workload only).
	code [32]byte
}

// layerSpans are the span names that are layers; each feeds its
// <name>.ms_per_fn metric and a row of the table.
var layerSpans = []string{
	"cc", "passes.mem2reg", "passes.constfold", "passes.simplify", "passes.ifconvert",
	"passes.cse", "passes.licm", "passes.dce", "passes.flatten", "passes.sandbox",
	"unroll", "rolag", "costmodel", "ir.verify", "backend.lower", "backend.encode",
	"backend.asm", "ir.print",
}

// rolagPhases are the RoLAG sub-phases, read from obs.SpanStats.
var rolagPhases = []string{"seed", "align", "schedule", "codegen"}

// codeDigest identifies encoded machine code: every function's name
// and bytes in module order, and the section sizes.
func codeDigest(c *encode.ModuleCode) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "text=%d rodata=%d\n", c.Text, c.Rodata)
	for _, name := range c.FuncOrder {
		fmt.Fprintf(h, "%s:%d:", name, len(c.Funcs[name].Bytes))
		h.Write(c.Funcs[name].Bytes)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func phaseNanos() map[string]uint64 {
	out := map[string]uint64{}
	for _, s := range obs.SpanStats() {
		out[s.Name] = s.Nanos
	}
	return out
}

// traceReplay runs the traced replay over inputs, alternating each
// input's replay with its untraced direct compile, fills the per-layer
// metrics and table, and returns each input's replayed pipeline time.
// It refuses to report layers unless every replay reproduced what was
// served, byte for byte.
func traceReplay(res *result, inputs []replayInput, pc pipeline, spanPath string) ([]float64, error) {
	obs.EnableSpanStats(true)
	defer obs.EnableSpanStats(false)
	t := newTracer()
	phases := map[string]uint64{}
	pipeMs := make([]float64, len(inputs))
	var directWall, replayWall time.Duration
	agg := struct {
		stats                                 *rl.Stats
		passRuns, passChanged, sbRuns, sbSkip int
		cc, passes, unroll, final             int
		rodata                                int64
	}{stats: rl.NewStats()}
	parityBroken := 0
	for i, in := range inputs {
		doDirect := func() error {
			st := time.Now()
			err := direct(in.src, in.name, pc)
			directWall += time.Since(st)
			return err
		}
		// Alternate which side runs first so neither always finds the
		// other's warm caches.
		if i%2 == 0 {
			if err := doDirect(); err != nil {
				return nil, fmt.Errorf("direct compile of %s: %w", in.name, err)
			}
		}
		before := phaseNanos()
		st := time.Now()
		rp, err := replay(t, i, in.src, in.name, pc)
		wall := time.Since(st)
		if err != nil {
			return nil, fmt.Errorf("replay of %s: %w", in.name, err)
		}
		after := phaseNanos()
		for _, p := range rolagPhases {
			phases[p] += after[p] - before[p]
		}
		if i%2 == 1 {
			if err := doDirect(); err != nil {
				return nil, fmt.Errorf("direct compile of %s: %w", in.name, err)
			}
		}
		replayWall += wall
		pipeMs[i] = ms(wall)

		if rp.irHash != in.irHash || (pc.asm && rp.asmHash != in.asmHash) || (in.code != [32]byte{} && codeDigest(rp.code) != in.code) {
			parityBroken++
			res.problem("replay parity: the staged replay of %s does not reproduce the served output", in.name)
		}
		agg.stats.Add(rp.stats)
		agg.passRuns += rp.passRuns
		agg.passChanged += rp.passChanged
		agg.sbRuns += rp.sandboxRuns
		agg.sbSkip += rp.sandboxSkips
		agg.cc += rp.instrsCC
		agg.passes += rp.instrsPasses
		agg.unroll += rp.instrsUnroll
		agg.final += rp.instrsFinal
		if rp.code != nil {
			agg.rodata += rp.code.Rodata
		}
	}
	if err := t.write(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if parityBroken > 0 {
		return nil, fmt.Errorf("%w: %d of %d inputs differ; no per-layer table", errParity, parityBroken, len(inputs))
	}

	n := float64(len(inputs))
	self := t.selfTimes()
	var layerSum time.Duration
	for _, l := range layerSpans {
		layerSum += self[l]
		res.layers[l+".ms_per_fn"] = ms(self[l]) / n
		res.table = append(res.table, tableRow{layer: l, msPerFn: ms(self[l]) / n, shareWall: float64(self[l]) / float64(directWall)})
	}
	for _, p := range rolagPhases {
		res.layers["rolag."+p+".ms_per_fn"] = float64(phases[p]) / 1e6 / n
	}
	st := agg.stats
	res.layers["rolag.seed_groups"] = float64(st.SeedGroups)
	res.layers["rolag.graphs_built"] = float64(st.GraphsBuilt)
	res.layers["rolag.schedule_failed"] = float64(st.ScheduleFailed)
	res.layers["rolag.not_profitable"] = float64(st.NotProfitable)
	res.layers["rolag.loops_rolled"] = float64(st.LoopsRolled)
	res.layers["rolag.roll_yield"] = 0
	if st.GraphsBuilt > 0 {
		res.layers["rolag.roll_yield"] = float64(st.LoopsRolled) / float64(st.GraphsBuilt)
	}
	res.layers["passes.changed_frac"] = float64(agg.passChanged) / float64(max(agg.passRuns, 1))
	res.layers["passes.instrs_out"] = float64(agg.passes) / n
	res.layers["passes.sandbox.runs"] = float64(agg.sbRuns)
	res.layers["passes.sandbox.skips"] = float64(agg.sbSkip)
	res.layers["unroll.instrs_out"] = float64(agg.unroll) / n
	res.layers["cc.instrs_out"] = float64(agg.cc) / n
	res.layers["ir.instrs_final"] = float64(agg.final) / n
	res.layers["backend.rodata_bytes"] = float64(agg.rodata)
	unattributed := directWall - layerSum
	res.layers["bench.unattributed_frac"] = float64(unattributed) / float64(directWall)
	res.layers["bench.trace_overhead_frac"] = float64(replayWall)/float64(directWall) - 1
	res.table = append(res.table,
		tableRow{layer: "unattributed", msPerFn: ms(unattributed) / n, shareWall: float64(unattributed) / float64(directWall)},
		tableRow{layer: "(untraced pipeline wall)", msPerFn: ms(directWall) / n, shareWall: 1},
		tableRow{layer: "(traced replay wall)", msPerFn: ms(replayWall) / n, shareWall: float64(replayWall) / float64(directWall)},
	)
	return pipeMs, nil
}

var errParity = errors.New("replay parity")
