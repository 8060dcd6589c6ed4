package fuzzgen

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"strings"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/cc"
	"rolag/internal/costmodel"
	"rolag/internal/interp"
	"rolag/internal/ir"
	"rolag/internal/passes"
)

// Failure classes, in roughly increasing order of severity.
const (
	// ClassCompile: the frontend rejected the program (only reported
	// when the oracle requires compilation, i.e. for generated inputs).
	ClassCompile = "compile"
	// ClassVerify: the IR verifier rejected a module mid-pipeline, a
	// transformation itself returned an error, or a pass that reported
	// no change changed the function.
	ClassVerify = "verify"
	// ClassEquiv: a transformed module behaves differently from the
	// original under the interpreter — a miscompile.
	ClassEquiv = "equiv"
	// ClassCost: a Result's claimed sizes disagree with re-measuring
	// its module under the cost models — a dishonest report.
	ClassCost = "cost"
	// ClassPanic: some stage panicked.
	ClassPanic = "panic"
	// ClassRemark: the optimization remarks disagree with what the
	// pipeline actually did — a "rolled" remark without a rolled loop in
	// the output, or vice versa.
	ClassRemark = "remark"
	// ClassBackend: the x86-64 backend rejected a module the pipeline
	// produced, or encoding the same module twice yielded different
	// bytes. Determinism here is what lets the serial and parallel
	// service pipelines report identical per-function byte counts.
	ClassBackend = "backend"
)

// Failure describes one oracle-detected defect.
type Failure struct {
	// Class is one of the Class* constants.
	Class string
	// Variant names the pipeline variant that exposed the defect
	// ("" when the defect precedes variant processing).
	Variant string
	// Detail is a human-readable explanation.
	Detail string
}

func (f *Failure) Error() string {
	if f.Variant == "" {
		return fmt.Sprintf("[%s] %s", f.Class, f.Detail)
	}
	return fmt.Sprintf("[%s] %s: %s", f.Class, f.Variant, f.Detail)
}

// SameBug reports whether two failures are the same defect for
// reduction purposes: identical class and variant.
func (f *Failure) SameBug(g *Failure) bool {
	return g != nil && f.Class == g.Class && f.Variant == g.Variant
}

// Variant is one pipeline configuration the oracle runs every program
// through.
type Variant struct {
	// Name identifies the variant in Failure reports.
	Name string
	// Unroll, Opt, Options, Flatten mirror rolag.Config.
	Unroll  int
	Opt     rolag.Optimization
	Options *rolag.Options
	Flatten bool
}

// DefaultVariants returns the standard differential matrix: RoLAG under
// its paper defaults, with extensions, with profitability disabled
// (AlwaysRoll stresses correctness of every candidate roll, not just
// the profitable ones), the TSVC-style unroll-then-roll-then-flatten
// pipeline, and the LLVM reroll baseline.
func DefaultVariants() []Variant {
	always := rolag.DefaultOptions()
	always.AlwaysRoll = true
	return []Variant{
		{Name: "rolag", Opt: rolag.OptRoLAG},
		{Name: "rolag-ext", Opt: rolag.OptRoLAG, Options: rolag.Extensions()},
		{Name: "rolag-always", Opt: rolag.OptRoLAG, Options: always},
		{Name: "unroll8-flatten", Unroll: 8, Opt: rolag.OptRoLAG, Flatten: true},
		{Name: "llvm-reroll", Opt: rolag.OptLLVMReroll},
	}
}

// Oracle drives one program through the full differential pipeline.
// The zero value is ready to use with strict compilation.
type Oracle struct {
	// Seeds is the number of interpreter input vectors per function
	// (default 3).
	Seeds int
	// MaxSteps bounds each interpreter run (default 2M).
	MaxSteps int64
	// SkipCompileErrors makes frontend rejections a skip instead of a
	// ClassCompile failure; set for mutated or free-form inputs.
	SkipCompileErrors bool
	// Variants overrides DefaultVariants when non-nil.
	Variants []Variant
}

func (o *Oracle) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	return 3
}

func (o *Oracle) maxSteps() int64 {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return 2_000_000
}

func (o *Oracle) variants() []Variant {
	if o.Variants != nil {
		return o.Variants
	}
	return DefaultVariants()
}

// runResult is one baseline interpreter observation (or trap).
type runResult struct {
	obs *interp.Observation
	err error
}

// Check runs src through the whole differential pipeline: compile,
// canonicalize with verification after every pass, then for each
// variant transform, re-verify, check cost-model honesty, and compare
// interpreter behaviour against the canonical module on seeded inputs.
// It returns the first Failure found (nil if the program is clean) and
// whether the input exercised the pipeline at all (false when a
// non-compiling input was skipped).
func (o *Oracle) Check(src string) (fail *Failure, exercised bool) {
	defer func() {
		if r := recover(); r != nil {
			fail = &Failure{Class: ClassPanic, Detail: fmt.Sprintf("%v\n%s", r, debug.Stack())}
			exercised = true
		}
		if fail != nil {
			countFailure(fail.Class)
		}
	}()

	m, err := cc.Compile(src, "fuzz")
	if err != nil {
		if o.SkipCompileErrors {
			counters.skipped.Add(1)
			return nil, false
		}
		counters.execs.Add(1)
		return &Failure{Class: ClassCompile, Detail: err.Error()}, true
	}
	counters.execs.Add(1)
	exercised = true

	if err := m.Verify(); err != nil {
		return &Failure{Class: ClassVerify, Variant: "frontend", Detail: err.Error()}, true
	}
	// Canonicalize with the verifier run after every single pass, so a
	// verifier complaint names the pass that broke the module.
	if f := runPipelineVerified(m, "canon"); f != nil {
		return f, true
	}

	// Baseline observations of the canonical module.
	h := &interp.Harness{MaxSteps: o.maxSteps()}
	base := map[string][]runResult{}
	for _, fn := range m.Funcs {
		if fn.IsDecl() {
			continue
		}
		rs := make([]runResult, o.seeds())
		for s := range rs {
			obs, err := h.Run(m, fn.Name, int64(s)+1)
			rs[s] = runResult{obs: obs, err: err}
		}
		base[fn.Name] = rs
	}

	for _, v := range o.variants() {
		cfg := rolag.Config{
			Name:       "fuzz",
			Unroll:     v.Unroll,
			Opt:        v.Opt,
			Options:    v.Options,
			Flatten:    v.Flatten,
			CloneInput: true,
		}
		res, err := rolag.Optimize(m, cfg)
		if err != nil {
			return &Failure{Class: ClassVerify, Variant: v.Name, Detail: err.Error()}, true
		}
		if f := o.checkCost(v, m, res); f != nil {
			return f, true
		}
		if f := checkBackend(v.Name, res.Module); f != nil {
			return f, true
		}
		if f := o.checkEquiv(v.Name, m, res.Module, base, h); f != nil {
			return f, true
		}
	}

	// Fine-grained post-roll verification: re-run the default RoLAG
	// variant without cleanup (and with remarks on), then apply the
	// cleanup pipeline one pass at a time with the verifier between, so
	// breakage inside the cleanup sequence is attributed to the
	// responsible pass.
	res, err := rolag.Optimize(m, rolag.Config{Name: "fuzz", Opt: rolag.OptRoLAG, SkipCleanup: true, CloneInput: true, Remarks: true})
	if err != nil {
		return &Failure{Class: ClassVerify, Variant: "rolag-nocleanup", Detail: err.Error()}, true
	}
	// Remark honesty: a "rolled" remark exists iff the output actually
	// contains a rolled loop. Cleanup is skipped, so every roll.loop
	// block codegen created is still present to count.
	if f := checkRemarks(res); f != nil {
		return f, true
	}
	if f := runPipelineVerified(res.Module, "postroll"); f != nil {
		return f, true
	}
	if f := checkBackend("rolag-stepwise", res.Module); f != nil {
		return f, true
	}
	if f := o.checkEquiv("rolag-stepwise", m, res.Module, base, h); f != nil {
		return f, true
	}
	return nil, true
}

// checkBackend asserts every pipeline output lowers and encodes through
// the x86-64 backend, and that two independent backend runs over the
// same module produce byte-identical machine code. The engine's serial
// and parallel pipelines both hand their output modules to this
// backend, so per-module determinism is exactly the contract that makes
// their reported byte counts interchangeable.
func checkBackend(variant string, m *ir.Module) *Failure {
	r1, err := backend.Compile(m, nil)
	if err != nil {
		return &Failure{Class: ClassBackend, Variant: variant, Detail: err.Error()}
	}
	r2, err := backend.Compile(m, nil)
	if err != nil {
		return &Failure{Class: ClassBackend, Variant: variant,
			Detail: fmt.Sprintf("second compile of the same module failed: %v", err)}
	}
	if r1.Code.Text != r2.Code.Text || r1.Code.Rodata != r2.Code.Rodata {
		return &Failure{Class: ClassBackend, Variant: variant,
			Detail: fmt.Sprintf("nondeterministic section sizes: text %d vs %d, rodata %d vs %d",
				r1.Code.Text, r2.Code.Text, r1.Code.Rodata, r2.Code.Rodata)}
	}
	for name, fc := range r1.Code.Funcs {
		fc2 := r2.Code.Funcs[name]
		if fc2 == nil {
			return &Failure{Class: ClassBackend, Variant: variant,
				Detail: fmt.Sprintf("@%s encoded once but not twice", name)}
		}
		if !bytes.Equal(fc.Bytes, fc2.Bytes) {
			return &Failure{Class: ClassBackend, Variant: variant,
				Detail: fmt.Sprintf("@%s: nondeterministic encoding (%d vs %d bytes)", name, len(fc.Bytes), len(fc2.Bytes))}
		}
	}
	return nil
}

// checkRemarks asserts the remark stream is an honest record of the
// compilation: the number of "rolled" remarks must equal both the
// Stats.LoopsRolled claim and the number of roll.loop blocks codegen
// left in the (cleanup-free) output module.
func checkRemarks(res *rolag.Result) *Failure {
	rolledRemarks := 0
	for _, r := range res.Remarks {
		if r.Pass == "rolag" && r.Name == "rolled" {
			rolledRemarks++
		}
	}
	claimed := 0
	if res.Stats != nil {
		claimed = res.Stats.LoopsRolled
	}
	loops := 0
	for _, fn := range res.Module.Funcs {
		for _, b := range fn.Blocks {
			if strings.HasPrefix(b.Name, "roll.loop") {
				loops++
			}
		}
	}
	if rolledRemarks != claimed || rolledRemarks != loops {
		return &Failure{Class: ClassRemark, Variant: "rolag-nocleanup",
			Detail: fmt.Sprintf("%d rolled remarks, Stats.LoopsRolled %d, %d roll.loop blocks in output",
				rolledRemarks, claimed, loops)}
	}
	return nil
}

// runPipelineVerified applies the standard pipeline pass by pass,
// verifying the module after each one and holding each pass to its
// change report: the fail-soft sandbox commits an execution that
// reported no change without verifying or adopting it, so a pass that
// returns false must leave the printed function as it found it.
func runPipelineVerified(m *ir.Module, stage string) *Failure {
	for i, p := range passes.Standard().Passes {
		variant := fmt.Sprintf("%s/%s#%d", stage, p.Name, i)
		for _, fn := range m.Funcs {
			if fn.IsDecl() {
				continue
			}
			before := fn.String()
			if !p.Run(fn) && fn.String() != before {
				return &Failure{Class: ClassVerify, Variant: variant,
					Detail: fmt.Sprintf("@%s: pass reported no change but changed the function", fn.Name)}
			}
		}
		if err := m.Verify(); err != nil {
			return &Failure{Class: ClassVerify, Variant: variant, Detail: err.Error()}
		}
	}
	return nil
}

// checkCost asserts that the Result's claimed sizes match re-measuring
// its module under both cost models — the honesty invariant the
// service's cache and the paper's reported reductions both depend on.
func (o *Oracle) checkCost(v Variant, orig *ir.Module, res *rolag.Result) *Failure {
	if got := costmodel.Default().Module(res.Module); got != res.SizeAfter {
		return &Failure{Class: ClassCost, Variant: v.Name,
			Detail: fmt.Sprintf("SizeAfter claims %d, module measures %d", res.SizeAfter, got)}
	}
	if got := costmodel.Binary().Module(res.Module); got != res.BinaryAfter {
		return &Failure{Class: ClassCost, Variant: v.Name,
			Detail: fmt.Sprintf("BinaryAfter claims %d, module measures %d", res.BinaryAfter, got)}
	}
	if v.Unroll < 2 {
		// Without unrolling, "before" is the untouched input module.
		if got := costmodel.Default().Module(orig); got != res.SizeBefore {
			return &Failure{Class: ClassCost, Variant: v.Name,
				Detail: fmt.Sprintf("SizeBefore claims %d, input measures %d", res.SizeBefore, got)}
		}
		if got := costmodel.Binary().Module(orig); got != res.BinaryBefore {
			return &Failure{Class: ClassCost, Variant: v.Name,
				Detail: fmt.Sprintf("BinaryBefore claims %d, input measures %d", res.BinaryBefore, got)}
		}
	}
	return nil
}

// checkEquiv compares the transformed module against the baseline
// observations, function by function and seed by seed.
//
// Trap policy (matching interp.CheckEquiv): a seed on which the
// original traps is skipped — the trapping conditions are undefined
// behaviour in the source language, and legal transformations may both
// remove a trap (DCE of an unused faulting load) and reorder which
// trap fires first, so nothing is checkable once the baseline faults.
// A transformed module failing where the original succeeded is always
// a miscompile.
func (o *Oracle) checkEquiv(variant string, orig, xform *ir.Module, base map[string][]runResult, h *interp.Harness) *Failure {
	for _, fn := range orig.Funcs {
		if fn.IsDecl() {
			continue
		}
		for s, br := range base[fn.Name] {
			seed := int64(s) + 1
			if br.err != nil {
				continue
			}
			xobs, xerr := h.Run(xform, fn.Name, seed)
			if xerr != nil {
				return &Failure{Class: ClassEquiv, Variant: variant,
					Detail: fmt.Sprintf("@%s seed %d: transformed fails (%v) where original succeeds", fn.Name, seed, xerr)}
			}
			if err := interp.Equivalent(br.obs, xobs); err != nil {
				return &Failure{Class: ClassEquiv, Variant: variant,
					Detail: fmt.Sprintf("@%s seed %d: %v", fn.Name, seed, err)}
			}
		}
	}
	return nil
}
