package passes

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"rolag/internal/faultpoint"
	"rolag/internal/ir"
	"rolag/internal/obs"
)

// SkipReason classifies why the fail-soft sandbox rolled back or
// refused one pass execution.
type SkipReason string

const (
	// SkipPanic: the pass panicked; the function was rolled back.
	SkipPanic SkipReason = "panic"
	// SkipTimeout: the pass exceeded its wall-clock budget.
	SkipTimeout SkipReason = "timeout"
	// SkipVerify: the pass produced IR the verifier rejects.
	SkipVerify SkipReason = "verify"
	// SkipError: the pass reported a failure (injected faults).
	SkipError SkipReason = "error"
	// SkipBreaker: the circuit breaker refused the pass without
	// attempting it.
	SkipBreaker SkipReason = "breaker"
)

// Skip records one pass execution that did not take effect. The
// function it names was left exactly as the previous pass produced it.
type Skip struct {
	// Pass is the pass name ("licm", and the pseudo-passes "rolag",
	// "reroll", "unroll", "flatten").
	Pass string
	// Func is the function the pass was running on.
	Func string
	// Reason is why the execution was discarded.
	Reason SkipReason
	// Detail is a human-readable explanation.
	Detail string
}

func (s Skip) String() string {
	return fmt.Sprintf("%s@%s: %s (%s)", s.Pass, s.Func, s.Reason, s.Detail)
}

// Degraded is the fail-soft report: which pass executions were skipped
// and why. A nil *Degraded means the compilation ran clean; a non-nil
// one means the output is correct but potentially larger than a fully
// healthy pipeline would have produced.
type Degraded struct {
	Skips []Skip
}

// Passes returns the sorted set of distinct skipped pass names.
func (d *Degraded) Passes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range d.Skips {
		if !seen[s.Pass] {
			seen[s.Pass] = true
			out = append(out, s.Pass)
		}
	}
	sort.Strings(out)
	return out
}

func (d *Degraded) String() string {
	var sb strings.Builder
	for i, s := range d.Skips {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(s.String())
	}
	return sb.String()
}

// Guard is consulted around every sandboxed pass execution. The service
// engine implements it with per-pass circuit breakers; a nil Guard
// allows everything.
type Guard interface {
	// Allow reports whether the pass may be attempted. A false return
	// makes the sandbox skip the pass outright (SkipBreaker).
	Allow(pass string) bool
	// Report feeds back the outcome of an attempted execution (true =
	// committed, false = rolled back). It is not called for executions
	// Allow refused.
	Report(pass string, ok bool)
}

// DefaultPassBudget is the per-pass wall-clock budget when
// Sandbox.Budget is zero. It is deliberately generous: on the paper's
// workloads every pass finishes in microseconds, so the budget exists
// only to cut wedged passes loose, not to police slow ones.
const DefaultPassBudget = 10 * time.Second

// Sandbox runs passes under checkpoint/rollback. Every execution is
// isolated from the committed function state: module-pure passes run
// against a shadow copy (ir.ShadowFunc) in a helper goroutine so a
// wedged pass can be abandoned without racing the pipeline, and
// module-appending passes (RoLAG's codegen creates constant-table
// globals) run in place behind a block snapshot and a globals
// high-water mark. In both modes the IR verifier is the commit gate:
// panic, budget overrun, or a verifier complaint discards the execution
// and the pipeline continues from the checkpoint with the pass skipped,
// recorded in the Report.
//
// A shadow execution whose pass reports no change commits nothing: the
// function keeps its (already verified) body, and the untouched shadow
// is kept as the spare copy for the next shadow execution on the same
// function, so a run of no-op passes clones and verifies nothing. A
// function must therefore change only through its sandbox between
// executions.
//
// A Sandbox is not safe for concurrent use; the service engine creates
// one per compilation job.
type Sandbox struct {
	// Budget is the per-pass wall-clock budget (0 = DefaultPassBudget).
	Budget time.Duration
	// Guard, when set, is consulted before and notified after every
	// execution (the service's circuit breakers).
	Guard Guard
	// Trace, when active and tracing is enabled, records every
	// sandboxed pass execution as a "pass:<name>" span on the request's
	// trace (rolagd's /debug/trace). The zero value records nothing.
	Trace obs.TraceContext

	report Degraded
	// spare is a shadow still identical to spareOf, left by the last
	// shadow execution that reported no change. Any other outcome, an
	// in-place run, or a run on another function drops it.
	spare, spareOf *ir.Func
}

func (s *Sandbox) budget() time.Duration {
	if s.Budget > 0 {
		return s.Budget
	}
	return DefaultPassBudget
}

// Report returns the accumulated degradation report, or nil if every
// pass took effect.
func (s *Sandbox) Report() *Degraded {
	if len(s.report.Skips) == 0 {
		return nil
	}
	return &s.report
}

// Absorb appends other's degradation report to s's and clears other.
// The parallel pipeline gives every concurrently-optimized function a
// private sandbox (a Sandbox is not safe for concurrent use) and then
// absorbs them into the job's sandbox in function order, so the
// aggregate report is deterministic and matches what a serial run over
// the same outcomes would have recorded.
func (s *Sandbox) Absorb(other *Sandbox) {
	s.report.Skips = append(s.report.Skips, other.report.Skips...)
	other.report.Skips = nil
}

// RunShadow executes a module-pure pass against a shadow copy of f and
// commits the shadow only if the pass returns within budget, does not
// panic, and leaves the function verifier-clean. It returns (changed,
// ok): ok reports that the execution was committed (so captured
// closure state may be read), changed is the pass's own report. On a
// timeout the helper goroutine is abandoned; it keeps mutating only the
// private shadow and exits when the pass returns.
//
// run must be honest about changes: when it returns false it must have
// left the function as it found it (names it drew from the function's
// name counter aside). Such an execution is committed without the
// verifier, f keeps its body and takes only the shadow's name counter,
// and the shadow becomes the spare the next execution on f starts from.
// f must therefore be verifier-clean on entry, which every pipeline
// entry point guarantees (frontend output and parsed IR are verified).
func (s *Sandbox) RunShadow(pass string, f *ir.Func, run func(*ir.Func) bool) (changed, ok bool) {
	if f.IsDecl() {
		return false, true
	}
	shadow := s.takeSpare(f)
	if !s.allow(pass, f) {
		return false, false
	}
	span := obs.Now()
	defer obs.EndSpan(s.Trace, "pass:"+pass, span, f.Name)
	if shadow == nil {
		shadow = ir.ShadowFunc(f)
	}
	type result struct {
		changed bool
		skip    *Skip
	}
	done := make(chan result, 1)
	go func() {
		var r result
		r.changed, r.skip = s.exec(pass, shadow, run)
		done <- r
	}()
	timer := time.NewTimer(s.budget())
	defer timer.Stop()
	select {
	case r := <-done:
		if r.skip != nil {
			s.fail(pass, *r.skip)
			return false, false
		}
		if !r.changed {
			s.ok(pass)
			f.AdoptNames(shadow)
			s.spare, s.spareOf = shadow, f
			return false, true
		}
		if err := shadow.Verify(); err != nil {
			s.fail(pass, Skip{Pass: pass, Func: f.Name, Reason: SkipVerify, Detail: err.Error()})
			return false, false
		}
		s.ok(pass)
		f.AdoptBody(shadow)
		return r.changed, true
	case <-timer.C:
		s.fail(pass, Skip{
			Pass: pass, Func: f.Name, Reason: SkipTimeout,
			Detail: fmt.Sprintf("exceeded %v budget; pass abandoned", s.budget()),
		})
		return false, false
	}
}

// RunInPlace executes a pass that may append globals to f's module
// (RoLAG). It snapshots the body and marks the module's globals, runs
// the pass in the calling goroutine with panic recovery, applies the
// budget after the fact (a stalled pass delays this one compilation but
// is still rolled back), verifies, and on any failure restores the
// snapshot and the globals mark. Global NAMES generated by a committed
// execution are identical to the fail-hard path because the pass runs
// against the real module. Returns (changed, ok) as RunShadow.
func (s *Sandbox) RunInPlace(pass string, f *ir.Func, run func(*ir.Func) bool) (changed, ok bool) {
	return s.RunInPlaceIn(pass, f, f.Parent, run)
}

// RunInPlaceIn is RunInPlace with the module that receives appended
// globals made explicit: the parallel pipeline stages each function's
// globals in a private sink module (see rolag.RollFuncInto), so the
// rollback mark must be taken on the sink rather than on f.Parent.
func (s *Sandbox) RunInPlaceIn(pass string, f *ir.Func, sink *ir.Module, run func(*ir.Func) bool) (changed, ok bool) {
	if f.IsDecl() {
		return false, true
	}
	snapshot := s.takeSpare(f)
	if !s.allow(pass, f) {
		return false, false
	}
	span := obs.Now()
	defer obs.EndSpan(s.Trace, "pass:"+pass, span, f.Name)
	if snapshot == nil {
		snapshot = ir.ShadowFunc(f)
	}
	gmark := sink.MarkGlobals()
	start := time.Now()
	changed, skip := s.exec(pass, f, run)
	if skip == nil {
		if elapsed := time.Since(start); elapsed > s.budget() {
			skip = &Skip{
				Pass: pass, Func: f.Name, Reason: SkipTimeout,
				Detail: fmt.Sprintf("ran %v, budget %v", elapsed.Round(time.Millisecond), s.budget()),
			}
		}
	}
	if skip == nil {
		if err := f.Verify(); err != nil {
			skip = &Skip{Pass: pass, Func: f.Name, Reason: SkipVerify, Detail: err.Error()}
		}
	}
	if skip != nil {
		f.AdoptBody(snapshot)
		sink.ResetGlobals(gmark)
		s.fail(pass, *skip)
		return false, false
	}
	s.ok(pass)
	return changed, true
}

// takeSpare hands out the spare if it was taken from f, and drops it
// either way: a copy given to an execution is never handed out again
// unless that execution returns it, so an abandoned goroutine's shadow
// is never reused.
func (s *Sandbox) takeSpare(f *ir.Func) *ir.Func {
	sh, of := s.spare, s.spareOf
	s.spare, s.spareOf = nil, nil
	if of != f {
		return nil
	}
	return sh
}

// exec runs the pass body with panic recovery and the pass-site fault
// point. target is the function the pass actually mutates (the shadow
// in RunShadow, f itself in RunInPlace).
func (s *Sandbox) exec(pass string, target *ir.Func, run func(*ir.Func) bool) (changed bool, skip *Skip) {
	defer func() {
		if r := recover(); r != nil {
			changed = false
			skip = &Skip{Pass: pass, Func: target.Name, Reason: SkipPanic, Detail: fmt.Sprint(r)}
		}
	}()
	switch faultpoint.Fire("pass:"+pass,
		faultpoint.KindPanic, faultpoint.KindStall, faultpoint.KindError, faultpoint.KindCorrupt) {
	case faultpoint.KindPanic:
		panic("faultpoint: injected panic at pass:" + pass)
	case faultpoint.KindError:
		return false, &Skip{Pass: pass, Func: target.Name, Reason: SkipError, Detail: "injected pass error"}
	case faultpoint.KindCorrupt:
		// The body was damaged whatever the pass did: report a change
		// so the commit gate verifies it.
		run(target)
		corruptBody(target)
		return true, nil
	}
	// KindStall already slept inside Fire; the pass still runs so an
	// absorbed stall (shorter than the budget) degrades nothing.
	return run(target), nil
}

// corruptBody damages the function in a way the verifier is guaranteed
// to reject: it drops the last instruction of the final block, leaving
// the block unterminated.
func corruptBody(f *ir.Func) {
	if len(f.Blocks) == 0 {
		return
	}
	b := f.Blocks[len(f.Blocks)-1]
	if n := len(b.Instrs); n > 0 {
		b.Instrs = b.Instrs[:n-1]
	}
}

func (s *Sandbox) allow(pass string, f *ir.Func) bool {
	if s.Guard == nil || s.Guard.Allow(pass) {
		return true
	}
	s.report.Skips = append(s.report.Skips, Skip{
		Pass: pass, Func: f.Name, Reason: SkipBreaker, Detail: "circuit breaker open",
	})
	return false
}

func (s *Sandbox) fail(pass string, sk Skip) {
	s.report.Skips = append(s.report.Skips, sk)
	if s.Guard != nil {
		s.Guard.Report(pass, false)
	}
}

func (s *Sandbox) ok(pass string) {
	if s.Guard != nil {
		s.Guard.Report(pass, true)
	}
}
