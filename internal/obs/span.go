package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"rolag/internal/obs/fleet"
)

// SpanBounds are the span-duration histogram bucket upper bounds, in
// seconds. An implicit +Inf bucket (== Count) follows the last bound.
var SpanBounds = []float64{100e-9, 1e-6, 10e-6, 100e-6, 1e-3, 10e-3, 100e-3, 1}

// maxSpanClasses bounds the registry; classes are registered at
// package-init time (the four RoLAG phases today) and never removed.
const maxSpanClasses = 32

// SpanClass identifies one registered span kind whose durations are
// accumulated into a process-wide histogram when span stats are
// enabled (rolagd's rolagd_phase_seconds series and cmd/rolag-bench's
// per-phase percentiles both read these, so daemon and harness always
// agree on phase boundaries). The timed region also becomes a trace
// event when tracing is on.
type SpanClass int

var (
	classMu    sync.Mutex
	classCount atomic.Int32
	// classNames holds a copy-on-write snapshot of the registered names
	// so End can read it without taking classMu.
	classNames atomic.Value // []string
	// classTimes holds one histogram per possible class, built up front
	// so End never allocates or locks.
	classTimes = func() (hs [maxSpanClasses]*fleet.Hist) {
		for i := range hs {
			hs[i] = fleet.NewHist(SpanBounds)
		}
		return hs
	}()
)

// RegisterSpanClass registers a named span class and returns its
// handle. Registration is expected at init time; re-registering a name
// returns the existing handle. It panics when the registry is full.
func RegisterSpanClass(name string) SpanClass {
	classMu.Lock()
	defer classMu.Unlock()
	names, _ := classNames.Load().([]string)
	for i, n := range names {
		if n == name {
			return SpanClass(i)
		}
	}
	if len(names) >= maxSpanClasses {
		panic("obs: span class registry full")
	}
	next := append(append([]string(nil), names...), name)
	classNames.Store(next)
	classCount.Store(int32(len(next)))
	return SpanClass(len(next) - 1)
}

// Name returns the class's registered name.
func (c SpanClass) Name() string {
	names, _ := classNames.Load().([]string)
	if int(c) < len(names) {
		return names[c]
	}
	return "unknown"
}

// EnableSpanStats turns per-class duration accounting on or off
// process-wide. Disabled (the default), an instrumented site pays one
// atomic load. Safe for concurrent use.
func EnableSpanStats(on bool) { setGate(gateStats, on) }

// SpanStatsEnabled reports whether span stats are on.
func SpanStatsEnabled() bool { return gates.Load()&gateStats != 0 }

// ResetSpanStats zeroes the accumulated histograms.
func ResetSpanStats() {
	n := int(classCount.Load())
	for i := 0; i < n; i++ {
		classTimes[i].Reset()
	}
}

// SpanStat is the accumulated timing of one span class.
type SpanStat struct {
	Name  string
	Count uint64
	Nanos uint64
	// Hist is the class's duration histogram over SpanBounds.
	Hist fleet.HistSnapshot
}

// SpanStats returns a snapshot of every registered class's histogram,
// in registration order.
func SpanStats() []SpanStat {
	names, _ := classNames.Load().([]string)
	out := make([]SpanStat, len(names))
	for i, name := range names {
		h := classTimes[i].Snapshot()
		out[i] = SpanStat{Name: name, Count: uint64(h.Count), Nanos: uint64(classTimes[i].Sum()), Hist: h}
	}
	return out
}

// End closes a span opened with Now: it accumulates the duration into
// the class histogram (stats gate) and records a trace event under tr
// (trace gate). A zero start — Now with everything disabled — is a
// no-op, so call sites need no conditionals.
func (c SpanClass) End(tr TraceContext, start time.Time) {
	if start.IsZero() {
		return
	}
	g := gates.Load()
	if g == 0 {
		return
	}
	d := time.Since(start)
	if g&gateStats != 0 {
		classTimes[c].Observe(d)
	}
	if g&gateTrace != 0 && tr.Active() {
		tr.resolveRing().add(TraceEvent{Name: c.Name(), Trace: tr.ID, TID: tr.tid, Start: start, Dur: d, Parent: tr.parent})
	}
}

// EndSpan closes a free-form (unregistered) span opened with Now,
// recording it as a trace event only — engine requests, sandboxed pass
// executions, and pipeline stages use this; they want per-request
// timelines, not process-wide histograms. detail lands in the event's
// args (the function name, typically).
func EndSpan(tr TraceContext, name string, start time.Time, detail string) {
	if start.IsZero() || gates.Load()&gateTrace == 0 || !tr.Active() {
		return
	}
	tr.resolveRing().add(TraceEvent{Name: name, Trace: tr.ID, TID: tr.tid, Start: start, Dur: time.Since(start), Detail: detail, Parent: tr.parent})
}

// EndHopSpan closes a cross-process hop span: a span that was given its
// own span ID, which traveled downstream as the X-Trace-Parent header
// so the receiving process's spans attach under it in the stitched
// trace. status distinguishes outcomes ("ok", "error", or "canceled" —
// a hedge race's losing leg). Like EndSpan it ignores a zero start, so
// a disabled site pays one atomic load inside Now and nothing here.
func EndHopSpan(tr TraceContext, name string, start time.Time, spanID, detail, status string) {
	if start.IsZero() || gates.Load()&gateTrace == 0 || !tr.Active() {
		return
	}
	tr.resolveRing().add(TraceEvent{
		Name: name, Trace: tr.ID, TID: tr.tid,
		Start: start, Dur: time.Since(start),
		Detail: detail, Span: spanID, Parent: tr.parent, Status: status,
	})
}
