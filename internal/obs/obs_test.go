package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// The tests mutate package-global gates and buffers; disabled() puts
// everything back to the default-off state so ordering between tests
// does not matter.
func disabled(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		EnableSpanStats(false)
		EnableTracing(false)
		ResetSpanStats()
		SetTraceCapacity(0)
	})
	EnableSpanStats(false)
	EnableTracing(false)
	ResetSpanStats()
	SetTraceCapacity(0)
}

var testClass = RegisterSpanClass("test-phase")

// TestDisabledIsFree pins the package's core contract: with every gate
// off, Now returns the zero time, End/EndSpan are no-ops, and the whole
// instrumented sequence allocates nothing.
func TestDisabledIsFree(t *testing.T) {
	disabled(t)
	if st := Now(); !st.IsZero() {
		t.Errorf("Now() with gates off = %v, want zero time", st)
	}
	avg := testing.AllocsPerRun(200, func() {
		st := Now()
		testClass.End(TraceContext{}, st)
		EndSpan(TraceContext{}, "free-form", st, "detail")
	})
	if avg != 0 {
		t.Errorf("disabled instrumented site allocates %.2f/op, want 0", avg)
	}
	for _, st := range SpanStats() {
		if st.Count != 0 || st.Nanos != 0 {
			t.Errorf("disabled End accumulated into %q: %+v", st.Name, st)
		}
	}
	if evs := TraceEvents(); len(evs) != 0 {
		t.Errorf("disabled EndSpan buffered %d trace events", len(evs))
	}
}

// TestSpanStatsAccumulate: with the stats gate on, a closed span lands
// in its class histogram with a plausible duration and bucket.
func TestSpanStatsAccumulate(t *testing.T) {
	disabled(t)
	EnableSpanStats(true)
	if !SpanStatsEnabled() {
		t.Fatal("SpanStatsEnabled() = false after EnableSpanStats(true)")
	}
	// Backdate the start so the duration is at least 5ms regardless of
	// scheduling noise; that pins which buckets must stay empty.
	testClass.End(TraceContext{}, time.Now().Add(-5*time.Millisecond))
	var got *SpanStat
	for i, st := range SpanStats() {
		if st.Name == "test-phase" {
			got = &SpanStats()[i]
		}
	}
	if got == nil {
		t.Fatal("test-phase missing from SpanStats()")
	}
	if got.Count != 1 {
		t.Fatalf("Count = %d, want 1", got.Count)
	}
	if got.Nanos < 5_000_000 {
		t.Errorf("Nanos = %d, want >= 5ms", got.Nanos)
	}
	// 5ms cannot land in any bucket bounded below 10ms.
	for i, b := range got.Hist.Buckets {
		if b.LE < 5e-3 && b.Count != 0 {
			t.Errorf("bucket %d (<= %gs) = %d, want 0", i, b.LE, b.Count)
		}
	}
	ResetSpanStats()
	for _, st := range SpanStats() {
		if st.Count != 0 || st.Nanos != 0 {
			t.Errorf("ResetSpanStats left %q non-zero: %+v", st.Name, st)
		}
	}
}

// TestSpanClassRegistry: re-registering a name returns the same handle,
// and SpanStats reports classes in registration order.
func TestSpanClassRegistry(t *testing.T) {
	if again := RegisterSpanClass("test-phase"); again != testClass {
		t.Errorf("re-registration returned %d, want %d", again, testClass)
	}
	if testClass.Name() != "test-phase" {
		t.Errorf("Name() = %q", testClass.Name())
	}
	stats := SpanStats()
	if int(testClass) >= len(stats) || stats[testClass].Name != "test-phase" {
		t.Errorf("SpanStats not in registration order: %+v", stats)
	}
}

// TestNilCollectorAndRecorder: every Collector/Recorder method must be
// nil-safe, because hot-path call sites are unconditional.
func TestNilCollectorAndRecorder(t *testing.T) {
	var c *Collector
	c.Add(Remark{Name: "dropped"})
	if c.Len() != 0 || c.Remarks() != nil {
		t.Error("nil Collector retained a remark")
	}
	var r *Recorder
	if r.On() {
		t.Error("nil Recorder reports On")
	}
	r.Add(Remark{Name: "dropped"})
	if tr := r.TraceCtx(); tr.Active() {
		t.Error("nil Recorder has an active trace")
	}
	// A Recorder with a nil Collector is the tracing-only shape: Add
	// must drop silently and On must be false.
	r2 := &Recorder{}
	if r2.On() {
		t.Error("Recorder without Collector reports On")
	}
	r2.Add(Remark{Name: "dropped"})
}

// TestWriteJSONShape: empty and nil streams serialize as an empty
// array, and field order follows the Remark declaration.
func TestWriteJSONShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Errorf("nil stream = %q, want []\\n", buf.String())
	}
	buf.Reset()
	rm := Remark{
		Pass: "rolag", Name: "rolled", Status: StatusPassed,
		Func: "f", Block: "entry", Instr: "%t1",
		Lanes: 4, CostBefore: 10, CostAfter: 6, DeltaBytes: -4,
	}
	if err := WriteJSON(&buf, []Remark{rm}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, key := range []string{`"pass"`, `"name"`, `"status"`, `"func"`, `"lanes"`, `"deltaBytes"`} {
		if !strings.Contains(out, key) {
			t.Errorf("JSON output missing %s:\n%s", key, out)
		}
	}
	if i, j := strings.Index(out, `"pass"`), strings.Index(out, `"deltaBytes"`); i > j {
		t.Error("JSON field order does not follow declaration order")
	}
	var back []Remark
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("output does not round-trip: %v", err)
	}
	if len(back) != 1 || back[0] != rm {
		t.Errorf("round-trip = %+v, want %+v", back, rm)
	}
}

// TestWriteYAMLShape: the hand-rolled YAML emitter quotes strings
// JSON-style, omits zero-valued numerics, and renders the empty stream
// as a flow-style empty sequence.
func TestWriteYAMLShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteYAML(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Errorf("empty stream = %q, want []\\n", buf.String())
	}
	buf.Reset()
	err := WriteYAML(&buf, []Remark{{
		Pass: "rolag", Name: "not-profitable", Status: StatusMissed,
		Func: "f", Reason: "not-profitable",
		Detail: `cost "went" up`, DeltaBytes: 35,
	}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "- pass: ") {
		t.Errorf("first field not sequence-led:\n%s", out)
	}
	if !strings.Contains(out, `detail: "cost \"went\" up"`) {
		t.Errorf("detail not JSON-escaped:\n%s", out)
	}
	if strings.Contains(out, "lanes:") || strings.Contains(out, "costBefore:") {
		t.Errorf("zero-valued numerics not omitted:\n%s", out)
	}
	if !strings.Contains(out, "deltaBytes: 35") {
		t.Errorf("deltaBytes missing:\n%s", out)
	}
}

// TestTraceContextPlumbing: zero contexts are inert, NewTrace mints
// active ones, Fork keeps the ID on a fresh lane, and WithTrace /
// TraceFrom round-trip through a context.Context.
func TestTraceContextPlumbing(t *testing.T) {
	var zero TraceContext
	if zero.Active() {
		t.Error("zero TraceContext is active")
	}
	if zero.Fork().Active() {
		t.Error("Fork of an inactive context became active")
	}
	tr := NewTrace("abc")
	if !tr.Active() || tr.ID != "abc" {
		t.Errorf("NewTrace(abc) = %+v", tr)
	}
	minted := NewTrace("")
	if minted.ID == "" || len(minted.ID) != 16 {
		t.Errorf("minted trace ID = %q, want 16 hex chars", minted.ID)
	}
	fork := tr.Fork()
	if fork.ID != tr.ID || fork.tid == tr.tid {
		t.Errorf("Fork = %+v from %+v: want same ID, fresh lane", fork, tr)
	}
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Errorf("TraceFrom(WithTrace(tr)) = %+v, want %+v", got, tr)
	}
	if got := TraceFrom(context.Background()); got.Active() {
		t.Errorf("TraceFrom(empty ctx) = %+v, want zero", got)
	}
	if WithTrace(context.Background(), zero) != context.Background() {
		t.Error("WithTrace(zero) wrapped the context for nothing")
	}
}

// TestTraceRingOverwrite: the ring keeps the newest capacity events,
// ignores spans under an inactive context, and exports valid Chrome
// trace-event JSON.
func TestTraceRingOverwrite(t *testing.T) {
	disabled(t)
	EnableTracing(true)
	if !TracingEnabled() {
		t.Fatal("TracingEnabled() = false after EnableTracing(true)")
	}
	SetTraceCapacity(4)
	tr := NewTrace("ringtest")
	names := []string{"e0", "e1", "e2", "e3", "e4", "e5"}
	for _, name := range names {
		EndSpan(tr, name, Now().Add(-time.Microsecond), "fn")
		time.Sleep(time.Microsecond)
	}
	// An inactive context must record nothing.
	EndSpan(TraceContext{}, "ignored", Now(), "")
	evs := TraceEvents()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want capacity 4", len(evs))
	}
	for i, ev := range evs {
		if want := names[i+2]; ev.Name != want {
			t.Errorf("event %d = %q, want %q (newest 4, oldest first)", i, ev.Name, want)
		}
		if ev.Trace != "ringtest" || ev.TID != tr.tid {
			t.Errorf("event %d provenance = %+v", i, ev)
		}
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(chrome.TraceEvents) != 4 {
		t.Fatalf("Chrome trace has %d events, want 4", len(chrome.TraceEvents))
	}
	ev := chrome.TraceEvents[0]
	if ev.Ph != "X" || ev.Args["trace"] != "ringtest" || ev.Args["detail"] != "fn" {
		t.Errorf("Chrome event shape: %+v", ev)
	}
	ResetTrace()
	if evs := TraceEvents(); len(evs) != 0 {
		t.Errorf("ResetTrace left %d events", len(evs))
	}
}

// TestCountByReason: missed remarks tally by Reason (falling back to
// Name), sorted by descending count then reason; passed and analysis
// remarks are excluded.
func TestCountByReason(t *testing.T) {
	remarks := []Remark{
		{Status: StatusMissed, Name: "not-profitable", Reason: "not-profitable"},
		{Status: StatusMissed, Name: "align-reject", Reason: "mismatch-type"},
		{Status: StatusMissed, Name: "align-reject", Reason: "mismatch-type"},
		{Status: StatusMissed, Name: "schedule-reject"}, // empty Reason -> Name
		{Status: StatusPassed, Name: "rolled"},
		{Status: StatusAnalysis, Name: "seed"},
	}
	got := CountByReason(remarks)
	want := []ReasonCount{
		{Reason: "mismatch-type", Count: 2},
		{Reason: "not-profitable", Count: 1},
		{Reason: "schedule-reject", Count: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("CountByReason = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestExplainFallbacks: the report degrades to an explicit sentence for
// an unknown function and for an empty stream, and filters to the
// requested function otherwise.
func TestExplainFallbacks(t *testing.T) {
	var buf bytes.Buffer
	Explain(&buf, nil, "")
	if !strings.Contains(buf.String(), "no remarks recorded") {
		t.Errorf("empty stream: %q", buf.String())
	}
	buf.Reset()
	Explain(&buf, nil, "ghost")
	if !strings.Contains(buf.String(), `no remarks for function "ghost"`) {
		t.Errorf("unknown function: %q", buf.String())
	}
	remarks := []Remark{
		{Pass: "rolag", Name: "rolled", Status: StatusPassed, Func: "a", Block: "entry", Instr: "%t1", Lanes: 4},
		{Pass: "rolag", Name: "not-profitable", Status: StatusMissed, Func: "b", Block: "entry", Instr: "store@0", Reason: "not-profitable", DeltaBytes: 3},
	}
	buf.Reset()
	Explain(&buf, remarks, "b")
	out := buf.String()
	if strings.Contains(out, "function a:") {
		t.Errorf("filter leaked another function:\n%s", out)
	}
	if !strings.Contains(out, "MISSED") || !strings.Contains(out, "[not-profitable]") {
		t.Errorf("missed line not rendered:\n%s", out)
	}
	buf.Reset()
	Explain(&buf, remarks, "all")
	if out := buf.String(); !strings.Contains(out, "function a:") || !strings.Contains(out, "function b:") {
		t.Errorf("'all' filter dropped a function:\n%s", out)
	}
}
