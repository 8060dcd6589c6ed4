package fleet

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestHistObserveAndQuantile: observations land in the right buckets
// and interpolated quantiles come out in the right neighborhood.
func TestHistObserveAndQuantile(t *testing.T) {
	var h Hist
	// 90 fast (≈2ms) + 10 slow (≈200ms): p50 must be small, p99 large.
	for i := 0; i < 90; i++ {
		h.Observe(2 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(200 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	if got := s.SumSeconds; math.Abs(got-(90*0.002+10*0.200)) > 1e-9 {
		t.Errorf("SumSeconds = %v", got)
	}
	if len(s.Buckets) != len(LatencyBounds)+1 {
		t.Fatalf("buckets = %d, want %d", len(s.Buckets), len(LatencyBounds)+1)
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.LE != Inf || last.Count != 100 {
		t.Errorf("+Inf bucket = %+v", last)
	}
	p50, p99 := s.Quantile(0.50), s.Quantile(0.99)
	if p50 <= 0 || p50 > 0.0025 {
		t.Errorf("p50 = %v, want in (0, 2.5ms]", p50)
	}
	if p99 < 0.1 || p99 > 0.25 {
		t.Errorf("p99 = %v, want in [100ms, 250ms]", p99)
	}
	if s.Quantile(0.99) < s.Quantile(0.50) {
		t.Error("quantiles not monotone")
	}
}

// TestHistQuantileEdges: empty histograms and +Inf-bucket overflow
// degrade to 0 and the last finite bound respectively.
func TestHistQuantileEdges(t *testing.T) {
	var empty HistSnapshot
	if q := empty.Quantile(0.99); q != 0 {
		t.Errorf("empty Quantile = %v", q)
	}
	var h Hist
	h.Observe(10_000 * time.Second) // beyond every bound → +Inf bucket
	s := h.Snapshot()
	last := LatencyBounds[len(LatencyBounds)-1]
	if q := s.Quantile(0.99); q != last {
		t.Errorf("overflow Quantile = %v, want last finite bound %v", q, last)
	}
}

// TestMergeSameBounds: bucket-wise merge preserves counts and sums.
func TestMergeSameBounds(t *testing.T) {
	var a, b Hist
	for i := 0; i < 50; i++ {
		a.Observe(time.Millisecond)
		b.Observe(300 * time.Millisecond)
	}
	m := a.Snapshot()
	m.Merge(b.Snapshot())
	if m.Count != 100 {
		t.Fatalf("merged Count = %d", m.Count)
	}
	if p50 := m.Quantile(0.50); p50 > 0.0025 {
		t.Errorf("merged p50 = %v, want fast half", p50)
	}
	if p99 := m.Quantile(0.99); p99 < 0.25 {
		t.Errorf("merged p99 = %v, want slow tail", p99)
	}
	// Merging into an empty snapshot copies.
	var zero HistSnapshot
	zero.Merge(b.Snapshot())
	if zero.Count != 50 || len(zero.Buckets) == 0 {
		t.Errorf("merge into zero = %+v", zero)
	}
}

// TestMergeMismatchedBounds: a union merge loses no counts.
func TestMergeMismatchedBounds(t *testing.T) {
	a := HistSnapshot{Count: 4, SumSeconds: 0.04, Buckets: []Bucket{{LE: 0.01, Count: 2}, {LE: Inf, Count: 4}}}
	b := HistSnapshot{Count: 6, SumSeconds: 0.3, Buckets: []Bucket{{LE: 0.05, Count: 3}, {LE: Inf, Count: 6}}}
	a.Merge(b)
	if a.Count != 10 {
		t.Fatalf("Count = %d", a.Count)
	}
	lastBucket := a.Buckets[len(a.Buckets)-1]
	if lastBucket.LE != Inf || lastBucket.Count != 10 {
		t.Errorf("+Inf bucket after union merge = %+v (buckets %+v)", lastBucket, a.Buckets)
	}
}

// TestCollectorREDAndOverview: two scrapes produce rates, quantiles,
// hit rate, and stable sorting; scrape errors keep stale data visible.
func TestCollectorREDAndOverview(t *testing.T) {
	c := NewCollector()
	t0 := time.Unix(1000, 0)
	mk := func(reqs, errs int64) ShardObservation {
		var h Hist
		for i := int64(0); i < reqs; i++ {
			h.Observe(4 * time.Millisecond)
		}
		return ShardObservation{
			Requests: reqs, Errors: errs, Hits: reqs / 2, Misses: reqs / 2,
			InFlight: 1, TraceDropped: 7,
			Routes: map[string]HistSnapshot{"/v1/compile": h.Snapshot()},
		}
	}
	c.Record("shard-b", mk(100, 2), t0)
	c.Record("shard-b", mk(300, 4), t0.Add(10*time.Second))
	c.Record("shard-a", mk(50, 0), t0.Add(10*time.Second))
	c.RecordError("shard-c", "connection refused", t0.Add(10*time.Second))

	rows := c.Shards(t0.Add(11 * time.Second))
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Shard != "shard-a" || rows[1].Shard != "shard-b" || rows[2].Shard != "shard-c" {
		t.Fatalf("sort order: %s %s %s", rows[0].Shard, rows[1].Shard, rows[2].Shard)
	}
	b := rows[1]
	if !b.ScrapeOK || b.Requests != 300 {
		t.Errorf("shard-b row = %+v", b)
	}
	if math.Abs(b.RatePerSec-20) > 0.01 {
		t.Errorf("RatePerSec = %v, want 20 (200 reqs / 10s)", b.RatePerSec)
	}
	if math.Abs(b.ErrorRatePerSec-0.2) > 0.001 {
		t.Errorf("ErrorRatePerSec = %v, want 0.2", b.ErrorRatePerSec)
	}
	if math.Abs(b.HitRate-0.5) > 0.001 {
		t.Errorf("HitRate = %v", b.HitRate)
	}
	if b.P99Ms <= 0 || b.P99Ms > 5 {
		t.Errorf("P99Ms = %v, want ≈4ms", b.P99Ms)
	}
	a := rows[0]
	if a.RatePerSec != 0 {
		t.Errorf("single-scrape shard has RatePerSec %v, want 0", a.RatePerSec)
	}
	cRow := rows[2]
	if cRow.ScrapeOK || cRow.ScrapeError == "" {
		t.Errorf("failed-scrape row = %+v", cRow)
	}

	routes := c.Routes()
	if len(routes) != 1 || routes[0].Route != "/v1/compile" || routes[0].Count != 350 {
		t.Errorf("fleet routes = %+v", routes)
	}
	if h := c.RouteHist("/v1/compile"); h.Count != 350 {
		t.Errorf("RouteHist count = %d", h.Count)
	}
	if d := c.TraceDroppedTotal(); d != 14 {
		t.Errorf("TraceDroppedTotal = %d, want 14 (two good shards × 7)", d)
	}
}

// TestStitchAndProcesses: segments become per-process tracks with
// metadata names, empty segments are dropped, and statuses survive.
func TestStitchAndProcesses(t *testing.T) {
	seg := func(spans ...chromeEvent) []byte {
		b, err := json.Marshal(chromeDoc{TraceEvents: spans})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	router := seg(
		chromeEvent{Name: "router:/v1/compile", Ph: "X", Ts: 100, Dur: 50, PID: 1, TID: 1, Args: map[string]string{"trace": "t1"}},
		chromeEvent{Name: "hop:shard-b", Ph: "X", Ts: 110, Dur: 20, PID: 1, TID: 1, Args: map[string]string{"status": "canceled"}},
	)
	shard := seg(
		chromeEvent{Name: "http:/v1/compile", Ph: "X", Ts: 112, Dur: 30, PID: 1, TID: 9, Args: map[string]string{"status": "ok"}},
	)
	stitched, err := Stitch([]Segment{
		{Process: "router", Data: router},
		{Process: "shard-a", Data: shard},
		{Process: "shard-b", Data: seg()}, // recorded nothing → dropped
	})
	if err != nil {
		t.Fatal(err)
	}
	procs, err := Processes(stitched)
	if err != nil {
		t.Fatal(err)
	}
	if procs["router"] != 2 || procs["shard-a"] != 1 {
		t.Errorf("process spans = %+v", procs)
	}
	if _, ok := procs["shard-b"]; ok {
		t.Error("empty segment produced a track")
	}
	statuses, err := SpanStatuses(stitched)
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 2 || statuses[0] != "canceled" || statuses[1] != "ok" {
		t.Errorf("statuses = %v", statuses)
	}
	// Distinct pids per process.
	var doc chromeDoc
	if err := json.Unmarshal(stitched, &doc); err != nil {
		t.Fatal(err)
	}
	pids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			pids[ev.Args["name"]] = ev.PID
		}
	}
	if pids["router"] == pids["shard-a"] {
		t.Errorf("router and shard share pid: %+v", pids)
	}

	if _, err := Stitch([]Segment{{Process: "bad", Data: []byte("{nope")}}); err == nil {
		t.Error("invalid segment JSON not rejected")
	}
}
