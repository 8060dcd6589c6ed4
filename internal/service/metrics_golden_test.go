package service

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rolag/internal/obs"
	"rolag/internal/obs/fleet"
)

// goldenHistLines is the exact /metrics histogram exposition for the
// observations in TestMetricsHistogramGolden. Only the phase _sum value
// is masked (PHASE_SUM): span durations come from the wall clock, so
// that one number carries scheduling noise.
const goldenHistLines = `# HELP rolagd_phase_seconds Wall-clock of RoLAG pipeline phases.
# TYPE rolagd_phase_seconds histogram
rolagd_phase_seconds_bucket{phase="golden",le="1e-07"} 0
rolagd_phase_seconds_bucket{phase="golden",le="1e-06"} 0
rolagd_phase_seconds_bucket{phase="golden",le="1e-05"} 0
rolagd_phase_seconds_bucket{phase="golden",le="0.0001"} 0
rolagd_phase_seconds_bucket{phase="golden",le="0.001"} 0
rolagd_phase_seconds_bucket{phase="golden",le="0.01"} 2
rolagd_phase_seconds_bucket{phase="golden",le="0.1"} 3
rolagd_phase_seconds_bucket{phase="golden",le="1"} 4
rolagd_phase_seconds_bucket{phase="golden",le="+Inf"} 5
rolagd_phase_seconds_sum{phase="golden"} PHASE_SUM
rolagd_phase_seconds_count{phase="golden"} 5
# HELP rolagd_compile_seconds Latency of fresh compilations.
# TYPE rolagd_compile_seconds histogram
rolagd_compile_seconds_bucket{le="0.0005"} 2
rolagd_compile_seconds_bucket{le="0.001"} 2
rolagd_compile_seconds_bucket{le="0.0025"} 2
rolagd_compile_seconds_bucket{le="0.005"} 3
rolagd_compile_seconds_bucket{le="0.01"} 3
rolagd_compile_seconds_bucket{le="0.025"} 4
rolagd_compile_seconds_bucket{le="0.05"} 4
rolagd_compile_seconds_bucket{le="0.1"} 5
rolagd_compile_seconds_bucket{le="0.25"} 5
rolagd_compile_seconds_bucket{le="0.5"} 5
rolagd_compile_seconds_bucket{le="1"} 6
rolagd_compile_seconds_bucket{le="2.5"} 6
rolagd_compile_seconds_bucket{le="5"} 6
rolagd_compile_seconds_bucket{le="+Inf"} 7
rolagd_compile_seconds_sum 8.0988
rolagd_compile_seconds_count 7
`

// goldenJSON pins the expvar/JSON names and encodings of the compile
// histogram and of one phase's buckets.
const goldenJSON = `latency_count=7
latency_sum_seconds=8.0988
latency_buckets=[{"le":0.0005,"count":2},{"le":0.001,"count":2},{"le":0.0025,"count":2},{"le":0.005,"count":3},{"le":0.01,"count":3},{"le":0.025,"count":4},{"le":0.05,"count":4},{"le":0.1,"count":5},{"le":0.25,"count":5},{"le":0.5,"count":5},{"le":1,"count":6},{"le":2.5,"count":6},{"le":5,"count":6},{"le":1e+308,"count":7}]
phases[golden].buckets=[{"le":1e-7,"count":0},{"le":0.000001,"count":0},{"le":0.00001,"count":0},{"le":0.0001,"count":0},{"le":0.001,"count":0},{"le":0.01,"count":2},{"le":0.1,"count":3},{"le":1,"count":4},{"le":1e+308,"count":5}]`

// goldenRoutes pins the /v1/cachestats "routes" encoding.
const goldenRoutes = `{"/v1/batch":{"count":0,"sum_seconds":0,"buckets":[{"le":0.0005,"count":0},{"le":0.001,"count":0},{"le":0.0025,"count":0},{"le":0.005,"count":0},{"le":0.01,"count":0},{"le":0.025,"count":0},{"le":0.05,"count":0},{"le":0.1,"count":0},{"le":0.25,"count":0},{"le":0.5,"count":0},{"le":1,"count":0},{"le":2.5,"count":0},{"le":5,"count":0},{"le":1e+308,"count":0}]},` +
	`"/v1/compile":{"count":6,"sum_seconds":11.814453125,"buckets":[{"le":0.0005,"count":0},{"le":0.001,"count":0},{"le":0.0025,"count":1},{"le":0.005,"count":1},{"le":0.01,"count":1},{"le":0.025,"count":1},{"le":0.05,"count":1},{"le":0.1,"count":2},{"le":0.25,"count":3},{"le":0.5,"count":4},{"le":1,"count":4},{"le":2.5,"count":5},{"le":5,"count":5},{"le":1e+308,"count":6}]}}`

var phaseSumLine = regexp.MustCompile(`(?m)^(rolagd_phase_seconds_sum\{phase="golden"\}) (\S+)$`)

// TestMetricsHistogramGolden pins the histogram surface of /metrics and
// of the JSON snapshot: fixed compile and phase observations render to
// byte-identical bucket, sum and count lines (le="%g" bounds, a final
// +Inf bucket) and keep their JSON names.
func TestMetricsHistogramGolden(t *testing.T) {
	obs.EnableSpanStats(true)
	defer obs.EnableSpanStats(false)
	obs.ResetSpanStats()
	defer obs.ResetSpanStats()

	var m metrics
	for _, d := range []time.Duration{
		300 * time.Microsecond, 500 * time.Microsecond, 3 * time.Millisecond,
		25 * time.Millisecond, 70 * time.Millisecond, time.Second, 7 * time.Second,
	} {
		m.latency.Observe(d)
	}
	// Backdated starts: each span lasts its duration plus scheduling
	// noise, far from the neighbouring bucket bounds.
	phase := obs.RegisterSpanClass("golden")
	for _, d := range []time.Duration{
		2 * time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond,
		200 * time.Millisecond, 2 * time.Second,
	} {
		phase.End(obs.TraceContext{}, time.Now().Add(-d))
	}

	s := m.snapshot()
	var sb strings.Builder
	s.WritePrometheus(&sb)
	var hist strings.Builder
	for _, line := range strings.SplitAfter(sb.String(), "\n") {
		if strings.Contains(line, "rolagd_compile_seconds") || strings.HasPrefix(line, "# ") && strings.Contains(line, "rolagd_phase_seconds") ||
			strings.Contains(line, `phase="golden"`) {
			hist.WriteString(line)
		}
	}
	got := hist.String()
	sum := phaseSumLine.FindStringSubmatch(got)
	if sum == nil {
		t.Fatalf("no golden phase _sum line in:\n%s", got)
	}
	if v, err := strconv.ParseFloat(sum[2], 64); err != nil || v < 2.227 || v > 2.227+1 {
		t.Errorf("golden phase _sum = %q, want 2.227s plus scheduling noise", sum[2])
	}
	got = phaseSumLine.ReplaceAllString(got, "$1 PHASE_SUM")
	if got != goldenHistLines {
		t.Errorf("/metrics histogram lines changed:\n--- got\n%s--- want\n%s", got, goldenHistLines)
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	var phases []map[string]json.RawMessage
	if err := json.Unmarshal(fields["phases"], &phases); err != nil {
		t.Fatal(err)
	}
	var goldenPhase string
	for _, ph := range phases {
		var keys []string
		for k := range ph {
			keys = append(keys, k)
		}
		if len(keys) != 4 || ph["phase"] == nil || ph["count"] == nil || ph["sum_seconds"] == nil || ph["buckets"] == nil {
			t.Errorf("phase JSON keys = %v, want phase, count, sum_seconds, buckets", keys)
		}
		if string(ph["phase"]) == `"golden"` {
			goldenPhase = string(ph["buckets"])
		}
	}
	gotJSON := fmt.Sprintf("latency_count=%s\nlatency_sum_seconds=%s\nlatency_buckets=%s\nphases[golden].buckets=%s",
		fields["latency_count"], fields["latency_sum_seconds"], fields["latency_buckets"], goldenPhase)
	if gotJSON != goldenJSON {
		t.Errorf("snapshot JSON changed:\n--- got\n%s\n--- want\n%s", gotJSON, goldenJSON)
	}
}

// TestRoutesJSONGolden pins the encoding of the per-route histograms a
// shard reports in /v1/cachestats: observations, cumulative buckets
// with le/count, and the +Inf sentinel.
func TestRoutesJSONGolden(t *testing.T) {
	var compile, batch fleet.Hist
	for _, d := range []time.Duration{time.Second / 512, time.Second / 16, time.Second / 4, time.Second / 2, 2 * time.Second, 9 * time.Second} {
		compile.Observe(d)
	}
	raw, err := json.Marshal(map[string]fleet.HistSnapshot{
		"/v1/compile": compile.Snapshot(),
		"/v1/batch":   batch.Snapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != goldenRoutes {
		t.Errorf("routes JSON changed:\n--- got\n%s\n--- want\n%s", raw, goldenRoutes)
	}
}

// TestLatencyCountMatchesInfBucket: under concurrent observation every
// snapshot's count equals its +Inf bucket, so the exposition never
// shows a histogram whose buckets disagree with its count.
func TestLatencyCountMatchesInfBucket(t *testing.T) {
	var m metrics
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.latency.Observe(time.Duration(g*i%9000) * time.Millisecond)
			}
		}(g)
	}
	for i := 0; i < 2000; i++ {
		s := m.snapshot()
		if inf := s.LatencyBuckets[len(s.LatencyBuckets)-1]; inf.Count != s.LatencyCount {
			t.Errorf("snapshot %d: count %d != +Inf bucket %d", i, s.LatencyCount, inf.Count)
			break
		}
	}
	close(stop)
	wg.Wait()
}
