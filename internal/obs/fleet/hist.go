// Package fleet is the cluster-wide telemetry plane and the home of
// the one latency histogram type every live series uses: rolagd's
// compile-latency histogram, the per-route request histograms shards
// report and the router aggregates, and the RoLAG span-class
// histograms are all a Hist. Around it sit a scrape collector that
// turns per-shard counter snapshots into fleet-level RED metrics
// (rate, errors, duration) and the trace-stitching helpers that merge
// per-process Chrome trace segments into one aligned timeline. It is
// deliberately stdlib-only and importable from both sides of the wire
// (daemon and router) and from internal/obs without cycles.
package fleet

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// LatencyBounds are the request- and compile-latency histogram bucket
// upper bounds in seconds, so per-route request histograms and engine
// compile histograms render on the same axis. A zero Hist uses them.
var LatencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Inf stands in for +Inf so snapshots stay JSON-encodable.
const Inf = 1e308

// maxBuckets bounds a Hist's bounds table (plus its +Inf bucket), so
// the counters can live in a fixed array and the zero Hist is usable.
const maxBuckets = 16

// Bucket is one cumulative histogram bucket, Prometheus-style.
type Bucket struct {
	// LE is the inclusive upper bound in seconds (Inf for the last).
	LE float64 `json:"le"`
	// Count is cumulative: observations at or below LE.
	Count int64 `json:"count"`
}

// Hist is a live latency histogram over a fixed bounds table. Observe
// takes no lock (two atomic adds), so it is safe on hot concurrent
// paths. The zero value is ready to use over LatencyBounds.
type Hist struct {
	bounds  []float64 // nil means LatencyBounds
	nanos   atomic.Int64
	buckets [maxBuckets]atomic.Int64 // non-cumulative; [len(bounds)] is +Inf
}

// NewHist returns an empty histogram over the given ascending bucket
// upper bounds, in seconds (fewer than maxBuckets); an implicit +Inf
// bucket follows the last.
func NewHist(bounds []float64) *Hist { return &Hist{bounds: bounds} }

func (h *Hist) table() []float64 {
	if h.bounds == nil {
		return LatencyBounds
	}
	return h.bounds
}

// Observe records one latency.
func (h *Hist) Observe(d time.Duration) {
	bounds := h.table()
	sec := float64(d) / 1e9
	idx := len(bounds)
	for i, ub := range bounds {
		if sec <= ub {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
	h.nanos.Add(int64(d))
}

// Sum returns the total of every observed latency.
func (h *Hist) Sum() time.Duration { return time.Duration(h.nanos.Load()) }

// Reset zeroes the histogram. Observations racing with it may survive.
func (h *Hist) Reset() {
	h.nanos.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot returns a point-in-time copy with cumulative buckets. Count
// is the +Inf bucket, so the two agree even under concurrent Observe;
// the sum is loaded apart from them and may miss observations in
// flight.
func (h *Hist) Snapshot() HistSnapshot {
	bounds := h.table()
	s := HistSnapshot{SumSeconds: float64(h.nanos.Load()) / 1e9, Buckets: make([]Bucket, 0, len(bounds)+1)}
	for i := 0; i <= len(bounds); i++ {
		s.Count += h.buckets[i].Load()
		le := Inf
		if i < len(bounds) {
			le = bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{LE: le, Count: s.Count})
	}
	return s
}

// HistSnapshot is a serialized latency histogram: what shards report
// in /v1/cachestats and what the router merges fleet-wide.
type HistSnapshot struct {
	Count      int64    `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets,omitempty"`
}

// Merge folds other into s. Histograms over the same bounds merge
// bucket-by-bucket; mismatched bounds (a rolling-upgrade fleet) merge
// by the union of bounds, which loses no counts but may coarsen
// quantile interpolation.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	s.Count += other.Count
	s.SumSeconds += other.SumSeconds
	if len(other.Buckets) == 0 {
		return
	}
	if len(s.Buckets) == 0 {
		s.Buckets = append([]Bucket(nil), other.Buckets...)
		return
	}
	if sameBounds(s.Buckets, other.Buckets) {
		for i := range s.Buckets {
			s.Buckets[i].Count += other.Buckets[i].Count
		}
		return
	}
	s.Buckets = mergeBounds(s.Buckets, other.Buckets)
}

func sameBounds(a, b []Bucket) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LE != b[i].LE {
			return false
		}
	}
	return true
}

// mergeBounds merges two cumulative bucket sets over the union of
// their bounds. Each side's cumulative count at a foreign bound is its
// count at the nearest bound at or above it (an upper bound — safe for
// cumulative histograms).
func mergeBounds(a, b []Bucket) []Bucket {
	les := map[float64]bool{}
	for _, bk := range a {
		les[bk.LE] = true
	}
	for _, bk := range b {
		les[bk.LE] = true
	}
	bounds := make([]float64, 0, len(les))
	for le := range les {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	cumAt := func(set []Bucket, le float64) int64 {
		for _, bk := range set {
			if bk.LE >= le {
				return bk.Count
			}
		}
		if len(set) == 0 {
			return 0
		}
		return set[len(set)-1].Count
	}
	out := make([]Bucket, 0, len(bounds))
	for _, le := range bounds {
		out = append(out, Bucket{LE: le, Count: cumAt(a, le) + cumAt(b, le)})
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) in seconds by linear
// interpolation within the bucket containing the target rank.
// Observations in the +Inf bucket are attributed to the last finite
// bound — a deliberate underestimate; the alternative (infinity)
// makes every downstream comparison meaningless.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var prevCum int64
	prevLE := 0.0
	lastFinite := 0.0
	for _, b := range s.Buckets {
		if b.LE < Inf {
			lastFinite = b.LE
		}
		if float64(b.Count) >= target && b.Count > prevCum {
			le := b.LE
			if le >= Inf {
				return lastFinite
			}
			frac := (target - float64(prevCum)) / float64(b.Count-prevCum)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return prevLE + frac*(le-prevLE)
		}
		if b.LE < Inf {
			prevLE = b.LE
		}
		prevCum = b.Count
	}
	return lastFinite
}

// Mean returns the average observation in seconds (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumSeconds / float64(s.Count)
}

// round3 trims a float for JSON presentation (milliseconds with
// microsecond precision survive; the noise below that does not).
func round3(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Round(v*1e6) / 1e6
}
