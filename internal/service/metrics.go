package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"rolag/internal/fuzzgen"
	"rolag/internal/obs"
	"rolag/internal/obs/fleet"
)

// metrics is the engine's hot-path instrumentation: plain atomics, no
// locks, safe to bump from every worker concurrently.
type metrics struct {
	requests    atomic.Int64
	cacheHits   atomic.Int64
	dedupHits   atomic.Int64
	cacheMisses atomic.Int64
	inFlight    atomic.Int64
	compiles    atomic.Int64
	errors      atomic.Int64
	panics      atomic.Int64
	loopsRolled atomic.Int64
	degraded    atomic.Int64
	shed        atomic.Int64
	peerHits    atomic.Int64
	peerMisses  atomic.Int64
	emitIR      atomic.Int64
	emitAsm     atomic.Int64

	// Warm-restart snapshot instrumentation (see snapshot.go).
	snapshotSaves    atomic.Int64
	snapshotLoads    atomic.Int64
	snapshotRejected atomic.Int64
	snapshotEntries  atomic.Int64
	snapshotWarmHits atomic.Int64

	// latency is the compile-latency histogram over fleet.LatencyBounds.
	latency fleet.Hist

	// skipMu guards passSkipped; the per-pass breakdown is off the hot
	// path (bumped only when a pass actually degrades).
	skipMu      sync.Mutex
	passSkipped map[string]int64

	// remarkMu guards remarkCounts; remarks are only produced when a
	// request opts in, so this is off the default hot path too.
	remarkMu     sync.Mutex
	remarkCounts map[remarkKey]int64
}

// remarkKey labels one rolagd_remarks_total series.
type remarkKey struct {
	Pass   string
	Reason string
}

// countRemarks folds one compilation's remark stream into the
// rolagd_remarks_total{pass,reason} counters. Remarks without an
// explicit rejection reason (rolled, seed, align-node, ...) are keyed
// by their remark name so every decision the optimizer explains is
// countable.
func (m *metrics) countRemarks(remarks []obs.Remark) {
	if len(remarks) == 0 {
		return
	}
	m.remarkMu.Lock()
	if m.remarkCounts == nil {
		m.remarkCounts = make(map[remarkKey]int64)
	}
	for _, r := range remarks {
		reason := r.Reason
		if reason == "" {
			reason = r.Name
		}
		m.remarkCounts[remarkKey{Pass: r.Pass, Reason: reason}]++
	}
	m.remarkMu.Unlock()
}

// skipPass counts one skipped pass execution under the fail-soft
// sandbox, keyed by pass name.
func (m *metrics) skipPass(pass string) {
	m.skipMu.Lock()
	if m.passSkipped == nil {
		m.passSkipped = make(map[string]int64)
	}
	m.passSkipped[pass]++
	m.skipMu.Unlock()
}

// MetricsSnapshot is a consistent-enough point-in-time copy of the
// engine counters, suitable for JSON or Prometheus text rendering.
type MetricsSnapshot struct {
	Requests     int64 `json:"requests"`
	CacheHits    int64 `json:"cache_hits"`
	DedupHits    int64 `json:"dedup_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	InFlight     int64 `json:"in_flight"`
	Compiles     int64 `json:"compiles"`
	Errors       int64 `json:"errors"`
	Panics       int64 `json:"panics"`
	LoopsRolled  int64 `json:"loops_rolled"`
	CacheEntries int   `json:"cache_entries"`
	Workers      int   `json:"workers"`

	// Peer-cache instrumentation: fetch-on-miss lookups against the
	// key's home shard (only counted when a peer was actually asked).
	PeerHits   int64 `json:"peer_hits"`
	PeerMisses int64 `json:"peer_misses"`

	// Emit counters: requests by requested output, the
	// rolagd_emit_total{format} series. A request asking for both IR
	// and assembly counts once under each label.
	EmitIR  int64 `json:"emit_ir"`
	EmitAsm int64 `json:"emit_asm"`

	// Warm-restart snapshot instrumentation: save/load/reject are
	// whole-file operations; SnapshotEntries counts entries restored at
	// load time and SnapshotWarmHits counts cache hits served by those
	// restored entries (the honest measure of restart warmth).
	SnapshotSaves    int64 `json:"snapshot_saves"`
	SnapshotLoads    int64 `json:"snapshot_loads"`
	SnapshotRejected int64 `json:"snapshot_rejected"`
	SnapshotEntries  int64 `json:"snapshot_entries"`
	SnapshotWarmHits int64 `json:"snapshot_warm_hits"`

	// Fail-soft and overload instrumentation.
	Degraded     int64            `json:"degraded"`
	Shed         int64            `json:"shed"`
	PassSkipped  map[string]int64 `json:"pass_skipped,omitempty"`
	BreakerOpens int64            `json:"breaker_opens"`
	Breakers     []BreakerInfo    `json:"breakers,omitempty"`

	LatencyCount      int64          `json:"latency_count"`
	LatencySumSeconds float64        `json:"latency_sum_seconds"`
	LatencyBuckets    []fleet.Bucket `json:"latency_buckets"`

	// Phases mirrors the process-wide RoLAG per-phase span histograms
	// (obs.SpanStats) — the exact histograms cmd/rolag-bench reads, so
	// the daemon's rolagd_phase_seconds series and the benchmark harness
	// always agree on phase boundaries. Empty unless span stats are
	// enabled (rolagd -phase-timing, on by default).
	Phases []PhaseStat `json:"phases,omitempty"`

	// Remarks is the per-(pass, reason) count of optimization remarks
	// emitted by compilations that requested them.
	Remarks []RemarkCount `json:"remarks,omitempty"`

	// Fuzz mirrors the process-wide differential-fuzzing counters
	// (internal/fuzzgen): oracle executions, skips, and failures by
	// class. They advance whenever fuzzing runs in this process.
	Fuzz fuzzgen.Counters `json:"fuzz"`
}

// PhaseStat is the accumulated timing of one RoLAG pipeline phase: how
// many times it ran, its total wall-clock, and its cumulative duration
// histogram over obs.SpanBounds (last bucket +Inf).
type PhaseStat struct {
	// Phase is the metric label: seed, align, schedule, or codegen.
	Phase string `json:"phase"`
	fleet.HistSnapshot
}

// RemarkCount is one rolagd_remarks_total series: how many remarks a
// given pass emitted for a given reason (the remark name, for remarks
// that are not rejections).
type RemarkCount struct {
	Pass   string `json:"pass"`
	Reason string `json:"reason"`
	Count  int64  `json:"count"`
}

// HitRate returns the fraction of requests served from the cache or a
// shared in-flight compilation.
func (s *MetricsSnapshot) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.CacheHits+s.DedupHits) / float64(s.Requests)
}

func (m *metrics) snapshot() MetricsSnapshot {
	lat := m.latency.Snapshot()
	s := MetricsSnapshot{
		Requests:          m.requests.Load(),
		CacheHits:         m.cacheHits.Load(),
		DedupHits:         m.dedupHits.Load(),
		CacheMisses:       m.cacheMisses.Load(),
		InFlight:          m.inFlight.Load(),
		Compiles:          m.compiles.Load(),
		Errors:            m.errors.Load(),
		Panics:            m.panics.Load(),
		LoopsRolled:       m.loopsRolled.Load(),
		PeerHits:          m.peerHits.Load(),
		PeerMisses:        m.peerMisses.Load(),
		EmitIR:            m.emitIR.Load(),
		EmitAsm:           m.emitAsm.Load(),
		SnapshotSaves:     m.snapshotSaves.Load(),
		SnapshotLoads:     m.snapshotLoads.Load(),
		SnapshotRejected:  m.snapshotRejected.Load(),
		SnapshotEntries:   m.snapshotEntries.Load(),
		SnapshotWarmHits:  m.snapshotWarmHits.Load(),
		Degraded:          m.degraded.Load(),
		Shed:              m.shed.Load(),
		LatencyCount:      lat.Count,
		LatencySumSeconds: lat.SumSeconds,
		LatencyBuckets:    lat.Buckets,
		Fuzz:              fuzzgen.Snapshot(),
	}
	if obs.SpanStatsEnabled() {
		for _, st := range obs.SpanStats() {
			s.Phases = append(s.Phases, PhaseStat{Phase: st.Name, HistSnapshot: st.Hist})
		}
	}
	m.skipMu.Lock()
	if len(m.passSkipped) > 0 {
		s.PassSkipped = make(map[string]int64, len(m.passSkipped))
		for k, v := range m.passSkipped {
			s.PassSkipped[k] = v
		}
	}
	m.skipMu.Unlock()
	m.remarkMu.Lock()
	for k, v := range m.remarkCounts {
		s.Remarks = append(s.Remarks, RemarkCount{Pass: k.Pass, Reason: k.Reason, Count: v})
	}
	m.remarkMu.Unlock()
	sort.Slice(s.Remarks, func(i, j int) bool {
		if s.Remarks[i].Pass != s.Remarks[j].Pass {
			return s.Remarks[i].Pass < s.Remarks[j].Pass
		}
		return s.Remarks[i].Reason < s.Remarks[j].Reason
	})
	return s
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (counters, one gauge, and the compile-latency histogram).
func (s *MetricsSnapshot) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("rolagd_requests_total", "Compilation requests received.", s.Requests)
	counter("rolagd_cache_hits_total", "Requests served from the result cache.", s.CacheHits)
	counter("rolagd_dedup_hits_total", "Requests served by an identical in-flight compilation.", s.DedupHits)
	counter("rolagd_cache_misses_total", "Requests that required a fresh compilation.", s.CacheMisses)
	counter("rolagd_compiles_total", "Fresh compilations executed.", s.Compiles)
	counter("rolagd_errors_total", "Requests that failed.", s.Errors)
	counter("rolagd_panics_total", "Compilations that panicked and were converted to errors.", s.Panics)
	counter("rolagd_loops_rolled_total", "Loops rolled across fresh compilations.", s.LoopsRolled)
	counter("rolagd_peer_cache_hit_total", "Cache misses answered by the key's home shard.", s.PeerHits)
	counter("rolagd_peer_cache_miss_total", "Peer-cache lookups the home shard could not answer.", s.PeerMisses)
	counter("rolagd_degraded_total", "Compilations that completed fail-soft with passes skipped.", s.Degraded)
	counter("rolagd_breaker_open_total", "Circuit-breaker open transitions (incl. re-arms after failed probes).", s.BreakerOpens)
	counter("rolagd_shed_total", "Requests shed by admission control.", s.Shed)
	counter("rolagd_snapshot_save_total", "Cache snapshots durably written (renamed into place) for warm restarts.", s.SnapshotSaves)
	counter("rolagd_snapshot_load_total", "Cache snapshots loaded at startup.", s.SnapshotLoads)
	counter("rolagd_snapshot_rejected_total", "Snapshots rejected (corrupt, truncated, or stale key version); the cache started cold instead.", s.SnapshotRejected)
	counter("rolagd_snapshot_entries_loaded_total", "Cache entries restored from snapshots.", s.SnapshotEntries)
	counter("rolagd_snapshot_warm_hits_total", "Cache hits served by snapshot-restored entries.", s.SnapshotWarmHits)

	fmt.Fprintf(w, "# HELP rolagd_emit_total Requests by requested output format.\n")
	fmt.Fprintf(w, "# TYPE rolagd_emit_total counter\n")
	fmt.Fprintf(w, "rolagd_emit_total{format=\"ir\"} %d\n", s.EmitIR)
	fmt.Fprintf(w, "rolagd_emit_total{format=\"asm\"} %d\n", s.EmitAsm)

	if len(s.PassSkipped) > 0 {
		fmt.Fprintf(w, "# HELP rolagd_pass_skipped_total Pass executions rolled back and skipped, by pass.\n")
		fmt.Fprintf(w, "# TYPE rolagd_pass_skipped_total counter\n")
		names := make([]string, 0, len(s.PassSkipped))
		for name := range s.PassSkipped {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "rolagd_pass_skipped_total{pass=%q} %d\n", name, s.PassSkipped[name])
		}
	}
	if len(s.Breakers) > 0 {
		fmt.Fprintf(w, "# HELP rolagd_breaker_state Per-pass breaker state (0 closed, 1 half-open, 2 open).\n")
		fmt.Fprintf(w, "# TYPE rolagd_breaker_state gauge\n")
		for _, b := range s.Breakers {
			v := 0
			switch b.State {
			case BreakerHalfOpen:
				v = 1
			case BreakerOpen:
				v = 2
			}
			fmt.Fprintf(w, "rolagd_breaker_state{pass=%q} %d\n", b.Pass, v)
		}
	}

	fmt.Fprintf(w, "# HELP rolagd_in_flight_jobs Requests currently being served.\n")
	fmt.Fprintf(w, "# TYPE rolagd_in_flight_jobs gauge\nrolagd_in_flight_jobs %d\n", s.InFlight)
	fmt.Fprintf(w, "# HELP rolagd_cache_entries Entries currently in the result cache.\n")
	fmt.Fprintf(w, "# TYPE rolagd_cache_entries gauge\nrolagd_cache_entries %d\n", s.CacheEntries)
	fmt.Fprintf(w, "# HELP rolagd_workers Size of the worker pool.\n")
	fmt.Fprintf(w, "# TYPE rolagd_workers gauge\nrolagd_workers %d\n", s.Workers)

	counter("rolagd_fuzz_execs_total", "Differential-fuzzing oracle executions.", s.Fuzz.Execs)
	counter("rolagd_fuzz_skipped_total", "Fuzz inputs skipped before exercising the pipeline.", s.Fuzz.Skipped)
	counter("rolagd_fuzz_failures_total", "Fuzz failures across all classes.", s.Fuzz.Failures)
	counter("rolagd_fuzz_fail_compile_total", "Fuzz failures: frontend rejections.", s.Fuzz.FailCompile)
	counter("rolagd_fuzz_fail_verify_total", "Fuzz failures: verifier or pass errors.", s.Fuzz.FailVerify)
	counter("rolagd_fuzz_fail_equiv_total", "Fuzz failures: interpreter-observable miscompiles.", s.Fuzz.FailEquiv)
	counter("rolagd_fuzz_fail_cost_total", "Fuzz failures: dishonest cost-model reports.", s.Fuzz.FailCost)
	counter("rolagd_fuzz_fail_panic_total", "Fuzz failures: panics in any stage.", s.Fuzz.FailPanic)
	counter("rolagd_fuzz_fail_remark_total", "Fuzz failures: remark streams that misreport rolling decisions.", s.Fuzz.FailRemark)
	counter("rolagd_fuzz_fail_backend_total", "Fuzz failures: backend lowering errors or nondeterministic encodings.", s.Fuzz.FailBackend)

	if len(s.Remarks) > 0 {
		fmt.Fprintf(w, "# HELP rolagd_remarks_total Optimization remarks emitted, by pass and reason.\n")
		fmt.Fprintf(w, "# TYPE rolagd_remarks_total counter\n")
		for _, r := range s.Remarks {
			fmt.Fprintf(w, "rolagd_remarks_total{pass=%q,reason=%q} %d\n", r.Pass, r.Reason, r.Count)
		}
	}

	if len(s.Phases) > 0 {
		fmt.Fprintf(w, "# HELP rolagd_phase_seconds Wall-clock of RoLAG pipeline phases.\n")
		fmt.Fprintf(w, "# TYPE rolagd_phase_seconds histogram\n")
		for _, ph := range s.Phases {
			writeHistogram(w, "rolagd_phase_seconds", fmt.Sprintf("phase=%q", ph.Phase), ph.HistSnapshot)
		}
	}

	fmt.Fprintf(w, "# HELP rolagd_compile_seconds Latency of fresh compilations.\n")
	fmt.Fprintf(w, "# TYPE rolagd_compile_seconds histogram\n")
	writeHistogram(w, "rolagd_compile_seconds", "", fleet.HistSnapshot{
		Count: s.LatencyCount, SumSeconds: s.LatencySumSeconds, Buckets: s.LatencyBuckets,
	})
}

// writeHistogram renders one histogram series' _bucket, _sum and
// _count lines; labels ("k=\"v\"" pairs, possibly empty) precede le.
func writeHistogram(w io.Writer, name, labels string, h fleet.HistSnapshot) {
	sep, braced := "", ""
	if labels != "" {
		sep, braced = ",", "{"+labels+"}"
	}
	for _, b := range h.Buckets {
		le := "+Inf"
		if b.LE < fleet.Inf {
			le = fmt.Sprintf("%g", b.LE)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, b.Count)
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, braced, h.SumSeconds)
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced, h.Count)
}
