package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// metricDef names one reported metric and its unit. The two catalogs
// below are the metric lists of BENCHMARK.json (a test keeps them
// equal); LAYERS.md says which end-to-end metric each layer metric
// should move, and on which workload.
type metricDef struct {
	name, unit string
}

// endToEnd is reported per workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_fps", "fn/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_fn", "ms/fn"},
	{"allocs_per_fn", "allocs/fn"},
	{"peak_heap_mb", "MB"},
	{"text_bytes", "bytes"},
	{"exec_steps", "steps"},
}

// perLayer is reported per workload by the traced run, named by the
// module whose public functions the replay times. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"rolag.ms_per_fn", "ms/fn"},
	{"rolag.seed.ms_per_fn", "ms/fn"},
	{"rolag.align.ms_per_fn", "ms/fn"},
	{"rolag.schedule.ms_per_fn", "ms/fn"},
	{"rolag.codegen.ms_per_fn", "ms/fn"},
	{"rolag.seed_groups", "count"},
	{"rolag.graphs_built", "count"},
	{"rolag.schedule_failed", "count"},
	{"rolag.not_profitable", "count"},
	{"rolag.loops_rolled", "count"},
	{"rolag.roll_yield", "ratio"},
	{"passes.mem2reg.ms_per_fn", "ms/fn"},
	{"passes.constfold.ms_per_fn", "ms/fn"},
	{"passes.simplify.ms_per_fn", "ms/fn"},
	{"passes.ifconvert.ms_per_fn", "ms/fn"},
	{"passes.cse.ms_per_fn", "ms/fn"},
	{"passes.licm.ms_per_fn", "ms/fn"},
	{"passes.dce.ms_per_fn", "ms/fn"},
	{"passes.flatten.ms_per_fn", "ms/fn"},
	{"passes.changed_frac", "ratio"},
	{"passes.instrs_out", "instrs/fn"},
	{"passes.sandbox.ms_per_fn", "ms/fn"},
	{"passes.sandbox.runs", "count"},
	{"passes.sandbox.skips", "count"},
	{"unroll.ms_per_fn", "ms/fn"},
	{"unroll.instrs_out", "instrs/fn"},
	{"cc.ms_per_fn", "ms/fn"},
	{"cc.instrs_out", "instrs/fn"},
	{"costmodel.ms_per_fn", "ms/fn"},
	{"ir.verify.ms_per_fn", "ms/fn"},
	{"ir.print.ms_per_fn", "ms/fn"},
	{"ir.instrs_final", "instrs/fn"},
	{"backend.lower.ms_per_fn", "ms/fn"},
	{"backend.encode.ms_per_fn", "ms/fn"},
	{"backend.asm.ms_per_fn", "ms/fn"},
	{"backend.rodata_bytes", "bytes"},
	{"service.hit_rate", "ratio"},
	{"service.hit_ms_p50", "ms"},
	{"service.miss_ms_p50", "ms"},
	{"service.wait_ms_per_miss", "ms"},
	{"service.compiles", "count"},
	{"service.dedup_hits", "count"},
	{"service.shed", "count"},
	{"service.degraded", "count"},
	{"daemon.http_ms_p50", "ms"},
	{"daemon.http_ms_p99", "ms"},
	{"cluster.hop_ms_p50", "ms"},
	{"cluster.hop_ms_p99", "ms"},
	{"cluster.failovers", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.alloc_mb_per_fn", "MB/fn"},
	{"bench.late_p99_ms", "ms"},
	{"bench.unattributed_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

// result is everything one workload run measured.
type result struct {
	workload  string
	attempted int
	failed    int
	// wrong counts outputs that differ from the oracle; any makes the
	// run incorrect.
	wrong int
	// problems explains every wrong output and parity break.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
	// samples is the sample count behind each percentile metric.
	samples map[string]int
	// table is the traced run's per-layer breakdown (nil untraced).
	table []tableRow
}

type tableRow struct {
	layer     string
	msPerFn   float64
	shareWall float64
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, layers: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.wrong == 0 && len(r.problems) == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize selects the catalog the run reports: end-to-end metrics
// untraced, per-layer metrics traced. A catalog metric the run did not
// compute is an error, so no name is silently dropped.
func (r *result) summarize(traced bool) (summary, error) {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	s := summary{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return s, fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		s.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return s, nil
}

// printReport writes the human-readable report: every metric with its
// unit (and sample count where one applies), then the per-layer table.
func (r *result) printReport(w io.Writer) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d (failed_frac %.4f), wrong outputs %d\n",
		r.workload, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)), r.wrong)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	show := func(title string, defs []metricDef, vals map[string]float64) {
		if len(vals) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-28s %14.4f %s", d.name, v, d.unit)
			if n, ok := r.samples[d.name]; ok {
				line += fmt.Sprintf("  (n=%d)", n)
			}
			fmt.Fprintln(w, line)
		}
	}
	show("end-to-end", endToEnd, r.e2e)
	show("per-layer", perLayer, r.layers)
	if r.table != nil {
		fmt.Fprintln(w, "per-layer self time (traced replay; share of the untraced pipeline wall):")
		for _, row := range r.table {
			fmt.Fprintf(w, "  %-28s %10.4f ms/fn %8.2f%%\n", row.layer, row.msPerFn, 100*row.shareWall)
		}
	}
}

func writeSummary(w io.Writer, s summary) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// fillTiming sets the throughput, latency and per-compile cost metrics
// from one timed phase's correct compiles. Throughput and CPU per
// compile are medians over the phase's full windows, and peak_heap_mb
// is the 90th percentile of the windows' highest heap goals
// (whole-phase values when the phase was shorter than one window). A
// high percentile, not the maximum, so that one collection landing on
// the largest compiles in flight does not set it; not the median, so
// that a heap still growing (rolagd's cache filling on tsvc-cold) is
// read near its end, not at mid-run, where it depends on throughput.
func fillTiming(res *result, lats dist, wall time.Duration, u usage) error {
	n := float64(len(lats))
	if n == 0 {
		return fmt.Errorf("%s: no correct compile in the timed phase", res.workload)
	}
	p99, err := lats.quantile("latency", 0.99)
	if err != nil {
		return err
	}
	fps, cpu, heap := []float64{n / wall.Seconds()}, []float64{ms(u.cpu) / n}, []float64{float64(u.peakHeap)}
	if len(u.windows) > 0 {
		fps, cpu, heap = nil, nil, nil
		for _, w := range u.windows {
			fps = append(fps, float64(w.done)/w.dur.Seconds())
			cpu = append(cpu, ms(w.cpu)/float64(max(w.done, 1)))
			heap = append(heap, float64(w.peak))
		}
	}
	res.e2e["throughput_fps"] = median(fps)
	res.e2e["cpu_ms_per_fn"] = median(cpu)
	res.samples["throughput_fps"] = len(fps)
	res.samples["cpu_ms_per_fn"] = len(cpu)
	res.e2e["latency_p50_ms"] = lats.p50()
	res.e2e["latency_p99_ms"] = p99
	res.samples["latency_p50_ms"] = len(lats)
	res.samples["latency_p99_ms"] = len(lats)
	res.e2e["allocs_per_fn"] = float64(u.mallocs) / n
	res.e2e["peak_heap_mb"] = nearestRank(dist(heap).sorted(), 0.9) / (1 << 20)
	res.samples["peak_heap_mb"] = len(heap)
	res.layers["go.gc_cpu_frac"] = u.gcCPUFrac
	res.layers["go.alloc_mb_per_fn"] = float64(u.allocBytes) / (1 << 20) / n
	return nil
}

// zeroUnusedLayers reports the serving-side layers a workload does not
// run as 0.
func zeroUnusedLayers(res *result) {
	for _, name := range []string{
		"service.hit_rate", "service.hit_ms_p50", "service.miss_ms_p50", "service.wait_ms_per_miss",
		"service.compiles", "service.dedup_hits", "service.shed", "service.degraded",
		"daemon.http_ms_p50", "daemon.http_ms_p99", "cluster.hop_ms_p50", "cluster.hop_ms_p99",
		"cluster.failovers", "bench.late_p99_ms",
	} {
		if _, ok := res.layers[name]; !ok {
			res.layers[name] = 0
		}
	}
}
