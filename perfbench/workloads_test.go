package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"rolag/internal/cc"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// tinySizes keeps each workload to a few seconds while still giving
// every percentile its 1000 samples.
var tinySizes = sizes{
	anghaFuncs:  40,
	warmFuncs:   4,
	tsvcKernels: 12,
	zipfCorpus:  60,
	zipfRate:    700,
	zipfWarm:    100,
	setupReps:   2,
}

var tinySeconds = map[string]time.Duration{
	"angha-batch": 4 * time.Second,
	"tsvc-cold":   6 * time.Second,
	"angha-zipf":  2 * time.Second,
}

// A tiny traced run of every workload must emit every named metric with
// its catalog unit, in both summaries, with every output correct and
// replay parity intact.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			p := params{seed: 5, seconds: tinySeconds[name], traced: true, spanDir: t.TempDir(), size: tinySizes}
			res, err := run(p)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.failed != 0 {
				t.Fatalf("correct=%v failed=%d problems=%v", res.correct(), res.failed, res.problems)
			}
			for _, traced := range []bool{false, true} {
				s, err := res.summarize(traced)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := writeSummary(&buf, s); err != nil {
					t.Fatal(err)
				}
				var got summary
				if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
					t.Fatalf("summary line %q: %v", buf.String(), err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(got.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(got.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := got.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %q", traced, d.name, m, d.unit)
					}
				}
			}
			for _, d := range endToEnd {
				if res.e2e[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %g; every end-to-end metric must be positive", d.name, res.e2e[d.name])
				}
			}
			var buf bytes.Buffer
			res.printReport(&buf)
			for _, want := range []string{"unattributed", "(traced replay wall)", "latency_p99_ms"} {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("report lacks %q", want)
				}
			}
		})
	}
}

// The traced run refuses to report layers when its replay does not
// reproduce what was served.
func TestReplayParityGuard(t *testing.T) {
	f := angha.Generate(1, 1)[0]
	in := []replayInput{{src: f.Src, name: f.Name}} // zero hash: nothing real matches it
	res := newResult("test")
	_, err := traceReplay(res, in, batchPipeline, t.TempDir()+"/spans.json")
	if !errors.Is(err, errParity) {
		t.Fatalf("traceReplay with a wrong served hash: err = %v, want a parity error", err)
	}
	if len(res.table) != 0 || len(res.problems) != 1 {
		t.Errorf("parity break left table %v and problems %v", res.table, res.problems)
	}
}

// Every TSVC kernel takes its per-pass name at its definition, and the
// renamed program compiles with the kernel under that name.
func TestRenamedKernelsCompile(t *testing.T) {
	for _, k := range tsvc.Kernels() {
		src, name := renamed(k, "r7")
		if strings.Count(src, " "+name+"(") != 1 {
			t.Fatalf("%s: renamed source defines %s %d times", k.Name, name, strings.Count(src, " "+name+"("))
		}
		m, err := cc.Compile(src, name)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if f := m.FindFunc(name); f == nil || f.IsDecl() {
			t.Fatalf("%s: no definition of %s after renaming", k.Name, name)
		}
	}
}

// BENCHMARK.json lists the harness's workloads, but for those left out
// on purpose, and exactly its metrics.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range b.Workloads {
		listed[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the harness", w.Name)
		}
	}
	for name := range workloads {
		if _, off := offBenchmark[name]; listed[name] == off {
			t.Errorf("workload %s: in BENCHMARK.json %v, left out on purpose %v; want exactly one", name, listed[name], off)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
