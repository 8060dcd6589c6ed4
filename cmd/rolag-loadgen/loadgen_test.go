package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// parseConfig builds a config from command-line style args on a
// private flag set.
func parseConfig(t *testing.T, args ...string) *config {
	t.Helper()
	fs := flag.NewFlagSet("rolag-loadgen", flag.ContinueOnError)
	cfg := flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestValidate: every out-of-range flag is rejected up front with a
// message naming it, and the defaults and the boundary values pass.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // "" means valid
	}{
		{nil, ""},
		{[]string{"-n", "1", "-requests", "1", "-shards", "1", "-workers", "1"}, ""},
		{[]string{"-direct-frac", "0"}, ""},
		{[]string{"-direct-frac", "1"}, ""},
		{[]string{"-zipf-s", "1.0001", "-chaos-kill-frac", "0.99"}, ""},
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-requests", "0"}, "-requests"},
		{[]string{"-shards", "0"}, "-shards"},
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-rate", "0"}, "-rate"},
		{[]string{"-rate", "NaN"}, "-rate"},
		{[]string{"-zipf-s", "1"}, "-zipf-s"},
		{[]string{"-direct-frac", "-0.1"}, "-direct-frac"},
		{[]string{"-direct-frac", "1.5"}, "-direct-frac"},
		{[]string{"-chaos-kill-frac", "0"}, "-chaos-kill-frac"},
		{[]string{"-chaos-kill-frac", "1"}, "-chaos-kill-frac"},
	} {
		err := parseConfig(t, tc.args...).validate()
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}

// pick is one request of a burst: its corpus index and its route.
type pick struct{ idx, to int }

// The first 64 requests each mode issued for seed 20220402 (corpus 400,
// zipf-s 1.2, 3 shards, direct-frac 0.25) before the modes shared one
// driver. Main mode draws its direct-frac coin from the zipf stream,
// interleaved with the picks; chaos and fleet send everything through
// the router, so they share one sequence.
var (
	mainPicks = []pick{
		{25, 0}, {4, -1}, {0, -1}, {2, -1}, {4, -1}, {0, 2}, {87, -1}, {0, 1}, {5, 2}, {5, -1}, {8, -1}, {3, -1}, {0, -1},
		{0, -1}, {4, -1}, {9, -1}, {0, -1}, {0, -1}, {49, -1}, {2, -1}, {0, -1}, {3, -1}, {3, -1}, {296, -1}, {16, -1},
		{45, -1}, {1, -1}, {235, -1}, {0, -1}, {4, -1}, {19, -1}, {0, -1}, {6, -1}, {0, -1}, {0, -1}, {0, 2}, {142, -1},
		{0, -1}, {0, 2}, {119, 0}, {0, 1}, {1, -1}, {11, -1}, {121, -1}, {22, -1}, {85, -1}, {69, -1}, {23, -1}, {49, -1},
		{320, -1}, {0, -1}, {188, -1}, {2, -1}, {169, -1}, {237, -1}, {0, -1}, {1, -1}, {137, -1}, {1, 1}, {63, 2},
		{0, -1}, {0, 1}, {0, -1}, {4, 0},
	}
	routerPicks = []int{
		25, 178, 4, 0, 0, 0, 2, 0, 4, 13, 0, 65, 87, 1, 0, 103, 5, 50, 5, 13, 8, 19, 3, 12, 0, 2, 0, 7, 4, 0, 9, 0,
		0, 4, 0, 2, 49, 12, 2, 1, 0, 2, 3, 0, 3, 0, 296, 2, 16, 2, 45, 0, 1, 0, 235, 3, 0, 3, 4, 0, 19, 2, 0, 1,
	}
)

// TestRequestSequence pins each mode's request sequence for the
// committed records' seed, so BENCH_{cluster,chaos,fleet}.json stay
// reproducible.
func TestRequestSequence(t *testing.T) {
	cfg := parseConfig(t)
	next := sequence(cfg, directRoute(cfg.directFrac, cfg.shards))
	for i, want := range mainPicks {
		if _, idx, to := next(i); (pick{idx, to}) != want {
			t.Fatalf("main request %d = %v, want %v", i, pick{idx, to}, want)
		}
	}
	next = sequence(cfg, nil)
	for i, want := range routerPicks {
		if _, idx, to := next(i); idx != want || to != viaRouter {
			t.Fatalf("chaos/fleet request %d = %v, want {%d %d}", i, pick{idx, to}, want, viaRouter)
		}
	}
}

// toy is the shared toy-size fleet: two shards, an 8-function corpus.
var toy = []string{"-shards", "2", "-n", "8", "-requests", "30", "-timeout", "5s"}

func checkGates(t *testing.T, out *outcome) {
	t.Helper()
	for _, msg := range out.failed {
		t.Errorf("gate failed: %s", msg)
	}
	if t.Failed() {
		t.Logf("summary: %v", out.summary)
	}
}

func TestClusterMode(t *testing.T) {
	out, err := runCluster(parseConfig(t, append(toy, "-direct-frac", "0.5")...))
	if err != nil {
		t.Fatal(err)
	}
	checkGates(t, out)
	res := out.record.(*Result)
	if res.Parity.Checked == 0 || res.Completed != 30 {
		t.Errorf("parity checked %d, completed %d of 30", res.Parity.Checked, res.Completed)
	}
}

func TestChaosMode(t *testing.T) {
	// Slow enough traffic that requests keep arriving after the victim
	// is back and the router's probes have seen it up again.
	out, err := runChaos(parseConfig(t, append(toy, "-chaos", "-rate", "25",
		"-chaos-restart-delay", "100ms", "-chaos-snapshot-interval", "50ms")...))
	if err != nil {
		t.Fatal(err)
	}
	checkGates(t, out)
	res := out.record.(*ChaosResult)
	if res.Parity.Checked == 0 || res.Victim.SnapshotEntries == 0 || res.Victim.DownMs < 100 {
		t.Errorf("parity checked %d, victim %+v", res.Parity.Checked, res.Victim)
	}
}

func TestFleetMode(t *testing.T) {
	out, err := runFleet(parseConfig(t, append(toy, "-fleet", "-fleet-trace-buf", "4096")...))
	if err != nil {
		t.Fatal(err)
	}
	checkGates(t, out)
	if res := out.record.(*FleetResult); res.Trace.Sampled != 30 {
		t.Errorf("sampled %d traces, want 30", res.Trace.Sampled)
	}
}

// TestCommittedRecords: each committed record decodes into its record
// type with no unknown field, and encodes back to the same key set.
func TestCommittedRecords(t *testing.T) {
	for file, rec := range map[string]any{
		"BENCH_cluster.json": &Result{},
		"BENCH_chaos.json":   &ChaosResult{},
		"BENCH_fleet.json":   &FleetResult{},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "results", file))
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(rec); err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		again, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := keySet(t, again), keySet(t, data); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: re-encoded keys\n%v\nwant\n%v", file, got, want)
		}
	}
}

// keySet lists every object key path in a JSON document, sorted.
func keySet(t *testing.T, data []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				keys = append(keys, prefix+"."+k)
				walk(prefix+"."+k, e)
			}
		case []any:
			for _, e := range v {
				walk(prefix+"[]", e)
			}
		}
	}
	walk("", v)
	sort.Strings(keys)
	return slices.Compact(keys)
}
