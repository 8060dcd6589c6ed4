package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"rolag/internal/rolagdapi"
)

func TestNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{hundred, 0.5, 50},
		{hundred, 0.99, 99},
		{hundred, 1, 100},
		{hundred, 0.001, 1},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
	} {
		if got := nearestRank(c.sorted, c.p); got != c.want {
			t.Errorf("nearestRank(n=%d, p=%g) = %g, want %g", len(c.sorted), c.p, got, c.want)
		}
	}
}

// The highest reported percentile must have at least minTail samples
// beyond it: p99 needs 1000 samples, p50 needs 20.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 0.99, 10},
		{999, 0.99, 9},
		{20, 0.5, 10},
		{19, 0.5, 9},
		{100, 0.9, 10},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	d := make(dist, 999)
	if _, err := d.quantile("lat", 0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	d = append(d, 0)
	if _, err := d.quantile("lat", 0.99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
}

func TestPoissonScheduleIsFixedBySeed(t *testing.T) {
	const rate, span = 500.0, 4 * time.Second
	keys := make([]int, 5000)
	for i := range keys {
		keys[i] = i
	}
	a := poissonSchedule(rand.New(rand.NewSource(9)), rate, span, keys)
	b := poissonSchedule(rand.New(rand.NewSource(9)), rate, span, keys)
	c := poissonSchedule(rand.New(rand.NewSource(10)), rate, span, keys)
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedule lengths %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("different seeds gave the same schedule")
	}
	want := rate * span.Seconds()
	if n := float64(len(a)); n < 0.9*want || n > 1.1*want {
		t.Errorf("%d arrivals in %v at %g/s, want about %g", len(a), span, rate, want)
	}
	for i, arr := range a {
		if arr.key != i {
			t.Fatalf("arrival %d carries key %d; keys must be taken in order", i, arr.key)
		}
		if arr.due >= span || (i > 0 && arr.due < a[i-1].due) {
			t.Fatalf("arrival %d due at %v: out of order or beyond %v", i, arr.due, span)
		}
	}
}

func TestZipfKeysSkewAndDeterminism(t *testing.T) {
	byRank := rand.New(rand.NewSource(2)).Perm(800)
	a := zipfKeys(rand.New(rand.NewSource(3)), 4000, byRank, zipfS)
	b := zipfKeys(rand.New(rand.NewSource(3)), 4000, byRank, zipfS)
	count := map[int]int{}
	for i, k := range a {
		if k != b[i] {
			t.Fatalf("same seed, key %d differs", i)
		}
		if k < 0 || k >= 800 {
			t.Fatalf("key %d out of range", k)
		}
		count[k]++
	}
	top := 0
	for _, c := range count {
		top = max(top, c)
	}
	// Under s=1.2 the hottest key draws about a fifth of all requests.
	if top < 400 || len(count) > 600 {
		t.Errorf("hottest key %d of 4000 draws, %d distinct keys: not zipfian", top, len(count))
	}
}

func TestPopularityOrderDealsEverySizeBand(t *testing.T) {
	// Distinct sizes: entry k is the size[k]-th smallest.
	size := rand.New(rand.NewSource(4)).Perm(800)
	order := popularityOrder(rand.New(rand.NewSource(7)), size)
	if len(order) != len(size) {
		t.Fatalf("%d ranks for %d entries", len(order), len(size))
	}
	seen := map[int]bool{}
	for _, k := range order {
		if seen[k] {
			t.Fatalf("entry %d ranked twice", k)
		}
		seen[k] = true
	}
	for j := 0; j < len(order); j += sizeStrata {
		bands := map[int]bool{}
		for _, k := range order[j : j+sizeStrata] {
			bands[size[k]*sizeStrata/len(size)] = true
		}
		if len(bands) != sizeStrata {
			t.Fatalf("ranks %d..%d cover size bands %v, want all %d", j, j+sizeStrata-1, bands, sizeStrata)
		}
	}
	if again := popularityOrder(rand.New(rand.NewSource(7)), size); !slices.Equal(again, order) {
		t.Error("same seed, different popularity order")
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{spans: []span{
		{ID: 1, Name: "request", start: at(0), end: at(100)},
		{ID: 2, Parent: 1, Name: "passes.sandbox", start: at(10), end: at(50)},
		{ID: 3, Parent: 2, Name: "passes.cse", start: at(20), end: at(45)},
		{ID: 4, Parent: 1, Name: "rolag", start: at(50), end: at(90)},
	}}
	want := map[string]time.Duration{
		"request":        20 * time.Millisecond,
		"passes.sandbox": 15 * time.Millisecond,
		"passes.cse":     25 * time.Millisecond,
		"rolag":          40 * time.Millisecond,
	}
	got := tr.selfTimes()
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

// An open-loop request is timed from when it was due: when both
// senders are busy, the requests behind them are sent late and the
// wait counts in their latency.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const serve = 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(serve)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"ir":"x","elapsedMs":30}`)
	}))
	defer srv.Close()
	f := &fleet{httpc: srv.Client(), routed: make([]bool, clients)}
	for range clients {
		f.clients = append(f.clients, &rolagdapi.Client{BaseURL: srv.URL, HTTPClient: f.httpc, MaxAttempts: 1})
	}
	sched := []arrival{{0, 0}, {time.Millisecond, 1}, {2 * time.Millisecond, 2}, {3 * time.Millisecond, 3}}
	replies, start := f.openLoop(sched, func(int) *rolagdapi.CompileRequest { return &rolagdapi.CompileRequest{Source: "x"} })
	for i, r := range replies {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if !r.due.Equal(start.Add(sched[i].due)) {
			t.Errorf("request %d due at %v, want start+%v", i, r.due.Sub(start), sched[i].due)
		}
		if r.sent.Before(r.due) {
			t.Errorf("request %d sent %v before it was due", i, r.due.Sub(r.sent))
		}
	}
	// Requests 2 and 3 wait for a sender to come back from a 30 ms reply.
	for _, i := range []int{2, 3} {
		if late := replies[i].sent.Sub(replies[i].due); late < serve/2 {
			t.Errorf("request %d only %v late behind two busy senders", i, late)
		}
		if lat := replies[i].end.Sub(replies[i].due); lat < serve+serve/2 {
			t.Errorf("request %d latency %v does not include its wait for a sender", i, lat)
		}
	}
}
