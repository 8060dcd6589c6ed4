package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile:
// a percentile with fewer samples above it is mostly the noise of its
// few largest samples.
const minTail = 10

// minSamples is the fewest latencies that support a p99: a closed-loop
// run ends at its deadline, but not before this many compiles.
const minSamples = 100 * minTail

// nearestRank returns the p-th quantile (0 < p <= 1) of sorted by the
// nearest-rank rule: the smallest sample with at least p·n samples at
// or below it. sorted must be ascending and non-empty.
func nearestRank(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th quantile's position.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// dist is a sample of durations in milliseconds.
type dist []float64

func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile reports the nearest-rank p-th quantile and fails when the
// sample cannot support it (fewer than minTail samples beyond it), so
// no reported tail percentile rests on a handful of samples.
func (d dist) quantile(name string, p float64) (float64, error) {
	if len(d) == 0 || beyond(len(d), p) < minTail {
		return 0, fmt.Errorf("%s: %d samples cannot support p%g (need %d beyond it)", name, len(d), 100*p, minTail)
	}
	return nearestRank(d.sorted(), p), nil
}

// p50 is the median, or 0 for an empty sample (a layer that did not
// run on this workload).
func (d dist) p50() float64 {
	if len(d) == 0 {
		return 0
	}
	return nearestRank(d.sorted(), 0.5)
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

// median of a small set of repeated measurements (set-up times).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// arrival is one open-loop request: when it is due, relative to the
// start of the measured phase, and which corpus entry it asks for.
type arrival struct {
	due time.Duration
	key int
}

// zipfKeys draws n keys with Zipf exponent s over the corpus entries
// byRank lists in popularity order: byRank[0] is the hottest key.
func zipfKeys(rng *rand.Rand, n int, byRank []int, s float64) []int {
	z := rand.NewZipf(rng, s, 1, uint64(len(byRank)-1))
	keys := make([]int, n)
	for i := range keys {
		keys[i] = byRank[z.Uint64()]
	}
	return keys
}

// sizeStrata is how many size bands popularityOrder deals from.
const sizeStrata = 8

// popularityOrder gives each popularity rank a corpus entry so that
// every block of sizeStrata consecutive ranks holds one entry from each
// size band (entries sorted by size and cut into sizeStrata equal
// bands). Which entry of a band lands on which rank is seeded; the
// spread of sizes over the ranks is not, so the seed does not decide
// how many of the costliest functions fall among the rarely drawn keys
// that arrive as cache misses.
func popularityOrder(rng *rand.Rand, size []int) []int {
	idx := rng.Perm(len(size))
	sort.SliceStable(idx, func(a, b int) bool { return size[idx[a]] < size[idx[b]] })
	bands := make([][]int, sizeStrata)
	for b := range bands {
		bands[b] = idx[b*len(idx)/sizeStrata : (b+1)*len(idx)/sizeStrata]
	}
	order := make([]int, 0, len(size))
	for j := 0; len(order) < len(size); j++ {
		for _, b := range rng.Perm(sizeStrata) {
			if j < len(bands[b]) {
				order = append(order, bands[b][j])
			}
		}
	}
	return order
}

// poissonSchedule fixes an open-loop arrival schedule before the run:
// exponential gaps at rate per second, covering span, each arrival
// paired with the next key. Generation stops at span or when keys run
// out, whichever is first.
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration, keys []int) []arrival {
	var out []arrival
	t := 0.0
	for _, k := range keys {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			break
		}
		out = append(out, arrival{due: due, key: k})
	}
	return out
}
