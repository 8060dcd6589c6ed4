package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/backend/encode"
	"rolag/internal/workloads/angha"
)

// batchPipeline is the offline compiler path (rolagc -emit bytes):
// fail-hard, no unrolling, machine code out, no IR printed.
var batchPipeline = pipeline{lower: true}

// anghaMix is the angha generator's default family mix, in percent.
var anghaMix = []struct {
	fam    string
	weight int
}{
	{angha.FamPlain, 38}, {angha.FamNearMiss, 14}, {angha.FamStoreSeq, 14}, {angha.FamFieldCopy, 9},
	{angha.FamCallSeq, 9}, {angha.FamStridedPtr, 6}, {angha.FamReduction, 6}, {angha.FamChainedCall, 4},
}

// anghaCorpus draws n seeded angha functions with each family's share
// fixed at the default mix: the seed varies every function but not the
// mix, which halves the seed-to-seed spread of corpus-wide totals.
func anghaCorpus(n int, seed int64) []angha.Function {
	var out []angha.Function
	for i, m := range anghaMix {
		out = append(out, angha.GenerateMix(n*m.weight/100, seed*int64(len(anghaMix))+int64(i), angha.Mix{m.fam: 1})...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// runAnghaBatch compiles every seeded angha function through fail-hard
// rolag.Build and backend.Compile from two closed-loop goroutines, with
// no cache, daemon or HTTP in the path.
func runAnghaBatch(p params) (*result, error) {
	res := newResult("angha-batch")
	corpus := anghaCorpus(p.size.anghaFuncs, p.seed)
	// The warm-up set does not depend on the seed, so every run's
	// set-up does the same work.
	warm := angha.Generate(p.size.warmFuncs, 0)

	compile := func(f angha.Function) (*encode.ModuleCode, error) {
		r, err := rolag.Build(f.Src, rolag.Config{Name: f.Name, Opt: rolag.OptRoLAG})
		if err != nil {
			return nil, err
		}
		b, err := backend.Compile(r.Module, nil)
		if err != nil {
			return nil, err
		}
		return b.Code, nil
	}

	// Set-up is the warm-up: both workers compile a fixed slice of
	// other functions so lazy initialisation is paid before timing.
	setup, err := setupMedian(p.size.setupReps, func() (func(), error) {
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(warm); i += clients {
					if _, err := compile(warm[i]); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	type record struct {
		idx  int
		lat  time.Duration
		code [32]byte // codeDigest
		text int64
		err  error
	}
	// Each worker keeps its own records; the run ends at the deadline,
	// but never before every corpus function was compiled once and p99
	// has its samples.
	recs := make([][]record, clients)
	var next, done atomic.Int64
	m := startMeter(&done)
	start := time.Now()
	deadline := start.Add(p.seconds)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= max(len(corpus), minSamples) && time.Now().After(deadline) {
					return
				}
				idx := i % len(corpus)
				st := time.Now()
				code, err := compile(corpus[idx])
				r := record{idx: idx, lat: time.Since(st), err: err}
				if err == nil {
					r.code, r.text = codeDigest(code), code.Text
					done.Add(1)
				}
				recs[w] = append(recs[w], r)
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	u := m.end()

	inputs := make([]input, len(corpus))
	for i, f := range corpus {
		inputs[i] = input{src: f.Src, fn: f.Name, class: i, base: f.Name}
	}
	orc := runOracle(inputs, 0, false, false)

	var lats dist
	served := make([]*record, len(corpus))
	for _, rs := range recs {
		for _, r := range rs {
			res.attempted++
			ref := orc.refs[r.idx]
			switch {
			case r.err != nil:
				res.failed++
				res.problem("%s: %v", corpus[r.idx].Name, r.err)
			case ref.err != nil || r.code != ref.code:
				res.failed++
				res.wrong++
				if ref.err != nil {
					res.problem("%s: %v", corpus[r.idx].Name, ref.err)
				} else {
					res.problem("%s: machine code differs from the serial fail-hard reference", corpus[r.idx].Name)
				}
			default:
				lats = append(lats, ms(r.lat))
				if served[r.idx] == nil {
					served[r.idx] = &r
				}
			}
		}
	}
	var text int64
	for _, r := range served {
		if r != nil {
			text += r.text
		}
	}
	if err := fillTiming(res, lats, wall, u); err != nil {
		return nil, err
	}
	res.e2e["text_bytes"] = float64(text)
	res.e2e["exec_steps"] = orc.execSteps()

	if p.traced {
		rin := make([]replayInput, len(corpus))
		for i, f := range corpus {
			rin[i] = replayInput{src: f.Src, name: f.Name, irHash: orc.refs[i].irHash}
			if served[i] != nil {
				rin[i].code = served[i].code
			}
		}
		if _, err := traceReplay(res, rin, batchPipeline, p.spanPath(res.workload)); err != nil {
			return res, err
		}
		zeroUnusedLayers(res)
	}
	return res, nil
}
