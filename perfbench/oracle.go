package main

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"rolag"
	"rolag/internal/backend"
	"rolag/internal/interp"
	"rolag/internal/ir"
)

// oracleWorkers runs the oracle on the same two CPUs the workloads use;
// it is outside every timed phase.
const oracleWorkers = 2

// interpSeeds are the oracle's fixed interpreter inputs.
const interpSeeds = 3

// input is one distinct program a workload compiles.
type input struct {
	src string
	// fn is the function the interpreter runs: the corpus function or
	// TSVC kernel, under the name this input gives it.
	fn string
	// class groups inputs that are one program under different function
	// names (the renamed TSVC passes); base is the class's own name for
	// fn. Deterministic totals count each class once.
	class int
	base  string
}

// reference is the oracle's verdict on one input.
type reference struct {
	irHash, asmHash [32]byte
	code            [32]byte // codeDigest of the machine code
	textBytes       int64
	err             error
}

// oracle holds the reference for every input and the per-class
// interpreter step counts.
type oracle struct {
	refs  []reference
	steps map[int]int64
}

// runOracle builds the reference for every input with a serial
// fail-hard rolag.Build and lowers it, then checks outputs to be
// interpreter-equivalent to the OptNone compile of the same source:
// one check per class representative (its first input), which also
// gives the class's step count, plus one for any other input whose
// output is not the representative's text up to the function's name.
// Only the modules that still need a check are kept in memory.
func runOracle(inputs []input, unrollFactor int, flatten, asm bool) *oracle {
	o := &oracle{refs: make([]reference, len(inputs)), steps: map[int]int64{}}
	build := func(i int) (*ir.Module, string) {
		in := inputs[i]
		res, err := rolag.Build(in.src, rolag.Config{Name: in.fn, Opt: rolag.OptRoLAG, Unroll: unrollFactor, Flatten: flatten})
		if err != nil {
			o.refs[i].err = fmt.Errorf("reference build: %w", err)
			return nil, ""
		}
		br, err := backend.Compile(res.Module, nil)
		if err != nil {
			o.refs[i].err = fmt.Errorf("reference lowering: %w", err)
			return nil, ""
		}
		text := res.Module.String()
		o.refs[i] = reference{irHash: sha256.Sum256([]byte(text)), code: codeDigest(br.Code), textBytes: br.Code.Text}
		if asm {
			o.refs[i].asmHash = sha256.Sum256([]byte(br.Asm()))
		}
		return res.Module, strings.ReplaceAll(text, in.fn, in.base)
	}

	rep := map[int]int{} // class -> representative input
	var reps, rest []int
	for i, in := range inputs {
		if _, ok := rep[in.class]; ok {
			rest = append(rest, i)
			continue
		}
		rep[in.class] = i
		reps = append(reps, i)
	}
	mods := make([]*ir.Module, len(inputs))
	canon := make([]string, len(inputs))
	parallel(len(reps), func(j int) {
		i := reps[j]
		mods[i], canon[i] = build(i)
	})
	parallel(len(rest), func(j int) {
		i := rest[j]
		if m, c := build(i); m != nil && c != canon[rep[inputs[i].class]] {
			mods[i] = m
		}
	})

	var mu sync.Mutex
	parallel(len(inputs), func(i int) {
		if mods[i] == nil {
			return
		}
		in := inputs[i]
		none, err := rolag.Build(in.src, rolag.Config{Name: in.fn, Opt: rolag.OptNone})
		if err == nil {
			err = interp.CheckEquiv(none.Module, mods[i], in.fn, interpSeeds, nil)
		}
		if err != nil {
			o.refs[i].err = fmt.Errorf("not interpreter-equivalent to the OptNone compile: %w", err)
			return
		}
		if rep[in.class] != i {
			return
		}
		var steps int64
		h := &interp.Harness{}
		for seed := int64(1); seed <= interpSeeds; seed++ {
			if ob, err := h.Run(mods[i], in.fn, seed); err == nil {
				steps += ob.Steps
			}
		}
		mu.Lock()
		o.steps[in.class] = steps
		mu.Unlock()
	})
	return o
}

// execSteps sums the interpreter step counts over every class.
func (o *oracle) execSteps() float64 {
	var s int64
	for _, v := range o.steps {
		s += v
	}
	return float64(s)
}

// parallel calls fn(0..n-1) on oracleWorkers goroutines and waits.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < oracleWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
