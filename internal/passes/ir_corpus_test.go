package passes_test

import (
	"slices"
	"testing"

	"rolag/internal/cc"
	"rolag/internal/ir"
	"rolag/internal/passes"
	"rolag/internal/reroll"
	"rolag/internal/unroll"
	"rolag/internal/workloads/angha"
	"rolag/internal/workloads/tsvc"
)

// checkEachPass runs the standard pipeline with the verifier after
// every pass (the pipeline panics with the pass name on a failure),
// then checks Func.Users against usersReference.
func checkEachPass(t *testing.T, name string, m *ir.Module) {
	t.Helper()
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: %v", name, r)
			}
		}()
		p := passes.Standard()
		p.Verify = true
		p.Run(m)
	}()
	for _, f := range m.Funcs {
		got, want := f.Users(), usersReference(f)
		if len(got) != len(want) {
			t.Fatalf("%s: Users has %d values, reference %d", name, len(got), len(want))
		}
		for v, us := range want {
			if !slices.Equal(got[v], us) {
				t.Fatalf("%s: users of %s differ from the reference", name, v.Ident())
			}
		}
	}
}

// usersReference is Func.Users as a per-instruction set: each
// instruction is listed once per distinct operand, in program order.
func usersReference(f *ir.Func) map[ir.Value][]*ir.Instr {
	users := make(map[ir.Value][]*ir.Instr)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			seen := make(map[ir.Value]bool, len(in.Operands))
			for _, op := range in.Operands {
				if op == nil || seen[op] {
					continue
				}
				seen[op] = true
				users[op] = append(users[op], in)
			}
		}
	}
	return users
}

// TestVerifyCorpusAfterEveryPass holds the verifier's verdict on real
// pipeline output: every angha corpus function and every TSVC kernel,
// rolled and as the paper's §V.C experiment unrolls it by 8, stays
// verifier-clean after each standard pass and after flattening. Each
// stage also checks Func.Users against the reference.
func TestVerifyCorpusAfterEveryPass(t *testing.T) {
	for _, fn := range angha.Generate(300, 20220402) {
		m, err := cc.Compile(fn.Src, fn.Name)
		if err != nil {
			t.Fatalf("%s: %v", fn.Name, err)
		}
		checkEachPass(t, fn.Name, m)
	}
	for _, k := range tsvc.Kernels() {
		m, err := cc.Compile(k.Src, k.Name)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		checkEachPass(t, k.Name, m)
		for _, f := range m.Funcs {
			unroll.UnrollAll(f, 8)
		}
		checkEachPass(t, k.Name+" unrolled", m)
		for _, f := range m.Funcs {
			passes.Flatten(f)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("%s: after flatten: %v", k.Name, err)
		}
		checkEachPass(t, k.Name+" flattened", m)
	}
}

// shadowStages are the whole-function transformations the served
// pipeline runs in the sandbox besides the standard passes, each with
// the change report its caller hands the sandbox (see rolag.go).
var shadowStages = []passes.FuncPass{
	{Name: "unroll", Run: func(f *ir.Func) bool { return unroll.UnrollAll(f, 8) > 0 }},
	{Name: "flatten", Run: passes.Flatten},
	{Name: "reroll", Run: func(f *ir.Func) bool { return reroll.RerollFuncObs(f, nil) > 0 }},
}

// checkHonest runs the standard pipeline in place one pass at a time,
// then each shadow stage on a copy of every function, and fails if an
// execution that reported no change altered the printed function. The
// sandbox commits such an execution without verifying or adopting it.
func checkHonest(t *testing.T, name string, m *ir.Module) {
	t.Helper()
	check := func(pass string, f *ir.Func, run func(*ir.Func) bool) {
		t.Helper()
		before := f.String()
		if !run(f) {
			if after := f.String(); after != before {
				t.Fatalf("%s: %s reported no change but changed @%s:\nbefore:\n%s\nafter:\n%s",
					name, pass, f.Name, before, after)
			}
		}
	}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		for _, p := range passes.Standard().Passes {
			check(p.Name, f, p.Run)
		}
		for _, p := range shadowStages {
			check(p.Name, ir.ShadowFunc(f), p.Run)
		}
	}
}

// TestChangeReportsHonest holds every sandboxed transformation to its
// change report on the real corpora: every angha function and TSVC
// kernel, rolled and unrolled by 8, must come out of a pass that
// reported no change printing byte-identically.
func TestChangeReportsHonest(t *testing.T) {
	type input struct{ name, src string }
	var ins []input
	for _, fn := range angha.Generate(300, 20220402) {
		ins = append(ins, input{fn.Name, fn.Src})
	}
	for _, k := range tsvc.Kernels() {
		ins = append(ins, input{k.Name, k.Src})
	}
	for _, in := range ins {
		m, err := cc.Compile(in.src, in.name)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		checkHonest(t, in.name, m)
		for _, f := range m.Funcs {
			unroll.UnrollAll(f, 8)
		}
		checkHonest(t, in.name+" unrolled", m)
	}
}

// BenchmarkVerify times the verifier on a TSVC kernel unrolled by 8,
// the shape the fail-soft sandbox verifies after every pass of a served
// §V.C compile.
func BenchmarkVerify(b *testing.B) {
	k := tsvc.Find("s000")
	m, err := cc.Compile(k.Src, k.Name)
	if err != nil {
		b.Fatal(err)
	}
	passes.Standard().Run(m)
	f := m.FindFunc(k.Func)
	unroll.UnrollAll(f, 8)
	passes.Standard().Run(m)
	if err := f.Verify(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.NumInstrs()), "instrs")
}

// BenchmarkSandboxedPipeline times the standard pipeline under the
// fail-soft sandbox on a TSVC kernel freshly unrolled by 8, the
// canonicalization a served §V.C compile runs after unrolling.
func BenchmarkSandboxedPipeline(b *testing.B) {
	k := tsvc.Find("s000")
	m, err := cc.Compile(k.Src, k.Name)
	if err != nil {
		b.Fatal(err)
	}
	passes.Standard().Run(m)
	f := m.FindFunc(k.Func)
	unroll.UnrollAll(f, 8)
	p := passes.Standard()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := ir.ShadowFunc(f)
		b.StartTimer()
		p.RunFuncSandboxed(g, &passes.Sandbox{})
	}
}
