package passes_test

import (
	"slices"
	"testing"

	"rolag/internal/cc"
	"rolag/internal/ir"
	"rolag/internal/passes"
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
