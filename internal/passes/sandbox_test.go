package passes_test

import (
	"strings"
	"testing"
	"time"

	"rolag/internal/faultpoint"
	"rolag/internal/ir"
	"rolag/internal/passes"
)

const sandboxSrc = `
int f(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += i * 3 + 1;
	return s;
}`

func lowerF(t *testing.T) (*ir.Module, *ir.Func) {
	t.Helper()
	m := lower(t, sandboxSrc)
	return m, m.FindFunc("f")
}

func TestSandboxPanicRollsBack(t *testing.T) {
	_, f := lowerF(t)
	before := f.String()
	sb := &passes.Sandbox{}
	changed, ok := sb.RunShadow("boom", f, func(sf *ir.Func) bool {
		sf.Blocks = nil // half-done mutation the rollback must discard
		panic("kaboom")
	})
	if changed || ok {
		t.Fatalf("panicking pass committed: changed=%v ok=%v", changed, ok)
	}
	if got := f.String(); got != before {
		t.Fatalf("function mutated after rollback:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	rep := sb.Report()
	if rep == nil || len(rep.Skips) != 1 {
		t.Fatalf("want one skip, got %v", rep)
	}
	sk := rep.Skips[0]
	if sk.Pass != "boom" || sk.Func != "f" || sk.Reason != passes.SkipPanic {
		t.Fatalf("bad skip record: %+v", sk)
	}
	if !strings.Contains(sk.Detail, "kaboom") {
		t.Fatalf("skip detail lost the panic value: %q", sk.Detail)
	}
}

func TestSandboxTimeoutAbandons(t *testing.T) {
	_, f := lowerF(t)
	before := f.String()
	sb := &passes.Sandbox{Budget: 20 * time.Millisecond}
	release := make(chan struct{})
	_, ok := sb.RunShadow("slow", f, func(sf *ir.Func) bool {
		<-release // wedged until after the sandbox gave up
		sf.Blocks = nil
		return true
	})
	close(release)
	if ok {
		t.Fatal("wedged pass committed")
	}
	if got := f.String(); got != before {
		t.Fatalf("function mutated by abandoned pass:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	rep := sb.Report()
	if rep == nil || rep.Skips[0].Reason != passes.SkipTimeout {
		t.Fatalf("want timeout skip, got %v", rep)
	}
}

func TestSandboxVerifyFailureRollsBack(t *testing.T) {
	_, f := lowerF(t)
	before := f.String()
	sb := &passes.Sandbox{}
	_, ok := sb.RunShadow("corrupter", f, func(sf *ir.Func) bool {
		// Drop the entry block's terminator: the verifier must refuse it.
		b := sf.Blocks[0]
		b.Instrs = b.Instrs[:len(b.Instrs)-1]
		return true
	})
	if ok {
		t.Fatal("verifier-rejected pass committed")
	}
	if got := f.String(); got != before {
		t.Fatal("function kept verifier-rejected mutation")
	}
	rep := sb.Report()
	if rep == nil || rep.Skips[0].Reason != passes.SkipVerify {
		t.Fatalf("want verify skip, got %v", rep)
	}
}

func TestSandboxCommitMatchesDirectRun(t *testing.T) {
	_, sandboxed := lowerF(t)
	_, direct := lowerF(t)

	sb := &passes.Sandbox{}
	changed, ok := sb.RunShadow("mem2reg", sandboxed, passes.Mem2Reg)
	if !ok || !changed {
		t.Fatalf("healthy pass did not commit: changed=%v ok=%v", changed, ok)
	}
	if sb.Report() != nil {
		t.Fatalf("clean run produced a report: %v", sb.Report())
	}
	if !passes.Mem2Reg(direct) {
		t.Fatal("direct Mem2Reg reported no change")
	}
	if sandboxed.String() != direct.String() {
		t.Fatalf("sandboxed commit diverged from direct run:\nsandboxed:\n%s\ndirect:\n%s",
			sandboxed, direct)
	}
}

// vetoGuard refuses one pass and records Report calls.
type vetoGuard struct {
	veto    string
	reports []string
}

func (g *vetoGuard) Allow(pass string) bool { return pass != g.veto }
func (g *vetoGuard) Report(pass string, ok bool) {
	g.reports = append(g.reports, pass)
}

func TestSandboxGuardVeto(t *testing.T) {
	_, f := lowerF(t)
	g := &vetoGuard{veto: "licm"}
	sb := &passes.Sandbox{Guard: g}
	ran := false
	_, ok := sb.RunShadow("licm", f, func(*ir.Func) bool { ran = true; return true })
	if ok || ran {
		t.Fatalf("vetoed pass ran: ok=%v ran=%v", ok, ran)
	}
	rep := sb.Report()
	if rep == nil || rep.Skips[0].Reason != passes.SkipBreaker {
		t.Fatalf("want breaker skip, got %v", rep)
	}
	if len(g.reports) != 0 {
		t.Fatalf("Report called for a refused execution: %v", g.reports)
	}
	// A permitted pass still reports its outcome.
	if _, ok := sb.RunShadow("mem2reg", f, passes.Mem2Reg); !ok {
		t.Fatal("permitted pass did not commit")
	}
	if len(g.reports) != 1 || g.reports[0] != "mem2reg" {
		t.Fatalf("want one report for mem2reg, got %v", g.reports)
	}
}

func TestRunInPlaceRollsBackGlobals(t *testing.T) {
	m, f := lowerF(t)
	before := f.String()
	nGlobals := len(m.Globals)
	sb := &passes.Sandbox{}
	_, ok := sb.RunInPlace("rolag", f, func(tf *ir.Func) bool {
		m.Globals = append(m.Globals, &ir.Global{Name: "junk", Elem: ir.I32, Parent: m})
		panic("codegen died")
	})
	if ok {
		t.Fatal("panicking in-place pass committed")
	}
	if len(m.Globals) != nGlobals {
		t.Fatalf("appended globals survived rollback: %d -> %d", nGlobals, len(m.Globals))
	}
	if got := f.String(); got != before {
		t.Fatal("function body not restored by in-place rollback")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("module broken after rollback: %v", err)
	}
}

func TestRunInPlaceBudgetOverrun(t *testing.T) {
	_, f := lowerF(t)
	before := f.String()
	sb := &passes.Sandbox{Budget: time.Millisecond}
	_, ok := sb.RunInPlace("rolag", f, func(tf *ir.Func) bool {
		time.Sleep(20 * time.Millisecond)
		return true
	})
	if ok {
		t.Fatal("over-budget in-place pass committed")
	}
	rep := sb.Report()
	if rep == nil || rep.Skips[0].Reason != passes.SkipTimeout {
		t.Fatalf("want timeout skip, got %v", rep)
	}
	if f.String() != before {
		t.Fatal("function mutated by rolled-back in-place pass")
	}
}

func TestDegradedPassesSortedDistinct(t *testing.T) {
	d := &passes.Degraded{Skips: []passes.Skip{
		{Pass: "rolag", Func: "a"},
		{Pass: "licm", Func: "b"},
		{Pass: "rolag", Func: "c"},
	}}
	got := d.Passes()
	if len(got) != 2 || got[0] != "licm" || got[1] != "rolag" {
		t.Fatalf("Passes() = %v, want [licm rolag]", got)
	}
}

// probe is a no-op pass that records the shadow it ran on and how that
// shadow printed.
type probe struct {
	fn   *ir.Func
	text string
}

func (p *probe) run(sf *ir.Func) bool {
	p.fn, p.text = sf, sf.String()
	return false
}

// breakBody drops the entry block's terminator, a mutation that both
// changes the printed function and fails the verifier.
func breakBody(sf *ir.Func) {
	b := sf.Blocks[0]
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
}

func TestSandboxNoopReusesShadow(t *testing.T) {
	_, f := lowerF(t)
	before := f.String()
	sb := &passes.Sandbox{}
	var p1, p2 probe
	if changed, ok := sb.RunShadow("a", f, p1.run); changed || !ok {
		t.Fatalf("no-op pass: changed=%v ok=%v", changed, ok)
	}
	if got := f.String(); got != before {
		t.Fatalf("no-op pass altered the function:\n%s", got)
	}
	sb.RunShadow("b", f, p2.run)
	if p2.fn != p1.fn {
		t.Fatal("the shadow of a no-op pass was not reused")
	}
	if p2.text != before {
		t.Fatalf("reused shadow differs from the function:\n%s", p2.text)
	}
}

const twoFuncSrc = sandboxSrc + `
int g(int a) { return a * 2 + 1; }`

// TestSandboxSpareDropped checks that every outcome other than a no-op
// shadow execution drops the spare: the execution after it starts from
// a fresh copy of the committed body, never from a shadow a pass may
// have damaged (or, after a timeout, may still be damaging).
func TestSandboxSpareDropped(t *testing.T) {
	cases := []struct {
		name  string
		spoil func(t *testing.T, sb *passes.Sandbox, m *ir.Module, f *ir.Func)
	}{
		{"commit", func(t *testing.T, sb *passes.Sandbox, m *ir.Module, f *ir.Func) {
			if changed, ok := sb.RunShadow("mem2reg", f, passes.Mem2Reg); !changed || !ok {
				t.Fatalf("mem2reg: changed=%v ok=%v", changed, ok)
			}
		}},
		{"panic", func(t *testing.T, sb *passes.Sandbox, m *ir.Module, f *ir.Func) {
			sb.RunShadow("boom", f, func(sf *ir.Func) bool {
				breakBody(sf)
				panic("kaboom")
			})
		}},
		{"timeout", func(t *testing.T, sb *passes.Sandbox, m *ir.Module, f *ir.Func) {
			sb.Budget = 20 * time.Millisecond
			defer func() { sb.Budget = 0 }()
			release, mutated := make(chan struct{}), make(chan struct{})
			sb.RunShadow("slow", f, func(sf *ir.Func) bool {
				<-release
				breakBody(sf)
				close(mutated)
				return false
			})
			close(release)
			<-mutated
		}},
		{"verify", func(t *testing.T, sb *passes.Sandbox, m *ir.Module, f *ir.Func) {
			sb.RunShadow("corrupter", f, func(sf *ir.Func) bool {
				breakBody(sf)
				return true
			})
		}},
		{"veto", func(t *testing.T, sb *passes.Sandbox, m *ir.Module, f *ir.Func) {
			sb.Guard = &vetoGuard{veto: "licm"}
			defer func() { sb.Guard = nil }()
			sb.RunShadow("licm", f, func(*ir.Func) bool { return false })
		}},
		{"in-place", func(t *testing.T, sb *passes.Sandbox, m *ir.Module, f *ir.Func) {
			before := f.String()
			sb.RunInPlaceIn("rolag", f, m, func(tf *ir.Func) bool {
				breakBody(tf)
				panic("codegen died")
			})
			if got := f.String(); got != before {
				t.Fatalf("in-place rollback did not restore the body:\n%s", got)
			}
		}},
		{"other function", func(t *testing.T, sb *passes.Sandbox, m *ir.Module, f *ir.Func) {
			g := m.FindFunc("g")
			var q probe
			sb.RunShadow("probe", g, q.run)
			if q.text != g.String() {
				t.Fatalf("g ran on a copy of another function:\n%s", q.text)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := lower(t, twoFuncSrc)
			f := m.FindFunc("f")
			sb := &passes.Sandbox{}
			var p1, p2 probe
			sb.RunShadow("probe", f, p1.run)
			c.spoil(t, sb, m, f)
			sb.RunShadow("probe", f, p2.run)
			if p2.fn == p1.fn {
				t.Fatal("the spare survived")
			}
			if want := f.String(); p2.text != want {
				t.Fatalf("next execution did not start from the committed body:\ngot:\n%s\nwant:\n%s", p2.text, want)
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("committed module broken: %v", err)
			}
		})
	}
}

// TestSandboxNoopKeepsNameCounter: names a no-op pass drew from the
// function's counter stay drawn, so the next fresh name is the one the
// fail-hard path (which runs the same pass in place) would produce.
func TestSandboxNoopKeepsNameCounter(t *testing.T) {
	_, f := lowerF(t)
	_, direct := lowerF(t)
	draw := func(sf *ir.Func) bool {
		sf.UniqueName("n") // %n is taken: advances the counter
		return false
	}
	sb := &passes.Sandbox{}
	sb.RunShadow("draw", f, draw)
	draw(direct)
	var got string
	sb.RunShadow("name", f, func(sf *ir.Func) bool {
		got = sf.UniqueName("n")
		return false
	})
	if want := direct.UniqueName("n"); got != want {
		t.Fatalf("next fresh name %q, fail-hard path gives %q", got, want)
	}
	if got, want := f.UniqueName("n"), direct.UniqueName("n"); got != want {
		t.Fatalf("committed function's next fresh name %q, fail-hard path gives %q", got, want)
	}
}

// TestSandboxCorruptFaultVerified: an injected corruption is a change
// even when the pass itself changed nothing, so the commit gate
// verifies and rejects it instead of keeping the damaged shadow.
func TestSandboxCorruptFaultVerified(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	m := lower(t, twoFuncSrc)
	f := m.FindFunc("g") // straight-line: LICM has nothing to do
	if passes.LICM(ir.ShadowFunc(f)) {
		t.Fatal("precondition: LICM changed @g")
	}
	before := f.String()
	sb := &passes.Sandbox{}
	faultpoint.Arm("pass:licm", faultpoint.KindCorrupt, 1)
	if _, ok := sb.RunShadow("licm", f, passes.LICM); ok {
		t.Fatal("corrupted execution committed")
	}
	rep := sb.Report()
	if rep == nil || len(rep.Skips) != 1 || rep.Skips[0].Reason != passes.SkipVerify {
		t.Fatalf("want one verify skip, got %v", rep)
	}
	if got := f.String(); got != before {
		t.Fatalf("function changed by a rejected execution:\n%s", got)
	}
	if changed, ok := sb.RunShadow("mem2reg", f, passes.Mem2Reg); !changed || !ok {
		t.Fatalf("next pass did not commit: changed=%v ok=%v", changed, ok)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("committed function broken: %v", err)
	}
}
