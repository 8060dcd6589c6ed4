package ir

import (
	"math/rand"
	"testing"
)

// verifyCase builds one function with a single, deliberate defect (or
// none) and names the exact error Verify must report for it.
type verifyCase struct {
	name  string
	build func() *Func
	want  string // "" means the function verifies clean
}

// verifyCases holds one corruption per error path of Verify, plus the
// unreachable-block shapes whose verdicts follow from its dominance
// rule: every root of the CFG (the entry and each block without
// predecessors) starts its own dominator tree, and a block no root
// reaches is dominated by every block.
var verifyCases = []verifyCase{
	{"clean", func() *Func {
		// Its phis use values defined at the end of a predecessor,
		// including the loop's own back edge.
		return buildSumFunc(NewModule("t"))
	}, ""},
	{"duplicate-param", func() *Func {
		f := NewModule("t").NewFunc("f", Void, &Param{Name: "x", Typ: I32}, &Param{Name: "x", Typ: I32})
		NewBuilder(f.NewBlock("entry")).Ret(nil)
		return f
	}, "ir verify: f: duplicate name %x"},
	{"duplicate-block", func() *Func {
		f := NewModule("t").NewFunc("f", Void)
		a := f.NewBlock("entry")
		b := &Block{Name: "entry", Parent: f}
		f.Blocks = append(f.Blocks, b)
		NewBuilder(a).Br(b)
		NewBuilder(b).Ret(nil)
		return f
	}, "ir verify: f:entry: duplicate block name"},
	{"unterminated", func() *Func {
		f := NewModule("t").NewFunc("f", Void)
		b := f.NewBlock("entry")
		NewBuilder(b).Add(ConstInt(I32, 1), ConstInt(I32, 2))
		return f
	}, "ir verify: f:entry: block is not terminated"},
	{"parent-mismatch", func() *Func {
		f := NewModule("t").NewFunc("f", Void)
		a := f.NewBlock("entry")
		b := f.NewBlock("next")
		x := NewBuilder(a).Add(ConstInt(I32, 1), ConstInt(I32, 2))
		NewBuilder(a).Br(b)
		NewBuilder(b).Ret(nil)
		x.Parent = b
		return f
	}, "ir verify: f:entry: %t = add i32 1, 2: instruction parent mismatch"},
	{"terminator-mid-block", func() *Func {
		f := NewModule("t").NewFunc("f", Void)
		bd := NewBuilder(f.NewBlock("entry"))
		bd.Ret(nil)
		bd.Ret(nil)
		return f
	}, "ir verify: f:entry: ret void: terminator in the middle of a block"},
	{"phi-not-grouped", func() *Func {
		f := NewModule("t").NewFunc("f", Void)
		a := f.NewBlock("entry")
		b := f.NewBlock("next")
		NewBuilder(a).Br(b)
		bd := NewBuilder(b)
		bd.Add(ConstInt(I32, 1), ConstInt(I32, 2))
		AddIncoming(bd.Phi(I32, "p"), ConstInt(I32, 0), a)
		bd.Ret(nil)
		return f
	}, "ir verify: f:next: %p = phi i32 [0, %entry]: phi not grouped at the start of the block"},
	{"unnamed-value", func() *Func {
		f := NewModule("t").NewFunc("f", Void)
		b := f.NewBlock("entry")
		b.Append(&Instr{Op: OpAdd, Typ: I32, Operands: []Value{ConstInt(I32, 1), ConstInt(I32, 2)}})
		NewBuilder(b).Ret(nil)
		return f
	}, "ir verify: f:entry: add i32 1, 2: value-producing instruction has no name"},
	{"duplicate-instr-name", func() *Func {
		f := NewModule("t").NewFunc("f", Void, &Param{Name: "x", Typ: I32})
		b := f.NewBlock("entry")
		b.Append(&Instr{Op: OpAdd, Typ: I32, Name: "x", Operands: []Value{ConstInt(I32, 1), ConstInt(I32, 2)}})
		NewBuilder(b).Ret(nil)
		return f
	}, "ir verify: f:entry: %x = add i32 1, 2: duplicate name %x"},
	{"nil-operand", func() *Func {
		f := NewModule("t").NewFunc("f", Void)
		a := f.NewBlock("entry")
		b := f.NewBlock("next")
		NewBuilder(a).Br(b).Operands = []Value{nil}
		NewBuilder(b).Ret(nil)
		return f
	}, "ir verify: f:entry: br %next: nil operand 0"},
	{"foreign-instr", func() *Func {
		m := NewModule("t")
		g := m.NewFunc("g", I32)
		y := NewBuilder(g.NewBlock("entry")).Add(ConstInt(I32, 1), ConstInt(I32, 2))
		f := m.NewFunc("f", I32)
		NewBuilder(f.NewBlock("entry")).Ret(y)
		return f
	}, "ir verify: f:entry: ret i32 %t: operand %t is not defined in this function"},
	{"foreign-param", func() *Func {
		m := NewModule("t")
		g := m.NewFunc("g", Void, &Param{Name: "p", Typ: I32})
		f := m.NewFunc("f", I32)
		NewBuilder(f.NewBlock("entry")).Ret(g.Params[0])
		return f
	}, "ir verify: f:entry: ret i32 %p: operand %p is not a parameter of this function"},
	{"foreign-global", func() *Func {
		gl := NewModule("other").NewGlobal("g", I32, nil)
		f := NewModule("t").NewFunc("f", I32)
		bd := NewBuilder(f.NewBlock("entry"))
		bd.Ret(bd.Load(gl))
		return f
	}, "ir verify: f:entry: %t = load i32, i32* @g: operand @g belongs to another module"},
	{"type-error", func() *Func {
		f := NewModule("t").NewFunc("f", Void, &Param{Name: "p", Typ: Ptr(I32)})
		b := f.NewBlock("entry")
		b.Append(&Instr{Op: OpStore, Typ: Void, Operands: []Value{ConstInt(I64, 1), f.Params[0]}})
		NewBuilder(b).Ret(nil)
		return f
	}, "ir verify: f:entry: store i64 1, i32* %p: store of i64 to i32*"},
	{"phi-edge-count", func() *Func {
		f := NewModule("t").NewFunc("f", Void)
		a := f.NewBlock("entry")
		b := f.NewBlock("next")
		NewBuilder(a).Br(b)
		bd := NewBuilder(b)
		bd.Phi(I32, "p")
		bd.Ret(nil)
		return f
	}, "ir verify: f:next: %p = phi i32 : phi has 0 incoming edges, block has 1 predecessors"},
	{"phi-missing-pred", func() *Func {
		f := NewModule("t").NewFunc("f", Void, &Param{Name: "c", Typ: I1})
		entry := f.NewBlock("entry")
		l := f.NewBlock("l")
		r := f.NewBlock("r")
		join := f.NewBlock("join")
		NewBuilder(entry).CondBr(f.Params[0], l, r)
		NewBuilder(l).Br(join)
		NewBuilder(r).Br(join)
		bd := NewBuilder(join)
		p := bd.Phi(I32, "p")
		AddIncoming(p, ConstInt(I32, 1), l)
		AddIncoming(p, ConstInt(I32, 2), entry)
		bd.Ret(nil)
		return f
	}, "ir verify: f:join: %p = phi i32 [1, %l], [2, %entry]: phi missing incoming value for predecessor %r"},
	{"use-before-def", func() *Func {
		f := NewModule("t").NewFunc("f", I32)
		b := f.NewBlock("entry")
		x := &Instr{Op: OpAdd, Typ: I32, Name: "x", Operands: []Value{ConstInt(I32, 1), ConstInt(I32, 2)}}
		y := &Instr{Op: OpAdd, Typ: I32, Name: "y", Operands: []Value{x, ConstInt(I32, 3)}}
		b.Append(y)
		b.Append(x)
		NewBuilder(b).Ret(y)
		return f
	}, "ir verify: f:entry: %y = add i32 %x, 3: use of %x is not dominated by its definition"},
	{"use-in-sibling", func() *Func {
		f := NewModule("t").NewFunc("f", I32, &Param{Name: "c", Typ: I1})
		entry := f.NewBlock("entry")
		l := f.NewBlock("l")
		r := f.NewBlock("r")
		NewBuilder(entry).CondBr(f.Params[0], l, r)
		bl := NewBuilder(l)
		x := bl.Add(ConstInt(I32, 1), ConstInt(I32, 2))
		bl.Ret(x)
		NewBuilder(r).Ret(x)
		return f
	}, "ir verify: f:r: ret i32 %t: use of %t is not dominated by its definition"},
	{"phi-use-not-dominated", func() *Func {
		f := NewModule("t").NewFunc("f", I32, &Param{Name: "c", Typ: I1})
		entry := f.NewBlock("entry")
		l := f.NewBlock("l")
		r := f.NewBlock("r")
		join := f.NewBlock("join")
		NewBuilder(entry).CondBr(f.Params[0], l, r)
		bl := NewBuilder(l)
		x := bl.Add(ConstInt(I32, 1), ConstInt(I32, 2))
		bl.Br(join)
		NewBuilder(r).Br(join)
		bd := NewBuilder(join)
		p := bd.Phi(I32, "p")
		AddIncoming(p, x, l)
		AddIncoming(p, x, r)
		bd.Ret(p)
		return f
	}, "ir verify: f:join: %p = phi i32 [%t, %l], [%t, %r]: use of %t is not dominated by its definition"},
	{"unreachable-cycle-uses-entry-value", func() *Func {
		f := NewModule("t").NewFunc("f", I32)
		entry := f.NewBlock("entry")
		dead := f.NewBlock("dead")
		be := NewBuilder(entry)
		x := be.Add(ConstInt(I32, 1), ConstInt(I32, 2))
		be.Ret(x)
		bd := NewBuilder(dead)
		bd.Add(x, ConstInt(I32, 1))
		bd.Br(dead)
		return f
	}, ""},
	{"unreachable-cycle-uses-later-value", func() *Func {
		f := NewModule("t").NewFunc("f", I32)
		entry := f.NewBlock("entry")
		d1 := f.NewBlock("d1")
		d2 := f.NewBlock("d2")
		NewBuilder(entry).Ret(ConstInt(I32, 0))
		b1 := NewBuilder(d1)
		b2 := NewBuilder(d2)
		y := b2.Add(ConstInt(I32, 1), ConstInt(I32, 2))
		b2.Br(d1)
		b1.Add(y, ConstInt(I32, 1))
		b1.Br(d2)
		return f
	}, ""},
	{"unreachable-root-uses-own-value", func() *Func {
		f := NewModule("t").NewFunc("f", I32)
		entry := f.NewBlock("entry")
		dead := f.NewBlock("dead")
		NewBuilder(entry).Ret(ConstInt(I32, 0))
		bd := NewBuilder(dead)
		x := bd.Add(ConstInt(I32, 1), ConstInt(I32, 2))
		bd.Ret(x)
		return f
	}, ""},
	{"unreachable-root-uses-entry-value", func() *Func {
		f := NewModule("t").NewFunc("f", I32)
		entry := f.NewBlock("entry")
		dead := f.NewBlock("dead")
		be := NewBuilder(entry)
		x := be.Add(ConstInt(I32, 1), ConstInt(I32, 2))
		be.Ret(x)
		NewBuilder(dead).Ret(x)
		return f
	}, "ir verify: f:dead: ret i32 %t: use of %t is not dominated by its definition"},
	{"unreachable-chain-uses-root-value", func() *Func {
		f := NewModule("t").NewFunc("f", I32)
		entry := f.NewBlock("entry")
		d1 := f.NewBlock("d1")
		d2 := f.NewBlock("d2")
		NewBuilder(entry).Ret(ConstInt(I32, 0))
		b1 := NewBuilder(d1)
		x := b1.Add(ConstInt(I32, 1), ConstInt(I32, 2))
		b1.Br(d2)
		NewBuilder(d2).Ret(x)
		return f
	}, ""},
	{"unreachable-pred-cuts-dominance", func() *Func {
		f := NewModule("t").NewFunc("f", I32)
		entry := f.NewBlock("entry")
		dead := f.NewBlock("dead")
		join := f.NewBlock("join")
		be := NewBuilder(entry)
		x := be.Add(ConstInt(I32, 1), ConstInt(I32, 2))
		be.Br(join)
		NewBuilder(dead).Br(join)
		NewBuilder(join).Ret(x)
		return f
	}, "ir verify: f:join: ret i32 %t: use of %t is not dominated by its definition"},
	{"entry-back-edge", func() *Func {
		f := NewModule("t").NewFunc("f", I32, &Param{Name: "c", Typ: I1})
		entry := f.NewBlock("entry")
		body := f.NewBlock("body")
		exit := f.NewBlock("exit")
		be := NewBuilder(entry)
		x := be.Add(ConstInt(I32, 1), ConstInt(I32, 2))
		be.Br(body)
		bb := NewBuilder(body)
		bb.CondBr(f.Params[0], entry, exit)
		NewBuilder(exit).Ret(x)
		return f
	}, ""},
	{"branch-outside-function", func() *Func {
		m := NewModule("t")
		g := m.NewFunc("g", Void)
		elsewhere := g.NewBlock("elsewhere")
		NewBuilder(elsewhere).Ret(nil)
		f := m.NewFunc("f", Void)
		NewBuilder(f.NewBlock("entry")).Br(elsewhere)
		return f
	}, ""},
}

func TestVerifyErrors(t *testing.T) {
	for _, tc := range verifyCases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Verify()
			got := ""
			if err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Errorf("Verify() = %q\nwant       %q", got, tc.want)
			}
		})
	}
}

// iterativeDominators is the textbook data-flow dominator computation
// the verifier used before its dominator tree: dom(entry) = {entry},
// dom(b) = {b} ∪ ⋂ dom(p) over b's predecessors, solved from full sets
// down to the greatest fixed point. It is the reference for domTree.
func iterativeDominators(f *Func) map[*Block]map[*Block]bool {
	dom := make(map[*Block]map[*Block]bool, len(f.Blocks))
	for i, b := range f.Blocks {
		dom[b] = map[*Block]bool{b: true}
		if i > 0 {
			for _, o := range f.Blocks {
				dom[b][o] = true
			}
		}
	}
	preds := make(map[*Block][]*Block)
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks[1:] {
			inter := map[*Block]bool{}
			for i, p := range preds[b] {
				for k := range dom[p] {
					if i == 0 || inter[k] {
						inter[k] = true
					}
				}
				for k := range inter {
					if !dom[p][k] {
						delete(inter, k)
					}
				}
			}
			inter[b] = true
			if len(inter) != len(dom[b]) {
				dom[b] = inter
				changed = true
			}
		}
	}
	return dom
}

// TestDomTreeMatchesIterative compares the verifier's dominator tree
// with the iterative reference on random CFGs, including unreachable
// blocks, unreachable cycles, edges into the entry block and branches
// to a block outside the function.
func TestDomTreeMatchesIterative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewModule("t")
	outside := m.NewFunc("g", Void).NewBlock("outside")
	for iter := 0; iter < 2000; iter++ {
		f := m.NewFunc("f", Void, &Param{Name: "c", Typ: I1})
		n := 1 + rng.Intn(9)
		for i := 0; i < n; i++ {
			f.NewBlock("b")
		}
		pick := func() *Block {
			if rng.Intn(20) == 0 {
				return outside
			}
			return f.Blocks[rng.Intn(n)]
		}
		for _, b := range f.Blocks {
			bd := NewBuilder(b)
			switch rng.Intn(3) {
			case 0:
				bd.Ret(nil)
			case 1:
				bd.Br(pick())
			default:
				bd.CondBr(f.Params[0], pick(), pick())
			}
		}
		index := make(map[*Block]int, n)
		for i, b := range f.Blocks {
			index[b] = i
		}
		got := newCFG(f, index).domTree()
		want := iterativeDominators(f)
		for ai, a := range f.Blocks {
			for bi, b := range f.Blocks {
				if ai != bi && got.dominates(ai, bi) != want[b][a] {
					t.Fatalf("dominates(%d, %d) = %t, iterative says %t\n%s",
						ai, bi, got.dominates(ai, bi), want[b][a], f)
				}
			}
		}
		m.Funcs = m.Funcs[:1]
	}
}
