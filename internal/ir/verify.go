package ir

import (
	"fmt"
)

// VerifyError describes a structural or type error found by Verify.
type VerifyError struct {
	Func  string
	Block string
	Instr string
	Msg   string
}

func (e *VerifyError) Error() string {
	loc := e.Func
	if e.Block != "" {
		loc += ":" + e.Block
	}
	if e.Instr != "" {
		loc += ": " + e.Instr
	}
	return fmt.Sprintf("ir verify: %s: %s", loc, e.Msg)
}

// Verify checks the structural invariants of the module: every block is
// terminated, SSA definitions dominate uses (checked conservatively via a
// reverse-postorder dominance walk for straight-line regions and phi edge
// validity), operand types match opcode requirements, and names are
// unique. It returns the first error found, or nil.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if err := f.Verify(); err != nil {
			return err
		}
	}
	return nil
}

// Verify checks the invariants of a single function. It costs time
// linear in the function's size: blocks and instructions are indexed
// once, predecessors come from one table, and dominance is answered from
// an immediate-dominator tree (see domTree).
func (f *Func) Verify() error {
	if f.IsDecl() {
		return nil
	}
	errf := func(b *Block, in *Instr, format string, args ...any) error {
		e := &VerifyError{Func: f.Name, Msg: fmt.Sprintf(format, args...)}
		if b != nil {
			e.Block = b.Name
		}
		if in != nil {
			e.Instr = in.String()
		}
		return e
	}

	// Name uniqueness and block well-formedness. pos records each
	// instruction's index in its block; its keys are the instructions
	// this function defines.
	nInstrs := f.NumInstrs()
	names := make(map[string]bool, len(f.Params)+nInstrs)
	params := make(map[*Param]bool, len(f.Params))
	for _, p := range f.Params {
		if names[p.Name] {
			return errf(nil, nil, "duplicate name %%%s", p.Name)
		}
		names[p.Name] = true
		params[p] = true
	}
	blockNames := make(map[string]bool, len(f.Blocks))
	blockIndex := make(map[*Block]int, len(f.Blocks))
	pos := make(map[*Instr]int, nInstrs)
	for bi, b := range f.Blocks {
		if blockNames[b.Name] {
			return errf(b, nil, "duplicate block name")
		}
		blockNames[b.Name] = true
		blockIndex[b] = bi
		if b.Terminator() == nil {
			return errf(b, nil, "block is not terminated")
		}
		for i, in := range b.Instrs {
			if in.Parent != b {
				return errf(b, in, "instruction parent mismatch")
			}
			if in.IsTerminator() && i != len(b.Instrs)-1 {
				return errf(b, in, "terminator in the middle of a block")
			}
			if in.Op == OpPhi && i > 0 && b.Instrs[i-1].Op != OpPhi {
				return errf(b, in, "phi not grouped at the start of the block")
			}
			if !IsVoid(in.Typ) {
				if in.Name == "" {
					return errf(b, in, "value-producing instruction has no name")
				}
				if names[in.Name] {
					return errf(b, in, "duplicate name %%%s", in.Name)
				}
				names[in.Name] = true
			}
			pos[in] = i
		}
	}
	g := newCFG(f, blockIndex)

	// Operand validity and typing.
	for bi, b := range f.Blocks {
		for _, in := range b.Instrs {
			for oi, op := range in.Operands {
				if op == nil {
					return errf(b, in, "nil operand %d", oi)
				}
				switch v := op.(type) {
				case *Instr:
					if _, ok := pos[v]; !ok {
						return errf(b, in, "operand %%%s is not defined in this function", v.Name)
					}
				case *Param:
					if !params[v] {
						return errf(b, in, "operand %%%s is not a parameter of this function", v.Name)
					}
				case *Global:
					if v.Parent != f.Parent {
						return errf(b, in, "operand @%s belongs to another module", v.Name)
					}
				}
			}
			if err := checkTypes(in); err != nil {
				return errf(b, in, "%v", err)
			}
			if in.Op == OpPhi {
				preds := g.preds(bi)
				if len(in.Blocks) != len(preds) {
					return errf(b, in, "phi has %d incoming edges, block has %d predecessors", len(in.Blocks), len(preds))
				}
				for _, p := range preds {
					if _, ok := in.PhiIncoming(f.Blocks[p]); !ok {
						return errf(b, in, "phi missing incoming value for predecessor %%%s", f.Blocks[p].Name)
					}
				}
			}
		}
	}

	// Dominance: each use must be dominated by its definition. A phi
	// use is checked at the end of its incoming edge.
	var dom *domTree
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			for oi, op := range in.Operands {
				def, ok := op.(*Instr)
				if !ok {
					continue
				}
				ub, useIdx := bi, ii
				if in.Op == OpPhi {
					// The checks above made the phi's blocks exactly
					// b's predecessors, so pred is a block of f.
					pred := in.Blocks[oi]
					ub, useIdx = blockIndex[pred], len(pred.Instrs)
				}
				db := blockIndex[def.Parent]
				var dominated bool
				if db == ub {
					dominated = pos[def] < useIdx
				} else {
					if dom == nil {
						dom = g.domTree()
					}
					dominated = dom.dominates(db, ub)
				}
				if !dominated {
					return errf(b, in, "use of %%%s is not dominated by its definition", def.Name)
				}
			}
		}
	}
	return nil
}

// cfg is a function's control-flow graph over block indices, with the
// predecessor lists in compressed form: the predecessors of block b
// are pred[predStart[b]:predStart[b+1]], in block order and without
// duplicates, exactly as Func.Preds lists them. Branch targets outside
// the function are ignored.
type cfg struct {
	succ      [][]int
	predStart []int
	pred      []int
}

func newCFG(f *Func, blockIndex map[*Block]int) *cfg {
	n := len(f.Blocks)
	g := &cfg{succ: make([][]int, n), predStart: make([]int, n+1)}
	for bi, b := range f.Blocks {
		targets := b.Succs()
		if len(targets) == 0 {
			continue
		}
		succ := make([]int, 0, len(targets))
	next:
		for _, t := range targets {
			si, ok := blockIndex[t]
			if !ok {
				continue
			}
			for _, s := range succ {
				if s == si {
					continue next
				}
			}
			succ = append(succ, si)
			g.predStart[si+1]++
		}
		g.succ[bi] = succ
	}
	for i := 0; i < n; i++ {
		g.predStart[i+1] += g.predStart[i]
	}
	g.pred = make([]int, g.predStart[n])
	fill := append([]int(nil), g.predStart[:n]...)
	for bi, succ := range g.succ {
		for _, s := range succ {
			g.pred[fill[s]] = bi
			fill[s]++
		}
	}
	return g
}

func (g *cfg) preds(b int) []int { return g.pred[g.predStart[b]:g.predStart[b+1]] }

// domTree answers dominance queries between blocks in O(1) from the
// pre/post-order interval of each block in the dominator tree.
//
// The tree hangs from a virtual root whose children are the CFG's
// roots: the entry block and every other block without predecessors.
// Each root thus dominates what only it reaches, and a block no root
// reaches is dominated by every block. (This is the greatest fixed
// point of the classic iterative equations dom(b) = {b} ∪ ⋂ dom(p)
// with dom(entry) = {entry} and an empty intersection for a block
// without predecessors.) Immediate dominators come from Cooper,
// Harvey and Kennedy's "A Simple, Fast Dominance Algorithm".
type domTree struct {
	pre, post []int // -1 for a block no root reaches
}

func (g *cfg) domTree() *domTree {
	n := len(g.succ)
	root := n // the virtual root
	isRoot := func(b int) bool { return b == 0 || g.predStart[b] == g.predStart[b+1] }
	var roots []int
	for b := 0; b < n; b++ {
		if isRoot(b) {
			roots = append(roots, b)
		}
	}
	succ := func(b int) []int {
		if b == root {
			return roots
		}
		return g.succ[b]
	}

	// Post-order over the CFG from the virtual root.
	po := make([]int, n+1) // post-order number; -1 if unreached
	for i := range po {
		po[i] = -1
	}
	var order []int // reached blocks in post-order, root last
	walk(n+1, root, succ, nil, func(b int) {
		po[b] = len(order)
		order = append(order, b)
	})

	// Immediate dominators, iterating in reverse post-order.
	idom := make([]int, n+1)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	intersect := func(a, b int) int {
		for a != b {
			for po[a] < po[b] {
				a = idom[a]
			}
			for po[b] < po[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := len(order) - 2; i >= 0; i-- {
			b := order[i]
			nd := root
			if !isRoot(b) {
				nd = -1
				for _, p := range g.preds(b) {
					switch {
					case idom[p] < 0:
					case nd < 0:
						nd = p
					default:
						nd = intersect(p, nd)
					}
				}
			}
			if idom[b] != nd {
				idom[b] = nd
				changed = true
			}
		}
	}

	// Pre/post-order intervals over the dominator tree.
	kids := make([][]int, n+1)
	for _, b := range order[:len(order)-1] {
		kids[idom[b]] = append(kids[idom[b]], b)
	}
	d := &domTree{pre: make([]int, n+1), post: make([]int, n+1)}
	for i := range d.pre {
		d.pre[i], d.post[i] = -1, -1
	}
	clock := 0
	walk(n+1, root, func(b int) []int { return kids[b] },
		func(b int) { clock++; d.pre[b] = clock },
		func(b int) { clock++; d.post[b] = clock })
	return d
}

// walk visits the nodes (numbered below n) reachable from start
// depth-first, without recursion, calling enter (if non-nil) when it
// first reaches a node and leave once it has visited all of the node's
// successors.
func walk(n, start int, succ func(int) []int, enter, leave func(int)) {
	type frame struct {
		node int
		next []int
	}
	seen := make([]bool, n)
	seen[start] = true
	visit := func(b int) frame {
		if enter != nil {
			enter(b)
		}
		return frame{b, succ(b)}
	}
	stack := []frame{visit(start)}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if len(top.next) == 0 {
			leave(top.node)
			stack = stack[:len(stack)-1]
			continue
		}
		s := top.next[0]
		top.next = top.next[1:]
		if !seen[s] {
			seen[s] = true
			stack = append(stack, visit(s))
		}
	}
}

// dominates reports whether block a dominates block b (a != b).
func (d *domTree) dominates(a, b int) bool {
	if d.pre[b] < 0 {
		return true
	}
	return d.pre[a] >= 0 && d.pre[a] < d.pre[b] && d.post[b] < d.post[a]
}

func checkTypes(in *Instr) error {
	want := func(n int) error {
		if len(in.Operands) != n {
			return fmt.Errorf("%s expects %d operands, has %d", in.Op, n, len(in.Operands))
		}
		return nil
	}
	switch {
	case in.Op.IsIntBinary():
		if err := want(2); err != nil {
			return err
		}
		if !IsInt(in.Operands[0].Type()) || !in.Operands[0].Type().Equal(in.Operands[1].Type()) {
			return fmt.Errorf("integer binary op on mismatched types %s, %s", in.Operands[0].Type(), in.Operands[1].Type())
		}
		if !in.Typ.Equal(in.Operands[0].Type()) {
			return fmt.Errorf("result type %s does not match operand type %s", in.Typ, in.Operands[0].Type())
		}
	case in.Op.IsFloatBinary():
		if err := want(2); err != nil {
			return err
		}
		if !IsFloat(in.Operands[0].Type()) || !in.Operands[0].Type().Equal(in.Operands[1].Type()) {
			return fmt.Errorf("float binary op on mismatched types")
		}
	case in.Op == OpICmp:
		if err := want(2); err != nil {
			return err
		}
		t := in.Operands[0].Type()
		if !IsInt(t) && !IsPointer(t) {
			return fmt.Errorf("icmp on non-integer type %s", t)
		}
		if !t.Equal(in.Operands[1].Type()) {
			return fmt.Errorf("icmp on mismatched types")
		}
	case in.Op == OpFCmp:
		if err := want(2); err != nil {
			return err
		}
		if !IsFloat(in.Operands[0].Type()) {
			return fmt.Errorf("fcmp on non-float type")
		}
	case in.Op == OpLoad:
		if err := want(1); err != nil {
			return err
		}
		pt, ok := in.Operands[0].Type().(PointerType)
		if !ok {
			return fmt.Errorf("load from non-pointer")
		}
		if !in.Typ.Equal(pt.Elem) {
			return fmt.Errorf("load type %s does not match pointee %s", in.Typ, pt.Elem)
		}
	case in.Op == OpStore:
		if err := want(2); err != nil {
			return err
		}
		pt, ok := in.Operands[1].Type().(PointerType)
		if !ok {
			return fmt.Errorf("store to non-pointer")
		}
		if !in.Operands[0].Type().Equal(pt.Elem) {
			return fmt.Errorf("store of %s to %s*", in.Operands[0].Type(), pt.Elem)
		}
	case in.Op == OpGEP:
		t, err := GEPType(in.Operands[0].Type(), in.Operands[1:])
		if err != nil {
			return err
		}
		if !in.Typ.Equal(t) {
			return fmt.Errorf("gep result type %s, want %s", in.Typ, t)
		}
		for _, idx := range in.Operands[1:] {
			if !IsInt(idx.Type()) {
				return fmt.Errorf("gep index is not an integer")
			}
		}
	case in.Op == OpCall:
		if in.Callee == nil {
			return fmt.Errorf("call with nil callee")
		}
		sig := in.Callee.Sig
		if len(in.Operands) != len(sig.Params) {
			return fmt.Errorf("call to @%s with %d args, want %d", in.Callee.Name, len(in.Operands), len(sig.Params))
		}
		for i, a := range in.Operands {
			if !a.Type().Equal(sig.Params[i]) {
				return fmt.Errorf("call arg %d has type %s, want %s", i, a.Type(), sig.Params[i])
			}
		}
		if !in.Typ.Equal(sig.Ret) {
			return fmt.Errorf("call result type %s, want %s", in.Typ, sig.Ret)
		}
	case in.Op.IsCast():
		if err := want(1); err != nil {
			return err
		}
	case in.Op == OpPhi:
		for _, v := range in.Operands {
			if !v.Type().Equal(in.Typ) {
				return fmt.Errorf("phi incoming type %s, want %s", v.Type(), in.Typ)
			}
		}
		if len(in.Operands) != len(in.Blocks) {
			return fmt.Errorf("phi operand/block count mismatch")
		}
	case in.Op == OpSelect:
		if err := want(3); err != nil {
			return err
		}
		if !in.Operands[0].Type().Equal(I1) {
			return fmt.Errorf("select condition is not i1")
		}
		if !in.Operands[1].Type().Equal(in.Operands[2].Type()) {
			return fmt.Errorf("select arms have different types")
		}
	case in.Op == OpBr:
		if len(in.Blocks) != 1 {
			return fmt.Errorf("br needs 1 target")
		}
	case in.Op == OpCondBr:
		if err := want(1); err != nil {
			return err
		}
		if len(in.Blocks) != 2 {
			return fmt.Errorf("condbr needs 2 targets")
		}
		if !in.Operands[0].Type().Equal(I1) {
			return fmt.Errorf("condbr condition is not i1")
		}
	case in.Op == OpRet:
		if len(in.Operands) > 1 {
			return fmt.Errorf("ret with %d operands", len(in.Operands))
		}
	case in.Op == OpAlloca:
		if err := want(1); err != nil {
			return err
		}
		if in.Alloc == nil {
			return fmt.Errorf("alloca without element type")
		}
	default:
		return fmt.Errorf("unknown opcode")
	}
	return nil
}
