package ir

// CloneFunc returns a deep copy of f inside module m (which may be f's
// own module; the clone gets the given name). Instruction and block
// identities are fresh; references to globals and callees are preserved.
func CloneFunc(f *Func, m *Module, name string) *Func {
	params := make([]*Param, len(f.Params))
	pmap := make(map[*Param]*Param, len(f.Params))
	for i, p := range f.Params {
		params[i] = &Param{Name: p.Name, Typ: p.Typ}
		pmap[p] = params[i]
	}
	nf := m.NewFunc(name, f.Sig.Ret, params...)
	nf.ReadOnly = f.ReadOnly
	if f.IsDecl() {
		nf.Blocks = nil
		return nf
	}
	nf.Blocks = cloneBody(f, nf, pmap)
	return nf
}

// CloneBlocks returns a deep copy of f's blocks that keeps referring to
// f's own parameters, globals and callees. Swapping f.Blocks with the
// returned slice restores (or snapshots) the body — used by
// transformations that must be rolled back when not profitable.
func CloneBlocks(f *Func) []*Block { return cloneBody(f, f, nil) }

// cloneBody deep-copies f's blocks into blocks whose Parent is owner.
// Operands naming f's own instructions and blocks refer to the copies,
// parameters are mapped through pmap (nil keeps them), and every other
// value is shared. The copies are carved from a few slabs rather than
// allocated one by one; each operand and target slice is capped at its
// length, so growing one never writes into its neighbour.
func cloneBody(f, owner *Func, pmap map[*Param]*Param) []*Block {
	nInstrs, nOps, nTargets := 0, 0, 0
	for _, b := range f.Blocks {
		nInstrs += len(b.Instrs)
		for _, in := range b.Instrs {
			nOps += len(in.Operands)
			nTargets += len(in.Blocks)
		}
	}
	blocks := make([]Block, len(f.Blocks))
	out := make([]*Block, len(f.Blocks))
	bmap := make(map[*Block]*Block, len(f.Blocks))
	instrs := make([]Instr, nInstrs)
	ptrs := make([]*Instr, nInstrs)
	imap := make(map[*Instr]*Instr, nInstrs)
	for bi, b := range f.Blocks {
		nb := &blocks[bi]
		nb.Name, nb.Parent = b.Name, owner
		nb.Instrs = ptrs[:len(b.Instrs):len(b.Instrs)]
		ptrs = ptrs[len(b.Instrs):]
		out[bi] = nb
		bmap[b] = nb
		for ii, in := range b.Instrs {
			ni := &instrs[0]
			instrs = instrs[1:]
			*ni = Instr{
				Name:   in.Name,
				Op:     in.Op,
				Typ:    in.Typ,
				Pred:   in.Pred,
				Callee: in.Callee,
				Alloc:  in.Alloc,
				Parent: nb,
			}
			nb.Instrs[ii] = ni
			imap[in] = ni
		}
	}
	ops := make([]Value, nOps)
	targets := make([]*Block, nTargets)
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			ni := out[bi].Instrs[ii]
			if n := len(in.Operands); n > 0 {
				ni.Operands, ops = ops[:n:n], ops[n:]
				for oi, op := range in.Operands {
					switch v := op.(type) {
					case *Instr:
						if nv, ok := imap[v]; ok {
							op = nv
						}
					case *Param:
						if nv, ok := pmap[v]; ok {
							op = nv
						}
					}
					ni.Operands[oi] = op
				}
			}
			if n := len(in.Blocks); n > 0 {
				ni.Blocks, targets = targets[:n:n], targets[n:]
				for ti, tb := range in.Blocks {
					ni.Blocks[ti] = bmap[tb]
				}
			}
		}
	}
	return out
}

// ShadowFunc returns a detached deep copy of f's body for sandboxed
// pass execution. The shadow shares f's Params (so cloned operands keep
// referring to the same values and committing the body back needs no
// remapping), keeps f's Parent (so global references verify), and
// carries f's name counter (so names generated while transforming the
// shadow are exactly the names in-place execution would have produced).
// The shadow is NOT registered in Parent.Funcs; it is reachable only by
// its creator, which makes it safe to abandon to a timed-out goroutine.
func ShadowFunc(f *Func) *Func {
	sh := &Func{
		Name:        f.Name,
		Sig:         f.Sig,
		Params:      f.Params,
		Parent:      f.Parent,
		ReadOnly:    f.ReadOnly,
		nameCounter: f.nameCounter,
	}
	sh.Blocks = cloneBody(f, sh, nil)
	return sh
}

// AdoptBody commits a shadow produced by ShadowFunc back into f: the
// shadow's blocks (reparented to f) and its name-counter state replace
// f's. After adoption the shadow must not be used again.
func (f *Func) AdoptBody(sh *Func) {
	f.Blocks = sh.Blocks
	for _, b := range f.Blocks {
		b.Parent = f
	}
	f.AdoptNames(sh)
}

// AdoptNames commits only a shadow's name-counter state into f, for a
// shadow execution that changed nothing but may have drawn fresh names:
// the next name f generates is then the one in-place execution would.
func (f *Func) AdoptNames(sh *Func) { f.nameCounter = sh.nameCounter }

// CloneModule returns a deep copy of m. Globals and named struct types
// are copied; function bodies are cloned with all internal references
// remapped to the new module's functions and globals.
func CloneModule(m *Module) *Module {
	nm := NewModule(m.Name)
	nm.Structs = append(nm.Structs, m.Structs...)
	gmap := make(map[*Global]*Global, len(m.Globals))
	for _, g := range m.Globals {
		ng := &Global{Name: g.Name, Elem: g.Elem, Init: g.Init, ReadOnly: g.ReadOnly, Parent: nm}
		nm.Globals = append(nm.Globals, ng)
		gmap[g] = ng
	}
	fmap := make(map[*Func]*Func, len(m.Funcs))
	for _, f := range m.Funcs {
		nf := CloneFunc(f, nm, f.Name)
		fmap[f] = nf
	}
	// Remap globals and callees inside all cloned bodies.
	for _, nf := range nm.Funcs {
		for _, b := range nf.Blocks {
			for _, in := range b.Instrs {
				if in.Callee != nil {
					if nc, ok := fmap[in.Callee]; ok {
						in.Callee = nc
					}
				}
				for oi, op := range in.Operands {
					switch ov := op.(type) {
					case *Global:
						if ng, ok := gmap[ov]; ok {
							in.Operands[oi] = ng
						}
					case *Func:
						if nc, ok := fmap[ov]; ok {
							in.Operands[oi] = nc
						}
					}
				}
			}
		}
	}
	return nm
}
