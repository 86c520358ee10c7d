package codegen

import (
	"cash/internal/ir"
	"cash/internal/minic"
	"cash/internal/vm"
)

// Loop-invariant check hoisting. For a counted loop
//
//	for (v = LO; v < H; v++) ... a[v] ...
//
// whose body performs the software check on a[v] unconditionally each
// iteration, the per-iteration check is replaced by two range checks in
// a synthesized preheader: the lowest referenced address (a + LO*elem)
// and the highest (a + (H-1)*elem). The loop itself then runs checked
// but check-free. This is sound because the reference executes on every
// iteration and the loop visits every index in [LO, H): if any endpoint
// is out of bounds the original execution was going to trap too — the
// transformed program merely traps before the loop instead of at the
// offending iteration, which preserves the violation verdict (the
// documented observable) while possibly truncating earlier output.
//
// Candidacy is established during lowering (enterHoistLoop /
// noteHoistRef below); the transform itself runs as the "hoist" pass
// after lowering (and after rce, which may have already deleted some of
// the candidate checks).

// countedLoop is the recognized shape of a hoistable for-loop.
type countedLoop struct {
	v       *minic.VarDecl // induction variable: v = lo; v < hi; v++
	lo      int32
	hiConst int32          // constant bound, when hiVar is nil
	hiVar   *minic.VarDecl // scalar bound variable, unmodified in the body
	incl    bool           // "<=" comparison
}

// hoistCand is one candidate loop: the checks eligible for hoisting,
// grouped by checked array, gathered while its body lowers.
type hoistCand struct {
	cl    countedLoop
	loop  *ir.Loop
	s     *minic.ForStmt // source statement (affine pass invariance scan)
	depth int            // conditional-nesting depth during lowering; refs qualify at 0
	// order/groups: per-array check ids, in first-reference order.
	order  []*minic.VarDecl
	groups map[*minic.VarDecl][]int
}

// ---------------------------------------------------------------------
// Lowering-time candidacy.

// scanAddrTaken records every variable whose address is taken anywhere
// in the function; such variables can alias through pointers and are
// disqualified as induction or bound variables.
func (c *compiler) scanAddrTaken(s minic.Stmt) {
	minic.Inspect(s, func(n any) bool {
		if u, ok := n.(*minic.Unary); ok && u.Op == "&" {
			if vr, ok := u.X.(*minic.VarRef); ok && vr.Decl != nil {
				c.addrTaken[vr.Decl] = true
			}
		}
		return true
	})
}

// matchCountedLoop recognizes `for (v = LO; v < H; v++)` (also `<=` and
// `v += 1`) with a body that cannot exit early or disturb v, H, or any
// scalar through an unchecked store.
func (c *compiler) matchCountedLoop(s *minic.ForStmt) (countedLoop, bool) {
	var cl countedLoop
	switch init := s.Init.(type) {
	case *minic.DeclStmt:
		if len(init.Decls) != 1 {
			return cl, false
		}
		d := init.Decls[0]
		if d.Type != minic.Int || d.Init == nil {
			return cl, false
		}
		v, ok := constEval(d.Init)
		if !ok {
			return cl, false
		}
		cl.v, cl.lo = d, v
	case *minic.ExprStmt:
		a, ok := init.X.(*minic.Assign)
		if !ok || a.Op != "=" {
			return cl, false
		}
		vr, ok := a.LHS.(*minic.VarRef)
		if !ok || vr.Decl == nil || vr.Decl.Type != minic.Int {
			return cl, false
		}
		v, ok := constEval(a.RHS)
		if !ok {
			return cl, false
		}
		cl.v, cl.lo = vr.Decl, v
	default:
		return cl, false
	}
	if cl.v.Storage == minic.StorageGlobal || c.addrTaken[cl.v] {
		return cl, false
	}
	// Keep the scaled low endpoint well inside 32-bit address arithmetic.
	if cl.lo < -(1<<20) || cl.lo > 1<<20 {
		return cl, false
	}

	cond, ok := s.Cond.(*minic.Binary)
	if !ok || (cond.Op != "<" && cond.Op != "<=") {
		return cl, false
	}
	cl.incl = cond.Op == "<="
	x, ok := cond.X.(*minic.VarRef)
	if !ok || x.Decl != cl.v {
		return cl, false
	}
	if hv, ok := constEval(cond.Y); ok {
		cl.hiConst = hv
	} else if yr, ok := cond.Y.(*minic.VarRef); ok && yr.Decl != nil &&
		yr.Decl.Type == minic.Int && yr.Decl != cl.v &&
		yr.Decl.Storage != minic.StorageGlobal && !c.addrTaken[yr.Decl] {
		cl.hiVar = yr.Decl
	} else {
		return cl, false
	}

	switch p := s.Post.(type) {
	case *minic.IncDec:
		vr, ok := p.X.(*minic.VarRef)
		if !ok || vr.Decl != cl.v || p.Op != "++" {
			return cl, false
		}
	case *minic.Assign:
		vr, ok := p.LHS.(*minic.VarRef)
		if !ok || vr.Decl != cl.v || p.Op != "+=" {
			return cl, false
		}
		if dv, ok := constEval(p.RHS); !ok || dv != 1 {
			return cl, false
		}
	default:
		return cl, false
	}

	if s.Body == nil || !c.loopBodySafe(s.Body, cl.v, cl.hiVar) {
		return cl, false
	}
	return cl, true
}

// loopBodySafe rejects bodies that can exit the loop early (break,
// continue, return) or disturb the trip count: writes to v or the bound
// variable, and stores whose target the checker cannot confine (pointer
// or computed stores; direct array stores are bound-checked inside loops
// and cannot reach a scalar slot). Reads (& and * rvalues included) are
// safe.
func (c *compiler) loopBodySafe(s minic.Stmt, v, hiVar *minic.VarDecl) bool {
	safe := true
	minic.Inspect(s, func(n any) bool {
		if !safe {
			return false // a false return prunes only this subtree
		}
		switch n := n.(type) {
		case *minic.BreakStmt, *minic.ContinueStmt, *minic.ReturnStmt:
			safe = false
		case *minic.IncDec:
			// A read-modify-write through memory is not confined.
			vr, ok := n.X.(*minic.VarRef)
			safe = ok && vr.Decl != v && vr.Decl != hiVar
		case *minic.Call:
			// Builtins cannot write program variables. Other functions
			// can write globals, which only matters for a variable trip
			// count.
			safe = minic.IsBuiltin(n.Name) || hiVar == nil
		case *minic.Assign:
			switch lhs := n.LHS.(type) {
			case *minic.VarRef:
				safe = lhs.Decl != v && lhs.Decl != hiVar
			case *minic.Index:
				// A store through a direct array reference is
				// bound-checked inside a loop (software or segment), so
				// it stays inside the array; pointer or computed bases
				// can land anywhere.
				d := refObject(lhs.Base)
				safe = d != nil && d.Type.Kind == minic.TypeArray
			default:
				safe = false
			}
		}
		return safe
	})
	return safe
}

// enterHoistLoop opens a hoisting candidate when the For statement has
// the counted shape; called after the loop condition lowers (references
// in the condition belong to enclosing candidates). Both the canonical
// hoist and the affine pass consume candidates.
func (c *compiler) enterHoistLoop(s *minic.ForStmt, lp *ir.Loop) *hoistCand {
	if !c.wantHoist && !c.wantAffine {
		return nil
	}
	cl, ok := c.matchCountedLoop(s)
	if !ok {
		return nil
	}
	cand := &hoistCand{cl: cl, loop: lp, s: s, groups: make(map[*minic.VarDecl][]int)}
	c.hoistCands = append(c.hoistCands, cand)
	return cand
}

// leaveHoistLoop closes the candidate and records it for the pass when
// it captured any checks.
func (c *compiler) leaveHoistLoop(cand *hoistCand) {
	if cand == nil {
		return
	}
	c.hoistCands = c.hoistCands[:len(c.hoistCands)-1]
	if len(cand.groups) > 0 && c.curFn != nil {
		c.curFn.hoists = append(c.curFn.hoists, cand)
	}
}

// noteHoistRef, called for every checked declared-object reference,
// records the check when it qualifies: direct array indexed exactly by
// the innermost candidate's induction variable, at conditional depth 0.
func (c *compiler) noteHoistRef(d *minic.VarDecl, idx minic.Expr, idxConst int32, idxReg bool, id int) {
	if !c.wantHoist || len(c.hoistCands) == 0 {
		return
	}
	top := c.hoistCands[len(c.hoistCands)-1]
	if top.depth != 0 {
		return
	}
	if d == nil || d.Type.Kind != minic.TypeArray {
		return
	}
	if !idxReg || idxConst != 0 {
		return
	}
	vr, ok := idx.(*minic.VarRef)
	if !ok || vr.Decl != top.cl.v {
		return
	}
	if _, seen := top.groups[d]; !seen {
		top.order = append(top.order, d)
	}
	top.groups[d] = append(top.groups[d], id)
}

// ---------------------------------------------------------------------
// The transform.

type hoistPass struct{}

func (hoistPass) Name() string { return "hoist" }

func (hoistPass) run(c *compiler, m *ir.Module) error {
	c.stats[StatChecksHoisted] += 0 // the key is present whenever the pass ran
	for _, fs := range c.fns {
		if len(fs.hoists) == 0 {
			continue
		}
		c.hoistFunc(fs)
	}
	return nil
}

func (c *compiler) hoistFunc(fs *fnState) {
	// The preheader emission helpers address the function's frame.
	c.fn = fs.fn
	c.frameOff = fs.frameOff

	// Pre-transform dominators and check head blocks: a check may only
	// hoist if its block dominates the loop latch (it executes on every
	// iteration) — the CFG-level restatement of the depth-0 tracking.
	g := fs.frag.BuildCFG()
	dom := g.Dominators()
	headBlock := make(map[int]*ir.Block)
	for _, blk := range fs.frag.Blocks {
		for i := range blk.Instrs {
			if id := blk.Instrs[i].CheckID; id != 0 && headBlock[id] == nil {
				headBlock[id] = blk
			}
		}
	}
	for _, cand := range fs.hoists {
		c.applyHoist(fs, cand, dom, headBlock)
	}
}

// hoistEndpointsOK rejects groups whose preheader endpoint offsets
// cannot be represented exactly in 32-bit address arithmetic. Both
// endpoints are computed in int64 — scaled index plus the array's base
// (global address or frame displacement) — and hoisting bails out,
// leaving the always-safe per-iteration checks, when either folded
// offset leaves int32. The former int32 multiply could wrap for a
// large lower bound and silently check the wrong address.
func (c *compiler) hoistEndpointsOK(d *minic.VarDecl, cl countedLoop) bool {
	elem := int64(d.Type.Elem.Size())
	base := int64(int32(d.Addr))
	if d.Storage != minic.StorageGlobal {
		base = int64(c.frameOff[d])
	}
	fits := func(off int64) bool {
		v := base + off
		return off >= -(1<<30) && off <= 1<<30 && v >= -(1<<31) && v < 1<<31
	}
	if !fits(int64(cl.lo) * elem) {
		return false
	}
	if cl.hiVar != nil {
		return true // runtime overflow guard covers the high endpoint
	}
	last := int64(cl.hiConst)
	if !cl.incl {
		last--
	}
	return fits(last * elem)
}

func (c *compiler) applyHoist(fs *fnState, cand *hoistCand, dom map[*ir.Block]map[*ir.Block]bool, headBlock map[int]*ir.Block) {
	latchDom := dom[cand.loop.Latch]
	if latchDom == nil {
		return // latch unreachable; leave the loop alone
	}
	cl := cand.cl

	// A constant-bound loop that runs zero times: its body checks are
	// dead code — delete them with no preheader.
	emptyConst := false
	if cl.hiVar == nil {
		last := int64(cl.hiConst)
		if !cl.incl {
			last--
		}
		emptyConst = last < int64(cl.lo)
	}

	type group struct {
		d   *minic.VarDecl
		ids []int
	}
	var groups []group
	for _, d := range cand.order {
		var ids []int
		for _, id := range cand.groups[d] {
			if c.deadChecks[id] {
				continue
			}
			hb := headBlock[id]
			if hb == nil || !latchDom[hb] {
				continue
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			continue
		}
		if !emptyConst && !c.hoistEndpointsOK(d, cl) {
			continue
		}
		groups = append(groups, group{d, ids})
	}
	if len(groups) == 0 {
		return
	}

	removed := make(map[int]bool)
	for _, gr := range groups {
		for _, id := range gr.ids {
			removed[id] = true
		}
	}
	for _, blk := range fs.frag.Blocks {
		kept := blk.Instrs[:0]
		for _, iin := range blk.Instrs {
			if iin.CheckID != 0 && removed[iin.CheckID] {
				continue
			}
			kept = append(kept, iin)
		}
		blk.Instrs = kept
	}
	fs.frag.Compact()
	for id := range removed {
		c.deadChecks[id] = true
	}
	c.stats[StatSWChecks] -= uint64(len(removed))
	c.stats[StatChecksHoisted] += uint64(len(removed))

	if emptyConst {
		return
	}

	// Narrowing audit: Elem.Size() is 1 (char) or 4 (int) — mini-C has
	// no nested aggregates — so the int32 conversion cannot truncate;
	// TestHoistNarrowingAudit pins the assumption.
	elemOf := func(d *minic.VarDecl) int32 { return int32(d.Type.Elem.Size()) }
	blocks := c.b.Detour(func() {
		if cl.hiVar != nil {
			skip := c.lbl("hsk")
			c.b.Op(vm.MOV, vm.R(vm.EAX), vm.M(c.slotRef(cl.hiVar, 0)))
			c.b.Op(vm.CMP, vm.R(vm.EAX), vm.I(cl.lo))
			if cl.incl {
				c.b.Jump(vm.JL, skip) // v <= H runs zero times iff H < lo
			} else {
				c.b.Jump(vm.JLE, skip) // v < H runs zero times iff H <= lo
			}
			// Overflow guard: a final index at or past 2^30/elem is
			// always out of bounds, and the loop's unconditional
			// reference was going to reach the (much smaller) true bound
			// and trap — so trap now rather than let the scaled address
			// computation wrap.
			// Narrowing audit: 2^30/elem with elem in {1,4} stays well
			// inside int32, and H itself is compared as a signed word,
			// so neither the division nor the compare can wrap.
			guard := int32(1 << 30)
			for _, gr := range groups {
				if g := (int32(1) << 30) / elemOf(gr.d); g < guard {
					guard = g
				}
			}
			c.b.Op(vm.CMP, vm.R(vm.EAX), vm.I(guard))
			c.b.Jump(vm.JG, "__bounds_trap")
			for _, gr := range groups {
				d := gr.d
				elem := elemOf(d)
				// Highest referenced address: base + (H-1)*elem
				// (base + H*elem for "<="). EAX holds H throughout: the
				// check sequences clobber only ESI/EDI.
				adj := -elem
				if cl.incl {
					adj = 0
				}
				c.b.Op(vm.MOV, vm.R(vm.EBX), vm.R(vm.EAX))
				c.scaleReg(vm.EBX, elem)
				if d.Storage == minic.StorageGlobal {
					c.b.Op(vm.ADD, vm.R(vm.EBX), vm.I(int32(d.Addr)+adj))
				} else {
					c.b.Op(vm.LEA, vm.R(vm.ECX), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.frameOff[d] + adj}))
					c.b.Op(vm.ADD, vm.R(vm.EBX), vm.R(vm.ECX))
				}
				c.emitCheckForDecl(vm.EBX, d)
				// Lowest referenced address: base + lo*elem, folded in
				// int64 (hoistEndpointsOK proved it fits int32).
				loOff := int64(cl.lo) * int64(elem)
				if d.Storage == minic.StorageGlobal {
					c.b.Op(vm.MOV, vm.R(vm.EBX), vm.I(int32(int64(int32(d.Addr))+loOff)))
				} else {
					c.b.Op(vm.LEA, vm.R(vm.EBX), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: int32(int64(c.frameOff[d]) + loOff)}))
				}
				c.emitCheckForDecl(vm.EBX, d)
			}
			c.b.Label(skip)
		} else {
			last := cl.hiConst
			if !cl.incl {
				last--
			}
			for _, gr := range groups {
				d := gr.d
				// Both endpoints fold base + scaled index in int64;
				// hoistEndpointsOK proved each sum fits int32, so no
				// 32-bit intermediate can wrap.
				elem := int64(elemOf(d))
				hiOff := int64(last) * elem
				loOff := int64(cl.lo) * elem
				if d.Storage == minic.StorageGlobal {
					base := int64(int32(d.Addr))
					c.b.Op(vm.MOV, vm.R(vm.EBX), vm.I(int32(base+hiOff)))
					c.emitCheckForDecl(vm.EBX, d)
					c.b.Op(vm.MOV, vm.R(vm.EBX), vm.I(int32(base+loOff)))
					c.emitCheckForDecl(vm.EBX, d)
				} else {
					base := int64(c.frameOff[d])
					c.b.Op(vm.LEA, vm.R(vm.EBX), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: int32(base + hiOff)}))
					c.emitCheckForDecl(vm.EBX, d)
					c.b.Op(vm.LEA, vm.R(vm.EBX), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: int32(base + loOff)}))
					c.emitCheckForDecl(vm.EBX, d)
				}
			}
		}
	})
	fs.frag.InsertBefore(cand.loop.Header, blocks)
	// The preheader executes inside every enclosing loop of the
	// candidate (but not inside the candidate itself).
	for p := cand.loop.Parent; p != nil; p = p.Parent {
		p.Blocks = append(p.Blocks, blocks...)
	}
}
