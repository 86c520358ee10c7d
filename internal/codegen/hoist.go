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
// Candidate loops are recognized during lowering (enterHoistLoop
// below) and every checked array reference records the chain of them it
// runs in (arrayRef, pipeline.go); the "hoist" pass groups those
// references per loop after lowering (and after rce, which may have
// already deleted some of the candidate checks).

// countedLoop is the recognized shape of a hoistable for-loop.
type countedLoop struct {
	v       *minic.VarDecl // induction variable: v = lo; v < hi; v++
	lo      int32
	hiConst int32          // constant bound, when hiVar is nil
	hiVar   *minic.VarDecl // scalar bound variable, unmodified in the body
	incl    bool           // "<=" comparison
}

// last is a constant-bound loop's final induction value.
func (cl countedLoop) last() int64 {
	if cl.incl {
		return int64(cl.hiConst)
	}
	return int64(cl.hiConst) - 1
}

// hoistCand is one counted candidate loop, shared by the hoist and
// affine passes.
type hoistCand struct {
	cl    countedLoop
	loop  *ir.Loop
	s     *minic.ForStmt // source statement (affine pass invariance scan)
	depth int            // conditional-nesting depth during lowering; refs qualify at 0
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

// enterHoistLoop opens a candidate when passes will run and the For
// statement has the counted shape; called after the loop condition
// lowers (references in the condition belong to enclosing candidates).
func (c *compiler) enterHoistLoop(s *minic.ForStmt, lp *ir.Loop) *hoistCand {
	if len(c.cfg.Passes) == 0 {
		return nil
	}
	cl, ok := c.matchCountedLoop(s)
	if !ok {
		return nil
	}
	cand := &hoistCand{cl: cl, loop: lp, s: s}
	c.hoistCands = append(c.hoistCands, cand)
	return cand
}

// leaveHoistLoop closes the candidate and records it for the passes.
func (c *compiler) leaveHoistLoop(cand *hoistCand) {
	if cand == nil {
		return
	}
	c.hoistCands = c.hoistCands[:len(c.hoistCands)-1]
	c.curFn.counted = append(c.curFn.counted, cand)
}

// ---------------------------------------------------------------------
// The transform.

type hoistPass struct{}

func (hoistPass) Name() string { return "hoist" }

func (hoistPass) run(c *compiler, m *ir.Module) error {
	c.stats[StatChecksHoisted] += 0 // the key is present whenever the pass ran
	for _, fs := range c.fns {
		c.hoistFunc(fs)
	}
	return nil
}

// hoistGroup is one array's references in a candidate loop.
type hoistGroup struct {
	d   *minic.VarDecl
	ids []int
}

func (c *compiler) hoistFunc(fs *fnState) {
	// A reference qualifies when it is indexed exactly by the induction
	// variable of the innermost loop it runs unconditionally in; groups
	// keep first-reference order.
	groups := make(map[*hoistCand][]hoistGroup)
	for _, r := range fs.refs {
		if len(r.chain) == 0 {
			continue
		}
		cand := r.chain[len(r.chain)-1]
		if vr, ok := r.idx.(*minic.VarRef); !ok || vr.Decl != cand.cl.v {
			continue
		}
		gs := groups[cand]
		k := 0
		for k < len(gs) && gs[k].d != r.d {
			k++
		}
		if k == len(gs) {
			gs = append(gs, hoistGroup{d: r.d})
		}
		gs[k].ids = append(gs[k].ids, r.id)
		groups[cand] = gs
	}
	if len(groups) == 0 {
		return
	}
	dom, runs := c.passScope(fs)
	for _, cand := range fs.counted {
		if gs := groups[cand]; len(gs) > 0 {
			c.applyHoist(fs, cand, gs, dom, runs)
		}
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
	return fits(cl.last() * elem)
}

// applyHoist replaces the loop's qualifying checks with the preheader
// range checks. A check may only hoist if its block dominates the loop
// latch (it executes on every iteration): the CFG-level restatement of
// the depth-0 tracking. dom and runs are taken before the function's
// first transform.
func (c *compiler) applyHoist(fs *fnState, cand *hoistCand, candGroups []hoistGroup, dom map[*ir.Block]map[*ir.Block]bool, runs map[int]*checkRun) {
	latchDom := dom[cand.loop.Latch]
	if latchDom == nil {
		return // latch unreachable; leave the loop alone
	}
	cl := cand.cl

	// A constant-bound loop that runs zero times: its body checks are
	// dead code — delete them with no preheader.
	emptyConst := cl.hiVar == nil && cl.last() < int64(cl.lo)

	var groups []*minic.VarDecl
	removed := make(map[int]bool)
	for _, gr := range candGroups {
		var ids []int
		for _, id := range gr.ids {
			if r := runs[id]; r != nil && latchDom[r.head] { // nil: rce removed it
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 || (!emptyConst && !c.hoistEndpointsOK(gr.d, cl)) {
			continue
		}
		groups = append(groups, gr.d)
		for _, id := range ids {
			removed[id] = true
		}
	}
	c.deleteChecks(fs, removed, StatChecksHoisted)
	if len(groups) == 0 || emptyConst {
		return
	}

	// Narrowing audit: Elem.Size() is 1 (char) or 4 (int) — mini-C has
	// no nested aggregates — so the int32 conversion cannot truncate;
	// TestHoistNarrowingAudit pins the assumption.
	elemOf := func(d *minic.VarDecl) int32 { return int32(d.Type.Elem.Size()) }
	blocks := c.b.Detour(func() {
		if cl.hiVar == nil {
			// Both endpoints fold base + scaled index in int64;
			// hoistEndpointsOK proved each sum fits int32, so no 32-bit
			// intermediate can wrap.
			for _, d := range groups {
				c.checkArrayAt(d, cl.last()*int64(elemOf(d)))
				c.checkArrayAt(d, int64(cl.lo)*int64(elemOf(d)))
			}
			return
		}
		skip := c.lbl("hsk")
		c.skipZeroTrip(cl, skip)
		// Overflow guard: a final index at or past 2^30/elem is always
		// out of bounds, and the loop's unconditional reference was
		// going to reach the (much smaller) true bound and trap — so
		// trap now rather than let the scaled address computation wrap.
		// Narrowing audit: 2^30/elem with elem in {1,4} stays well
		// inside int32, and H itself is compared as a signed word, so
		// neither the division nor the compare can wrap.
		guard := int32(1 << 30)
		for _, d := range groups {
			if g := (int32(1) << 30) / elemOf(d); g < guard {
				guard = g
			}
		}
		c.b.Op(vm.CMP, vm.R(vm.EAX), vm.I(guard))
		c.b.Jump(vm.JG, "__bounds_trap")
		for _, d := range groups {
			// Highest referenced address: base + (H-1)*elem (base +
			// H*elem for "<="). EAX holds H throughout: the check
			// sequences clobber only ESI/EDI, and the frame base goes
			// through ECX.
			adj := -elemOf(d)
			if cl.incl {
				adj = 0
			}
			c.b.Op(vm.MOV, vm.R(vm.EBX), vm.R(vm.EAX))
			c.checkIndexIn(d, adj, vm.ECX)
			// Lowest referenced address: base + lo*elem, folded in
			// int64 (hoistEndpointsOK proved it fits int32).
			c.checkArrayAt(d, int64(cl.lo)*int64(elemOf(d)))
		}
		c.b.Label(skip)
	})
	fs.frag.InsertPreheader(cand.loop, blocks)
}

// skipZeroTrip jumps to skip when the runtime-bounded loop cl runs zero
// times (H <= lo for "<", H < lo for "<="), leaving H in EAX.
func (c *compiler) skipZeroTrip(cl countedLoop, skip string) {
	c.b.Op(vm.MOV, vm.R(vm.EAX), vm.M(c.slotRef(cl.hiVar, 0)))
	c.b.Op(vm.CMP, vm.R(vm.EAX), vm.I(cl.lo))
	if cl.incl {
		c.b.Jump(vm.JL, skip)
	} else {
		c.b.Jump(vm.JLE, skip)
	}
}

// checkArrayAt emits the check of d's address plus off bytes, folded in
// int64; the caller proved the sum fits int32.
func (c *compiler) checkArrayAt(d *minic.VarDecl, off int64) {
	if d.Storage == minic.StorageGlobal {
		c.b.Op(vm.MOV, vm.R(vm.EBX), vm.I(int32(int64(int32(d.Addr))+off)))
	} else {
		c.b.Op(vm.LEA, vm.R(vm.EBX), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: int32(int64(c.frameOff[d]) + off)}))
	}
	c.emitCheckForDecl(vm.EBX, d)
}

// checkIndexIn emits the check of the element of d whose index is in
// EBX, adj bytes further on; a frame array's base goes through scratch.
func (c *compiler) checkIndexIn(d *minic.VarDecl, adj int32, scratch vm.Reg) {
	c.scaleReg(vm.EBX, int32(d.Type.Elem.Size()))
	if d.Storage == minic.StorageGlobal {
		c.b.Op(vm.ADD, vm.R(vm.EBX), vm.I(int32(d.Addr)+adj))
	} else {
		c.b.Op(vm.LEA, vm.R(scratch), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.frameOff[d] + adj}))
		c.b.Op(vm.ADD, vm.R(vm.EBX), vm.R(scratch))
	}
	c.emitCheckForDecl(vm.EBX, d)
}

// passScope points the emission helpers at the function's frame and
// returns its dominators and check runs, as they stand before the
// pass's first transform of it.
func (c *compiler) passScope(fs *fnState) (map[*ir.Block]map[*ir.Block]bool, map[int]*checkRun) {
	c.fn = fs.fn
	c.frameOff = fs.frameOff
	return fs.frag.BuildCFG().Dominators(), checkRuns(fs.frag)
}
