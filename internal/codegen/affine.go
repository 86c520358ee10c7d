package codegen

import (
	"fmt"

	"cash/internal/ir"
	"cash/internal/minic"
	"cash/internal/vm"
)

// Affine check consolidation ("affine" pass). The canonical-form hoist
// (hoist.go) only recognizes a[v] where v is the innermost induction
// variable, which leaves every computed index — i*n+k flattened-matrix
// references, strided accesses, cross-loop sums — checked on every
// iteration. This pass closes that gap, CHOP-style: an index that is an
// affine form over a chain of enclosing counted loops
//
//	idx = C + Σ c·iv  + Σ c·w·iv  + Σ c·w[·w']      (w loop-invariant)
//
// is replaced by two convex-hull endpoint checks in a preheader before
// the chain's outermost loop: the minimum and maximum index the whole
// iteration space references. The symbolic algebra lives in
// internal/ir/range.go (ir.Affine / ir.IVRange); this file owns the
// mapping from program variables to symbols and the soundness gates.
//
// Soundness rests on three facts (DESIGN.md §14 gives the full
// argument):
//
//  1. Ring equality. The parser accepts only +, -, * and int casts, all
//     of which the target evaluates mod 2^32 — exactly the image of the
//     int64 form under truncation. So the preheader's endpoint
//     computation produces bit-for-bit the index value the body would
//     compute on the corner iteration, wrap included, and the endpoint
//     check behaves identically to that iteration's own check.
//  2. Confined walk. Guards cap every runtime quantity so the true
//     integer extent (max-min over the iteration box) of the scaled
//     index stays below 2^30 bytes, while arrays are capped at 2^24
//     bytes. An address arc of length < 2^32 - size cannot leave
//     [base, limit) and re-enter, so if both endpoints pass their
//     checks, every intermediate reference was in bounds too.
//  3. Guard justification. A trap guard "w > limit -> trap" is only
//     emitted when w bounds a chain loop whose induction variable
//     carries a term with coefficient >= 1 (directly, or scaled by an
//     already-guarded positive variable): more than limit >= sizeElems
//     iterations walk the reference off the end of the array in steps
//     too small to jump the 2^32-size gap, so the original execution
//     was going to trap as well. Trapping in the preheader preserves
//     the violation verdict, the documented observable — the same
//     contract the canonical hoist already has.
//
// Each checked array reference records its loop chain during lowering
// (arrayRef, pipeline.go); parsing, planning and the transform all run
// at pass time.

const (
	// affineMaxChain caps the loop-chain depth a reference may span.
	affineMaxChain = 4
	// affineMaxTerms caps the parsed form's monomial count.
	affineMaxTerms = 6
	// affineSymBase is where loop-invariant variable symbols start;
	// chain induction variables use symbols 0..affineMaxChain-1.
	affineSymBase = ir.Sym(64)
	// affineGuardMax is the largest runtime guard limit ever emitted.
	affineGuardMax = int64(1) << 26
	// affineSpanMax bounds the scaled extent of the reference footprint
	// (fact 2 above): far below 2^32 - affineMaxArray.
	affineSpanMax = int64(1) << 30
	// affineMaxArray is the largest array the pass will transform for.
	affineMaxArray = int64(1) << 24
)

// ---------------------------------------------------------------------
// Parsing: index expression -> ir.Affine over chain/invariant symbols.

// parseAffine maps the index expression to an affine form over the
// effective chain eff. Chain induction variables become symbols
// 0..len(eff)-1; any other int scalar that is local and never
// address-taken becomes an invariant symbol (affineSymBase+declKey).
// Whether those variables really are invariant over the chain is
// checked separately (affineInvariantOK). Only +, -, * , unary minus
// and int casts are accepted — the ring-equality discipline.
func (c *compiler) parseAffine(e minic.Expr, eff []*hoistCand) (ir.Affine, map[ir.Sym]*minic.VarDecl, bool) {
	ivSym := make(map[*minic.VarDecl]ir.Sym, len(eff))
	for m, cand := range eff {
		ivSym[cand.cl.v] = ir.Sym(m)
	}
	syms := make(map[ir.Sym]*minic.VarDecl)
	var walk func(e minic.Expr) (ir.Affine, bool)
	walk = func(e minic.Expr) (ir.Affine, bool) {
		// A fully-constant subtree folds to the same int32 the emitted
		// code computes, whatever operators it uses.
		if v, ok := constEval(e); ok {
			return ir.AffineConst(int64(v)), true
		}
		switch e := e.(type) {
		case *minic.VarRef:
			d := e.Decl
			if d == nil || d.Type != minic.Int {
				return ir.Affine{}, false
			}
			if s, ok := ivSym[d]; ok {
				return ir.AffineSym(s), true
			}
			if d.Storage == minic.StorageGlobal || c.addrTaken[d] {
				return ir.Affine{}, false
			}
			s := affineSymBase + ir.Sym(c.declKey(d))
			syms[s] = d
			return ir.AffineSym(s), true
		case *minic.Unary:
			if e.Op != "-" {
				return ir.Affine{}, false
			}
			x, ok := walk(e.X)
			if !ok {
				return ir.Affine{}, false
			}
			return x.MulConst(-1)
		case *minic.Cast:
			if e.To != minic.Int {
				return ir.Affine{}, false
			}
			return walk(e.X)
		case *minic.Binary:
			x, ok := walk(e.X)
			if !ok {
				return ir.Affine{}, false
			}
			y, ok := walk(e.Y)
			if !ok {
				return ir.Affine{}, false
			}
			switch e.Op {
			case "+":
				return x.Add(y)
			case "-":
				return x.Sub(y)
			case "*":
				return x.Mul(y)
			}
			return ir.Affine{}, false
		default:
			return ir.Affine{}, false
		}
	}
	aff, ok := walk(e)
	if !ok || len(aff.Terms) == 0 || len(aff.Terms) > affineMaxTerms {
		return ir.Affine{}, nil, false
	}
	return aff, syms, true
}

// affineChainRect rejects chains whose iteration space is not a box: a
// member bounded by an outer member's induction variable (triangular
// nest). Shrinking the chain past the boundary turns the outer variable
// into an invariant, which is how triangular forms are still served.
func affineChainRect(eff []*hoistCand) bool {
	for i := 1; i < len(eff); i++ {
		hv := eff[i].cl.hiVar
		if hv == nil {
			continue
		}
		for j := 0; j < i; j++ {
			if eff[j].cl.v == hv {
				return false
			}
		}
	}
	return true
}

// affineInvariantOK verifies at pass time that no support variable —
// invariant symbols and the runtime bounds of inner chain members — is
// written (assigned, incremented, or re-declared) anywhere inside the
// effective chain's outermost For statement. Unconfined stores cannot
// reach them (loopBodySafe admits only scalar and direct-array
// stores), and calls cannot either (support variables are local and
// never address-taken), so a direct write scan is complete.
func (c *compiler) affineInvariantOK(eff []*hoistCand, syms map[ir.Sym]*minic.VarDecl) bool {
	support := make(map[*minic.VarDecl]bool)
	for _, d := range syms {
		support[d] = true
	}
	for _, m := range eff {
		if m.cl.hiVar != nil {
			support[m.cl.hiVar] = true
		}
	}
	if len(support) == 0 {
		return true
	}
	return !affineWrites(eff[0].s, support)
}

func affineWrites(s minic.Stmt, support map[*minic.VarDecl]bool) bool {
	writes := false
	minic.Inspect(s, func(n any) bool {
		var target minic.Expr
		switch n := n.(type) {
		case *minic.Assign:
			target = n.LHS
		case *minic.IncDec:
			target = n.X
		case *minic.VarDecl:
			// Re-declaring a support variable inside the chain means its
			// preheader-time slot value is not the body's value.
			writes = writes || support[n]
		}
		if vr, ok := target.(*minic.VarRef); ok && support[vr.Decl] {
			writes = true
		}
		return !writes
	})
	return writes
}

// ---------------------------------------------------------------------
// Planning: affine form -> endpoint emission plan with guards.

// affRunTerm is one runtime contribution to an endpoint: load a, minus
// one when sub1, times [b], times coeff, accumulate. coeff is applied
// mod 2^32 (ring equality makes truncation exact, not lossy).
type affRunTerm struct {
	a     *minic.VarDecl
	sub1  bool
	b     *minic.VarDecl
	coeff int64
}

// affinePlan is everything applyAffine needs to emit one group's
// preheader.
type affinePlan struct {
	d     *minic.VarDecl
	eff   []*hoistCand
	empty bool // a const-bound chain member runs zero times: checks are dead
	// Endpoint computations: constant part plus runtime terms.
	maxConst, minConst int64
	maxTerms, minTerms []affRunTerm
	// guards are the runtime variables capped at limit before the
	// endpoints are computed, in justification-dependency order.
	guards []*minic.VarDecl
	limit  int64
}

// affAdd / affMul are int64 arithmetic with overflow detection (the
// planning-time analog of ir's budget-checked helpers).
func affAdd(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func affMul(a, b int64) (int64, bool) {
	p := a * b
	if a != 0 && p/a != b {
		return 0, false
	}
	return p, true
}

// extent pieces: worst-case contribution of one term to the footprint
// extent, as a function of the guard limit T.
type affExtent struct {
	c    int64 // scale (always >= 0)
	lo   int64 // runtime iv low bound (kinds 1 and 2)
	kind int   // 0: constant c; 1: c*(T-lo); 2: c*T*(T-lo); 3: c*T
}

func (x affExtent) eval(t int64) (int64, bool) {
	switch x.kind {
	case 0:
		return x.c, true
	case 1:
		return affMul(x.c, t-x.lo)
	case 2:
		v, ok := affMul(t, t-x.lo)
		if !ok {
			return 0, false
		}
		return affMul(x.c, v)
	default:
		return affMul(x.c, t)
	}
}

// planAffine classifies the form's terms against the effective chain
// and produces the emission plan, or fails (the caller then shrinks the
// chain or leaves the per-iteration checks — always a safe fallback).
func (c *compiler) planAffine(d *minic.VarDecl, eff []*hoistCand, aff ir.Affine, syms map[ir.Sym]*minic.VarDecl) (*affinePlan, bool) {
	elem := int64(d.Type.Elem.Size())
	size := int64(d.Type.Size())
	if elem <= 0 || size > affineMaxArray {
		return nil, false
	}
	sizeElems := size / elem
	p := &affinePlan{d: d, eff: eff}

	// Induction-variable value ranges, via the ir domain.
	rngs := make([]ir.IVRange, len(eff))
	for m, cand := range eff {
		r := ir.IVRange{Lo: int64(cand.cl.lo), HiSym: ir.NoSym, Incl: cand.cl.incl}
		if cand.cl.hiVar != nil {
			r.HiSym = ir.Sym(m)
		} else {
			r.HiConst = int64(cand.cl.hiConst)
			if r.Empty() {
				p.empty = true
			}
		}
		rngs[m] = r
	}
	if p.empty {
		return p, true // dead references: delete checks, no preheader
	}

	isIv := func(s ir.Sym) bool { return s >= 0 && int(s) < len(eff) }
	runtimeOf := func(m int) *minic.VarDecl { return eff[m].cl.hiVar }

	p.maxConst, p.minConst = aff.Const, aff.Const
	signOf := make([]int, len(eff))      // per-iv effective term sign
	constCoeff := make([]bool, len(eff)) // iv has a const-coeff term >= 1
	varCoeffOf := make([][]*minic.VarDecl, len(eff))
	var extents []affExtent
	var guards []*minic.VarDecl
	guarded := make(map[*minic.VarDecl]bool)
	needGuard := func(v *minic.VarDecl) {
		if !guarded[v] {
			guarded[v] = true
			guards = append(guards, v)
		}
	}
	addConst := func(dst *int64, v int64) bool {
		s, ok := affAdd(*dst, v)
		if !ok {
			return false
		}
		*dst = s
		return true
	}
	haveIv := false

	for _, t := range aff.Terms {
		sign := 1
		if t.Coeff < 0 {
			sign = -1
		}
		switch {
		case isIv(t.X) && t.Y == ir.NoSym:
			// c * iv
			m := int(t.X)
			haveIv = true
			if signOf[m] != 0 && signOf[m] != sign {
				return nil, false // mixed directions: corners not achievable
			}
			signOf[m] = sign
			r := rngs[m]
			if r.HiSym != ir.NoSym {
				if t.Coeff < 1 {
					return nil, false
				}
				constCoeff[m] = true
				p.maxTerms = append(p.maxTerms, affRunTerm{a: runtimeOf(m), sub1: !r.Incl, coeff: t.Coeff})
				v, ok := affMul(t.Coeff, r.Lo)
				if !ok || !addConst(&p.minConst, v) {
					return nil, false
				}
				if t.Coeff > affineSpanMax {
					return nil, false
				}
				needGuard(runtimeOf(m))
				extents = append(extents, affExtent{c: t.Coeff, lo: r.Lo, kind: 1})
			} else {
				iv, _ := r.ConstRange()
				up, dn := iv.Hi, iv.Lo
				if t.Coeff < 0 {
					up, dn = iv.Lo, iv.Hi
				}
				vu, ok1 := affMul(t.Coeff, up)
				vd, ok2 := affMul(t.Coeff, dn)
				if !ok1 || !ok2 || !addConst(&p.maxConst, vu) || !addConst(&p.minConst, vd) {
					return nil, false
				}
				span, ok := affMul(abs64(t.Coeff), iv.Hi-iv.Lo)
				if !ok {
					return nil, false
				}
				extents = append(extents, affExtent{c: span, kind: 0})
			}

		case isIv(t.X) && isIv(t.Y):
			return nil, false // iv*iv: outside the discipline

		case isIv(t.X) && t.Y != ir.NoSym:
			// c * w * iv with w loop-invariant. w must be provably
			// positive: the runtime bound of a chain member whose low
			// bound is >= 0, so its skip guard establishes w >= 1.
			m := int(t.X)
			w := syms[t.Y]
			if w == nil {
				return nil, false
			}
			haveIv = true
			positive := false
			for _, cand := range eff {
				if cand.cl.hiVar == w && int64(cand.cl.lo) >= 0 {
					positive = true
					break
				}
			}
			if !positive {
				return nil, false
			}
			if signOf[m] != 0 && signOf[m] != sign {
				return nil, false
			}
			signOf[m] = sign
			r := rngs[m]
			if r.HiSym != ir.NoSym {
				if t.Coeff < 1 {
					return nil, false
				}
				varCoeffOf[m] = append(varCoeffOf[m], w)
				p.maxTerms = append(p.maxTerms, affRunTerm{a: runtimeOf(m), sub1: !r.Incl, b: w, coeff: t.Coeff})
				if r.Lo != 0 {
					v, ok := affMul(t.Coeff, r.Lo)
					if !ok {
						return nil, false
					}
					p.minTerms = append(p.minTerms, affRunTerm{a: w, coeff: v})
				}
				needGuard(w)
				needGuard(runtimeOf(m))
				extents = append(extents, affExtent{c: t.Coeff, lo: r.Lo, kind: 2})
			} else {
				iv, _ := r.ConstRange()
				up, dn := iv.Hi, iv.Lo
				if t.Coeff < 0 {
					up, dn = iv.Lo, iv.Hi
				}
				cu, ok1 := affMul(t.Coeff, up)
				cd, ok2 := affMul(t.Coeff, dn)
				if !ok1 || !ok2 {
					return nil, false
				}
				if cu != 0 {
					p.maxTerms = append(p.maxTerms, affRunTerm{a: w, coeff: cu})
				}
				if cd != 0 {
					p.minTerms = append(p.minTerms, affRunTerm{a: w, coeff: cd})
				}
				span, ok := affMul(abs64(t.Coeff), iv.Hi-iv.Lo)
				if !ok {
					return nil, false
				}
				needGuard(w)
				extents = append(extents, affExtent{c: span, kind: 3})
			}

		case t.Y == ir.NoSym:
			// c * w: invariant, identical in both endpoints, no extent.
			w := syms[t.X]
			if w == nil {
				return nil, false
			}
			p.maxTerms = append(p.maxTerms, affRunTerm{a: w, coeff: t.Coeff})
			p.minTerms = append(p.minTerms, affRunTerm{a: w, coeff: t.Coeff})

		default:
			// c * w * w': invariant product.
			w1, w2 := syms[t.X], syms[t.Y]
			if w1 == nil || w2 == nil {
				return nil, false
			}
			p.maxTerms = append(p.maxTerms, affRunTerm{a: w1, b: w2, coeff: t.Coeff})
			p.minTerms = append(p.minTerms, affRunTerm{a: w1, b: w2, coeff: t.Coeff})
		}
	}
	if !haveIv {
		return nil, false // pure-invariant index: rce territory, not ours
	}

	// Guard justification (fact 3). J1: the variable bounds a member
	// whose iv has a const-coeff term. J2: it bounds a member whose iv
	// has a var-coeff term scaled by an already-J1-justified variable.
	just := make(map[*minic.VarDecl]int64) // justified guard -> required floor for limit
	improve := func(v *minic.VarDecl, lo int64) {
		floor := lo + sizeElems
		if old, ok := just[v]; !ok || floor < old {
			just[v] = floor
		}
	}
	for m, cand := range eff {
		if cand.cl.hiVar == nil || !constCoeff[m] {
			continue
		}
		improve(cand.cl.hiVar, int64(cand.cl.lo))
	}
	for m, cand := range eff {
		if cand.cl.hiVar == nil {
			continue
		}
		for _, w := range varCoeffOf[m] {
			if _, ok := just[w]; ok {
				improve(cand.cl.hiVar, int64(cand.cl.lo))
			}
		}
	}
	floor := int64(1)
	for _, g := range guards {
		f, ok := just[g]
		if !ok {
			return nil, false // unjustifiable guard: bail, keep body checks
		}
		if f > floor {
			floor = f
		}
	}
	// Emission order: J2-justified guards rely on their scale variable
	// having been capped first. Justification only ever chains one step
	// (J2's w is J1), so a stable partition suffices.
	ordered := make([]*minic.VarDecl, 0, len(guards))
	for _, g := range guards {
		if isJ1(g, eff, constCoeff) {
			ordered = append(ordered, g)
		}
	}
	for _, g := range guards {
		if !isJ1(g, eff, constCoeff) {
			ordered = append(ordered, g)
		}
	}
	p.guards = ordered

	// Pick the largest limit within budget: extent(limit)*elem must stay
	// under affineSpanMax (fact 2). Monotone in limit -> binary search.
	extOK := func(t int64) bool {
		sum := int64(0)
		for _, x := range extents {
			v, ok := x.eval(t)
			if !ok {
				return false
			}
			if sum, ok = affAdd(sum, v); !ok {
				return false
			}
		}
		s, ok := affMul(sum, elem)
		return ok && s <= affineSpanMax
	}
	if len(p.guards) == 0 {
		if !extOK(0) {
			return nil, false
		}
		p.limit = 0
		return p, true
	}
	lo, hi := floor, affineGuardMax
	if lo > hi || !extOK(lo) {
		return nil, false // can't cap tightly enough to stay sound
	}
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if extOK(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	p.limit = lo
	return p, true
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func isJ1(g *minic.VarDecl, eff []*hoistCand, constCoeff []bool) bool {
	for m, cand := range eff {
		if cand.cl.hiVar == g && constCoeff[m] {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// The transform.

type affinePass struct{}

func (affinePass) Name() string { return "affine" }

func (affinePass) run(c *compiler, m *ir.Module) error {
	c.stats[StatChecksAffine] += 0 // the key is present whenever the pass ran
	for _, fs := range c.fns {
		c.affineFunc(fs)
	}
	return nil
}

// affineGroup collects the checks covered by one endpoint pair.
type affineGroup struct {
	plan *affinePlan
	ids  []int
}

// affineFunc takes the references with a register index and a loop
// chain: the candidates whose index may be affine over the chain.
func (c *compiler) affineFunc(fs *fnState) {
	var cands []arrayRef
	for _, ref := range fs.refs {
		if ref.idx != nil && len(ref.chain) > 0 && !c.deadChecks[ref.id] {
			cands = append(cands, ref) // live: rce or hoist may have removed it
		}
	}
	if len(cands) == 0 {
		return
	}
	dom, runs := c.passScope(fs)
	groups := make(map[string]*affineGroup)
	var order []string
	for _, ref := range cands {
		run := runs[ref.id]
		if run == nil {
			continue
		}
		hb := run.head
		// Longest workable chain suffix wins: a failed parse or plan
		// retries with outer members demoted to invariants (which is
		// how triangular nests and loop-carried products are served).
		var plan *affinePlan
		var start int
		for start = 0; start < len(ref.chain); start++ {
			eff := ref.chain[start:]
			if !affineChainRect(eff) {
				continue
			}
			// CFG restatement of the depth==j chain construction: the
			// check block dominates the innermost latch (it executes on
			// every innermost iteration), and each member's loop header
			// dominates the enclosing member's latch (the nest is
			// perfect: the inner loop runs on every outer iteration).
			// Zero-trip inner loops are no escape hatch — the skip
			// guards (runtime bounds) and the empty-plan path (constant
			// bounds) handle them — and loopBodySafe has already
			// rejected break/continue/return anywhere in the nest, so
			// once entered the whole iteration box is traversed unless
			// a trap cuts it short (in which case the original program
			// reports a violation too).
			domOK := true
			for mi, m := range eff {
				ld := dom[m.loop.Latch]
				if ld == nil {
					domOK = false
					break
				}
				if mi == len(eff)-1 {
					if !ld[hb] {
						domOK = false
						break
					}
				} else if !ld[eff[mi+1].loop.Header] {
					domOK = false
					break
				}
			}
			if !domOK {
				continue
			}
			aff, syms, ok := c.parseAffine(ref.idx, eff)
			if !ok {
				continue
			}
			pl, ok := c.planAffine(ref.d, eff, aff, syms)
			if !ok {
				continue
			}
			if !pl.empty && !c.affineInvariantOK(eff, syms) {
				continue
			}
			plan = pl
			break
		}
		if plan == nil {
			continue
		}
		key := fmt.Sprintf("%p|%d|%d|%s", ref.chain[len(ref.chain)-1], start,
			c.declKey(ref.d), affinePlanKey(plan))
		gr, ok := groups[key]
		if !ok {
			gr = &affineGroup{plan: plan}
			groups[key] = gr
			order = append(order, key)
		}
		gr.ids = append(gr.ids, ref.id)
	}
	for _, key := range order {
		c.applyAffine(fs, groups[key])
	}
}

// affinePlanKey renders the endpoint computation canonically so refs
// covered by the same endpoints share one preheader pair.
func affinePlanKey(p *affinePlan) string {
	s := fmt.Sprintf("%d|%d", p.maxConst, p.minConst)
	for _, t := range p.maxTerms {
		s += fmt.Sprintf("|M%p:%v:%p:%d", t.a, t.sub1, t.b, t.coeff)
	}
	for _, t := range p.minTerms {
		s += fmt.Sprintf("|m%p:%v:%p:%d", t.a, t.sub1, t.b, t.coeff)
	}
	return s
}

func (c *compiler) applyAffine(fs *fnState, gr *affineGroup) {
	p := gr.plan
	removed := make(map[int]bool, len(gr.ids))
	for _, id := range gr.ids {
		removed[id] = true
	}
	c.deleteChecks(fs, removed, StatChecksAffine)
	if p.empty {
		return
	}

	d := p.d
	blocks := c.b.Detour(func() {
		// Zero-trip skips: one per runtime-bound chain member. Passing
		// them also establishes bound > lo for the positivity and
		// justification arguments.
		skip := ""
		for _, m := range p.eff {
			if m.cl.hiVar == nil {
				continue
			}
			if skip == "" {
				skip = c.lbl("ask")
			}
			c.skipZeroTrip(m.cl, skip)
		}
		// Trap guards: each capped variable that exceeds the limit
		// proves the original execution walks off the array, so the
		// verdict is preserved (DESIGN.md §14).
		for _, gv := range p.guards {
			c.b.Op(vm.MOV, vm.R(vm.EAX), vm.M(c.slotRef(gv, 0)))
			c.b.Op(vm.CMP, vm.R(vm.EAX), vm.I(int32(p.limit)))
			c.b.Jump(vm.JG, "__bounds_trap")
		}
		// Endpoints. int32 truncation of the folded constants is the
		// mod-2^32 ring map — it reproduces the body's own wrap exactly
		// rather than losing information.
		endpoint := func(constPart int64, terms []affRunTerm) {
			c.b.Op(vm.MOV, vm.R(vm.EBX), vm.I(int32(uint32(uint64(constPart)))))
			for _, t := range terms {
				c.b.Op(vm.MOV, vm.R(vm.EAX), vm.M(c.slotRef(t.a, 0)))
				if t.sub1 {
					c.b.Op(vm.SUB, vm.R(vm.EAX), vm.I(1))
				}
				if t.b != nil {
					c.b.Op(vm.IMUL, vm.R(vm.EAX), vm.M(c.slotRef(t.b, 0)))
				}
				if t.coeff != 1 {
					c.b.Op(vm.IMUL, vm.R(vm.EAX), vm.I(int32(uint32(uint64(t.coeff)))))
				}
				c.b.Op(vm.ADD, vm.R(vm.EBX), vm.R(vm.EAX))
			}
			c.checkIndexIn(d, 0, vm.EAX)
		}
		endpoint(p.maxConst, p.maxTerms)
		endpoint(p.minConst, p.minTerms)
		if skip != "" {
			c.b.Label(skip)
		}
	})
	fs.frag.InsertPreheader(p.eff[0].loop, blocks)
}
