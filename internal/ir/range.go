package ir

import "sort"

// range.go is a small SCEV-style symbolic value-range domain. The back
// end's affine check-consolidation pass ("affine", codegen/affine.go)
// derives {base, stride, trip-count} chains for counted-loop induction
// variables and represents each array-index expression as an Affine
// form over symbols; this file owns the algebra — normalization and
// checked arithmetic — while the pass owns the mapping from program
// variables to symbols and the soundness conditions for using the
// resulting ranges.
//
// All arithmetic is performed in int64 and rejected when a value leaves
// ±RangeBudget, so it can never silently wrap: callers either get an
// exact form or an explicit failure.

// Sym identifies a symbolic quantity — an induction variable or a
// loop-invariant scalar — inside an Affine form. Symbol identity and
// meaning belong to the caller; the domain only does arithmetic.
type Sym int

// NoSym marks an absent symbol slot in a Term.
const NoSym Sym = -1

// RangeBudget bounds every value the domain computes with. It is far
// above any legal 32-bit index or scaled address, so hitting it means
// the form is outside what the target's arithmetic can represent
// exactly — the caller must bail rather than reason with wrapped values.
const RangeBudget = int64(1) << 40

// Term is one monomial of an affine form: Coeff, Coeff*X, or
// Coeff*X*Y. Degree-0 constants fold into Affine.Const instead; X is
// always present in a stored term, Y may be NoSym. Terms are kept
// canonical with X <= Y.
type Term struct {
	Coeff int64
	X, Y  Sym
}

func (t Term) degree() int {
	if t.Y != NoSym {
		return 2
	}
	return 1
}

// Affine is the normal form Const + Σ Terms. The zero value is the
// constant 0.
type Affine struct {
	Const int64
	Terms []Term
}

// AffineConst returns the constant form c.
func AffineConst(c int64) Affine { return Affine{Const: c} }

// AffineSym returns the form 1*s.
func AffineSym(s Sym) Affine {
	return Affine{Terms: []Term{{Coeff: 1, X: s, Y: NoSym}}}
}

func inBudget(v int64) bool { return v >= -RangeBudget && v <= RangeBudget }

// addCheck adds with the budget enforced.
func addCheck(a, b int64) (int64, bool) {
	s := a + b
	if !inBudget(a) || !inBudget(b) || !inBudget(s) {
		return 0, false
	}
	return s, true
}

// mulCheck multiplies with the budget enforced. Inputs within
// ±RangeBudget cannot overflow int64 undetected because the product is
// checked by division.
func mulCheck(a, b int64) (int64, bool) {
	if !inBudget(a) || !inBudget(b) {
		return 0, false
	}
	p := a * b
	if a != 0 && p/a != b {
		return 0, false
	}
	if !inBudget(p) {
		return 0, false
	}
	return p, true
}

// normalize sorts terms, merges like monomials, and drops zero
// coefficients. Returns ok=false when a merged coefficient leaves the
// budget.
func (a Affine) normalize() (Affine, bool) {
	if !inBudget(a.Const) {
		return Affine{}, false
	}
	terms := append([]Term(nil), a.Terms...)
	for i := range terms {
		if terms[i].Y != NoSym && terms[i].Y < terms[i].X {
			terms[i].X, terms[i].Y = terms[i].Y, terms[i].X
		}
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].X != terms[j].X {
			return terms[i].X < terms[j].X
		}
		return terms[i].Y < terms[j].Y
	})
	out := terms[:0]
	for _, t := range terms {
		if len(out) > 0 && out[len(out)-1].X == t.X && out[len(out)-1].Y == t.Y {
			c, ok := addCheck(out[len(out)-1].Coeff, t.Coeff)
			if !ok {
				return Affine{}, false
			}
			out[len(out)-1].Coeff = c
			continue
		}
		out = append(out, t)
	}
	kept := out[:0]
	for _, t := range out {
		if t.Coeff != 0 {
			kept = append(kept, t)
		}
	}
	return Affine{Const: a.Const, Terms: append([]Term(nil), kept...)}, true
}

// Add returns a+b in normal form.
func (a Affine) Add(b Affine) (Affine, bool) {
	c, ok := addCheck(a.Const, b.Const)
	if !ok {
		return Affine{}, false
	}
	sum := Affine{Const: c, Terms: append(append([]Term(nil), a.Terms...), b.Terms...)}
	return sum.normalize()
}

// Sub returns a-b in normal form.
func (a Affine) Sub(b Affine) (Affine, bool) {
	nb, ok := b.MulConst(-1)
	if !ok {
		return Affine{}, false
	}
	return a.Add(nb)
}

// MulConst returns a*c in normal form.
func (a Affine) MulConst(c int64) (Affine, bool) {
	k, ok := mulCheck(a.Const, c)
	if !ok {
		return Affine{}, false
	}
	out := Affine{Const: k}
	for _, t := range a.Terms {
		nc, ok := mulCheck(t.Coeff, c)
		if !ok {
			return Affine{}, false
		}
		out.Terms = append(out.Terms, Term{Coeff: nc, X: t.X, Y: t.Y})
	}
	return out.normalize()
}

// Mul returns a*b when the product stays within degree 2 (the domain's
// ceiling: a product of two symbols). Anything higher — or a product of
// two degree-2 terms — is outside the affine discipline and fails.
func (a Affine) Mul(b Affine) (Affine, bool) {
	out := Affine{}
	var ok bool
	if out.Const, ok = mulCheck(a.Const, b.Const); !ok {
		return Affine{}, false
	}
	for _, t := range a.Terms {
		c, ok := mulCheck(t.Coeff, b.Const)
		if !ok {
			return Affine{}, false
		}
		if c != 0 {
			out.Terms = append(out.Terms, Term{Coeff: c, X: t.X, Y: t.Y})
		}
	}
	for _, t := range b.Terms {
		c, ok := mulCheck(t.Coeff, a.Const)
		if !ok {
			return Affine{}, false
		}
		if c != 0 {
			out.Terms = append(out.Terms, Term{Coeff: c, X: t.X, Y: t.Y})
		}
	}
	for _, ta := range a.Terms {
		for _, tb := range b.Terms {
			if ta.degree()+tb.degree() > 2 {
				return Affine{}, false
			}
			c, ok := mulCheck(ta.Coeff, tb.Coeff)
			if !ok {
				return Affine{}, false
			}
			if c != 0 {
				out.Terms = append(out.Terms, Term{Coeff: c, X: ta.X, Y: tb.X})
			}
		}
	}
	return out.normalize()
}

// Interval is a closed integer interval [Lo, Hi].
type Interval struct{ Lo, Hi int64 }

// IVRange is the value range of a counted-loop induction variable
// `for (v = Lo; v < H; v++)` (or <= when Incl): the trip-count chain's
// {base, stride=1, bound} rendered as the closed interval of values v
// takes in iterations that execute the body. HiSym names a runtime
// bound; HiConst is used when HiSym is NoSym.
type IVRange struct {
	Lo      int64
	HiConst int64
	HiSym   Sym
	Incl    bool
}

// ConstRange resolves the iv's closed value interval when the bound is
// a compile-time constant; ok=false for symbolic bounds or empty loops.
func (r IVRange) ConstRange() (Interval, bool) {
	if r.HiSym != NoSym {
		return Interval{}, false
	}
	hi := r.HiConst
	if !r.Incl {
		hi--
	}
	if hi < r.Lo {
		return Interval{}, false // zero-trip loop: no values at all
	}
	return Interval{r.Lo, hi}, true
}

// Empty reports whether a constant-bound loop executes zero iterations.
func (r IVRange) Empty() bool {
	if r.HiSym != NoSym {
		return false
	}
	hi := r.HiConst
	if !r.Incl {
		hi--
	}
	return hi < r.Lo
}
