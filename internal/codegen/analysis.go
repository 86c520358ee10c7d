package codegen

import (
	"cash/internal/minic"
	"cash/internal/x86seg"
)

// Loop/array analysis (§3.4, §3.7).
//
// Cash bound-checks array-like references *inside loops*. For each
// outermost loop we collect the distinct array objects referenced anywhere
// within it (nested loops included) in first-come-first-serve syntactic
// order, and assign each to one of the available segment registers. Arrays
// beyond the register budget are "spilled": their references fall back to
// software bound checks against the object's info structure. An object is
// identified by the declaration of the array variable or pointer variable
// the reference goes through; references through computed pointers
// (function results, nested derefs) cannot be pinned to a segment register
// and always use the software path inside loops.
//
// A pointer variable that is wholesale-reassigned inside the loop (p = q,
// as opposed to p++ or p += k, which stay within the same object) cannot
// keep a segment register either, because the register would go stale; it
// is excluded from assignment and its references are software-checked.

// loopInfo is the analysis result for one outermost loop.
type loopInfo struct {
	// stmt is the loop statement (*minic.WhileStmt or *minic.ForStmt).
	stmt minic.Stmt
	// assigned maps array/pointer declarations to their segment register,
	// in FCFS order.
	assigned map[*minic.VarDecl]x86seg.SegReg
	// order preserves the FCFS order of all distinct objects seen.
	order []*minic.VarDecl
	// spilled objects are checked in software.
	spilled map[*minic.VarDecl]bool
	// modified pointers are advanced inside the loop (p++, p += k): they
	// stay within their object, so they keep their segment register, but
	// the hoisted relative base cannot be used — references recompute the
	// segment offset from the live pointer value and the hoisted lower
	// bound.
	modified map[*minic.VarDecl]bool
	// distinct is the number of distinct array objects in the loop.
	distinct int
}

// funcAnalysis is the analysis result for one function.
type funcAnalysis struct {
	// loops holds each outermost loop's info in source order, the
	// order the frame layout assigns their hoisting slots in.
	loops []*loopInfo
	// segRegsUsed is the set of segment registers the function touches
	// (for save/restore in the prologue/epilogue, §3.7).
	segRegsUsed []x86seg.SegReg
}

// analyzeFunc walks a function body, finds outermost loops and performs
// segment-register assignment with the given register budget.
func analyzeFunc(fn *minic.FuncDecl, segRegs []x86seg.SegReg) *funcAnalysis {
	fa := &funcAnalysis{}
	used := make(map[x86seg.SegReg]bool)
	minic.Inspect(fn.Body, func(n any) bool {
		switch n.(type) {
		case *minic.BlockStmt, *minic.IfStmt:
			return true
		case *minic.WhileStmt, *minic.ForStmt:
			loop := n.(minic.Stmt)
			li := analyzeLoop(loop, segRegs)
			fa.loops = append(fa.loops, li)
			for _, r := range li.assigned {
				used[r] = true
			}
		}
		return false
	})
	for _, r := range segRegs {
		if used[r] {
			fa.segRegsUsed = append(fa.segRegsUsed, r)
		}
	}
	return fa
}

// analyzeLoop collects array objects referenced within an outermost loop
// (body plus, for a for-loop, its condition and post expressions) and
// assigns segment registers FCFS.
func analyzeLoop(loop minic.Stmt, segRegs []x86seg.SegReg) *loopInfo {
	li := &loopInfo{
		stmt:     loop,
		assigned: make(map[*minic.VarDecl]x86seg.SegReg),
		spilled:  make(map[*minic.VarDecl]bool),
		modified: make(map[*minic.VarDecl]bool),
	}
	seen := make(map[*minic.VarDecl]bool)
	reassigned := make(map[*minic.VarDecl]bool)

	note := func(d *minic.VarDecl) {
		if d == nil || seen[d] {
			return
		}
		seen[d] = true
		li.order = append(li.order, d)
	}
	// pointerVar returns the declaration of e when e names a pointer
	// variable.
	pointerVar := func(e minic.Expr) *minic.VarDecl {
		if v, ok := e.(*minic.VarRef); ok && v.Decl != nil && v.Decl.Type.Kind == minic.TypePointer {
			return v.Decl
		}
		return nil
	}

	visit := func(n any) bool {
		switch n := n.(type) {
		case *minic.Index:
			note(refObject(n.Base))
		case *minic.Unary:
			if n.Op == "*" {
				note(refObject(n.X))
			}
		case *minic.IncDec:
			if d := pointerVar(n.X); d != nil {
				li.modified[d] = true
			}
		case *minic.Assign:
			// Wholesale reassignment of a pointer variable invalidates a
			// segment register held over it.
			if d := pointerVar(n.LHS); d != nil {
				if n.Op == "=" {
					reassigned[d] = true
				} else {
					li.modified[d] = true
				}
			}
		case *minic.VarDecl:
			// A pointer declared inside the loop body has no value when
			// the loop preamble runs, so it cannot hold a hoisted segment
			// register: treat it like a reassigned pointer
			// (software-checked).
			if n.Type.Kind == minic.TypePointer {
				reassigned[n] = true
			}
		}
		return true
	}
	switch s := loop.(type) {
	case *minic.ForStmt:
		minic.Inspect(s.Cond, visit)
		minic.Inspect(s.Post, visit)
		minic.Inspect(s.Body, visit)
	case *minic.WhileStmt:
		// Only the body: unlike a for loop's condition, a while loop's
		// condition is not part of the analysis.
		minic.Inspect(s.Body, visit)
	}

	li.distinct = len(li.order)
	next := 0
	for _, d := range li.order {
		if reassigned[d] {
			li.spilled[d] = true
			continue
		}
		if next < len(segRegs) {
			li.assigned[d] = segRegs[next]
			next++
		} else {
			li.spilled[d] = true
		}
	}
	return li
}

// refObject returns the declaration that identifies the array object a
// reference goes through, or nil when the base is a computed expression.
func refObject(base minic.Expr) *minic.VarDecl {
	switch b := base.(type) {
	case *minic.VarRef:
		if b.Decl != nil && (b.Decl.Type.Kind == minic.TypeArray || b.Decl.Type.Kind == minic.TypePointer) {
			return b.Decl
		}
	case *minic.Cast:
		return refObject(b.X)
	}
	return nil
}

// LoopStats summarises the static loop characteristics the paper reports
// in Tables 4 and 7.
type LoopStats struct {
	ArrayUsingLoops int // loops whose body references at least one array
	SpilledLoops    int // loops with more than len(segRegs) distinct arrays
}

// AnalyzeLoopStats counts array-using loops and spilled loops over a whole
// program, counting every loop (not just outermost), as the paper's
// characteristics tables do.
func AnalyzeLoopStats(prog *minic.Program, budget int) LoopStats {
	var st LoopStats
	for _, fn := range prog.Funcs {
		minic.Inspect(fn.Body, func(n any) bool {
			switch n.(type) {
			case *minic.WhileStmt, *minic.ForStmt:
				li := analyzeLoop(n.(minic.Stmt), nil)
				if li.distinct > 0 {
					st.ArrayUsingLoops++
				}
				if li.distinct > budget {
					st.SpilledLoops++
				}
			}
			return true
		})
	}
	return st
}
