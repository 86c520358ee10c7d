package codegen

import (
	"fmt"

	"cash/internal/minic"
	"cash/internal/vm"
	"cash/internal/x86seg"
)

// Function and statement code generation: frames, prologue/epilogue
// (segment-register save/restore and local-array segment lifecycle, §3.6
// and §3.7), loop preambles (hoisted segment set-up, §3.3), and control
// flow. Loops additionally build the IR loop tree (ir.Builder.BeginLoop)
// and register hoisting candidates for the optional passes.

func (c *compiler) genFunc(fn *minic.FuncDecl) error {
	c.fn = fn
	c.fa = c.strat.analyzeFunc(c, fn)
	c.frameOff = make(map[*minic.VarDecl]int32)
	c.loopCtxFor = make(map[minic.Stmt]*loopCtx)
	c.loops = nil
	c.inLoop = 0
	c.hoistCands = nil
	c.addrTaken = nil
	if len(c.cfg.Passes) > 0 {
		// Read only by the counted-loop matcher and affine.
		c.addrTaken = make(map[*minic.VarDecl]bool)
		c.scanAddrTaken(fn.Body)
	}

	// Parameter slots: pushed right-to-left, so the first parameter is at
	// EBP+8. Fat pointer parameters occupy 2 (Cash) or 3 (BCC) words.
	off := int32(8)
	for _, p := range fn.Params {
		c.frameOff[p] = off
		off += c.slotSize(p.Type)
	}

	// Local slots. Every declaration in the function, however nested,
	// gets its own slot. Cash local arrays get an info structure
	// immediately below the array storage (§3.2).
	cur := int32(0)
	var localArrays []*minic.VarDecl
	minic.Inspect(fn.Body, func(n any) bool {
		switch d := n.(type) {
		case minic.Expr:
			return false
		case *minic.VarDecl:
			if d.Type.Kind != minic.TypeArray {
				cur -= c.slotSize(d.Type)
				c.frameOff[d] = cur
				return false
			}
			cur -= int32((d.Type.Size() + 3) &^ 3)
			c.frameOff[d] = cur
			var track bool
			cur, track = c.strat.localArrayFrame(c, d, cur)
			if track {
				localArrays = append(localArrays, d)
			}
			return false
		}
		return true
	})

	// Hoisting slots for the per-loop segment set-up (§3.3).
	temps := make(map[int32]bool)
	for _, li := range c.fa.loops {
		lc := &loopCtx{
			info:    li,
			relSlot: make(map[*minic.VarDecl]int32),
			lowSlot: make(map[*minic.VarDecl]int32),
		}
		for _, d := range li.order {
			if _, ok := li.assigned[d]; !ok || d.Type.Kind != minic.TypePointer {
				continue
			}
			cur -= 4
			lc.lowSlot[d] = cur
			temps[cur] = true
			if !li.modified[d] {
				cur -= 4
				lc.relSlot[d] = cur
				temps[cur] = true
			}
		}
		c.loopCtxFor[li.stmt] = lc
	}
	frameSize := -cur

	// Prologue.
	c.b.Func(fn.Name)
	c.curFn = &fnState{
		fn:       fn,
		frag:     c.b.CurrentFragment(),
		frameOff: c.frameOff,
		temps:    temps,
	}
	c.fns = append(c.fns, c.curFn)
	c.b.Op1(vm.PUSH, vm.R(vm.EBP))
	c.b.Op(vm.MOV, vm.R(vm.EBP), vm.R(vm.ESP))
	if frameSize > 0 {
		c.b.Op(vm.SUB, vm.R(vm.ESP), vm.I(frameSize))
	}
	// Save the segment registers this function will use (§3.7).
	for _, r := range c.fa.segRegsUsed {
		c.b.Emit(vm.Instr{Op: vm.MOVRS, Dst: vm.R(vm.EBX), Src: vm.SR(r)})
		c.b.Op1(vm.PUSH, vm.R(vm.EBX))
	}
	// Allocate segments for local arrays (§3.4: one segment per array,
	// set up in the function prologue).
	for _, d := range localArrays {
		c.emitGateAlloc(
			vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.frameOff[d]}),
			int32(d.Type.Size()),
			vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.localInfo[d]}),
		)
		c.stats[StatLocalArrays]++
	}

	c.epilogue = c.lbl("epi")
	if err := c.genStmt(fn.Body); err != nil {
		return err
	}
	// Fall-through return value.
	c.b.Op(vm.MOV, vm.R(vm.EAX), vm.I(0))
	c.b.Label(c.epilogue)

	// Free local-array segments; never enters the kernel (§3.6). The
	// return value (and pointer metadata) must survive the gate calls.
	if len(localArrays) > 0 {
		c.b.Op1(vm.PUSH, vm.R(vm.EAX))
		c.b.Op1(vm.PUSH, vm.R(vm.EDX))
		c.b.Op1(vm.PUSH, vm.R(vm.ECX))
		for i := len(localArrays) - 1; i >= 0; i-- {
			d := localArrays[i]
			c.b.Op(vm.MOV, vm.R(vm.EAX), vm.I(vm.GateFreeSegment))
			c.b.Op(vm.MOV, vm.R(vm.EBX), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.localInfo[d]}))
			c.b.Emit(vm.Instr{Op: vm.LCALL, Src: vm.I(7)})
		}
		c.b.Op1(vm.POP, vm.R(vm.ECX))
		c.b.Op1(vm.POP, vm.R(vm.EDX))
		c.b.Op1(vm.POP, vm.R(vm.EAX))
	}
	for i := len(c.fa.segRegsUsed) - 1; i >= 0; i-- {
		c.b.Op1(vm.POP, vm.R(vm.EBX))
		c.b.Emit(vm.Instr{Op: vm.MOVSR, Dst: vm.SR(c.fa.segRegsUsed[i]), Src: vm.R(vm.EBX), Size: 2})
	}
	c.b.Op(vm.MOV, vm.R(vm.ESP), vm.R(vm.EBP))
	c.b.Op1(vm.POP, vm.R(vm.EBP))
	c.b.Emit(vm.Instr{Op: vm.RET})
	return nil
}

// emitLoopPreamble emits the hoisted per-array segment set-up before an
// outermost loop: load the shadow pointer, load the segment register (4
// cycles), and hoist lower bound / relative base for pointer objects —
// the code marked '#' in the paper's §3.3 example.
func (c *compiler) emitLoopPreamble(lc *loopCtx) {
	for _, d := range lc.info.order {
		seg, ok := lc.info.assigned[d]
		if !ok {
			continue
		}
		first := c.b.Len()
		switch {
		case d.Type.Kind == minic.TypeArray && d.Storage == minic.StorageGlobal:
			c.b.Emit(vm.Instr{Op: vm.MOVSR, Dst: vm.SR(seg),
				Src: vm.M(vm.MemRef{Seg: x86seg.DS, Disp: int32(c.gInfo[d])}), Size: 2})
		case d.Type.Kind == minic.TypeArray:
			c.b.Emit(vm.Instr{Op: vm.MOVSR, Dst: vm.SR(seg),
				Src: vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.localInfo[d]}), Size: 2})
		default: // pointer variable
			c.b.Op(vm.MOV, vm.R(vm.ECX), vm.M(c.slotRef(d, 4))) // shadow
			c.b.Emit(vm.Instr{Op: vm.MOVSR, Dst: vm.SR(seg),
				Src: vm.M(vm.MemRef{Seg: x86seg.DS, Base: vm.ECX, HasBase: true}), Size: 2})
			c.b.Op(vm.MOV, vm.R(vm.EAX), vm.M(vm.MemRef{Seg: x86seg.DS, Base: vm.ECX, HasBase: true, Disp: 4}))
			c.b.Op(vm.MOV, vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: lc.lowSlot[d]}), vm.R(vm.EAX))
			if rel, ok := lc.relSlot[d]; ok {
				c.b.Op(vm.MOV, vm.R(vm.EBX), vm.M(c.slotRef(d, 0)))
				c.b.Op(vm.SUB, vm.R(vm.EBX), vm.R(vm.EAX))
				c.b.Op(vm.MOV, vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: rel}), vm.R(vm.EBX))
			}
		}
		for i := first; i < c.b.Len(); i++ {
			c.b.Instr(i).Note = vm.NoteSegSetup
		}
	}
}

func (c *compiler) genStmt(s minic.Stmt) error {
	switch s := s.(type) {
	case *minic.BlockStmt:
		for _, sub := range s.Stmts {
			if err := c.genStmt(sub); err != nil {
				return err
			}
		}
		return nil

	case *minic.DeclStmt:
		for _, d := range s.Decls {
			if err := c.genLocalDecl(d); err != nil {
				return err
			}
		}
		return nil

	case *minic.ExprStmt:
		return c.genExpr(s.X)

	case *minic.IfStmt:
		elseLbl, endLbl := c.lbl("else"), c.lbl("fi")
		target := endLbl
		if s.Else != nil {
			target = elseLbl
		}
		if err := c.genCondJump(s.Cond, target, false); err != nil {
			return err
		}
		if s.Then != nil {
			c.condEnter()
			err := c.genStmt(s.Then)
			c.condExit()
			if err != nil {
				return err
			}
		}
		if s.Else != nil {
			c.b.Jump(vm.JMP, endLbl)
			c.b.Label(elseLbl)
			c.condEnter()
			err := c.genStmt(s.Else)
			c.condExit()
			if err != nil {
				return err
			}
		}
		c.b.Label(endLbl)
		return nil

	case *minic.WhileStmt:
		condLbl, endLbl := c.lbl("while"), c.lbl("wend")
		lc := c.loopCtxFor[s]
		if lc != nil {
			c.emitLoopPreamble(lc)
			c.loops = append(c.loops, lc)
		}
		c.inLoop++
		c.breakLbl = append(c.breakLbl, endLbl)
		c.contLbl = append(c.contLbl, condLbl)
		c.condEnter() // body of a nested loop is conditional for outer candidates
		lp := c.b.BeginLoop()
		c.b.Label(condLbl)
		c.b.SetLoopHeader(lp)
		if err := c.genCondJump(s.Cond, endLbl, false); err != nil {
			return err
		}
		if s.Body != nil {
			if err := c.genStmt(s.Body); err != nil {
				return err
			}
		}
		c.markBackedge(c.b.Jump(vm.JMP, condLbl), s)
		c.b.EndLoop()
		c.b.Label(endLbl)
		c.condExit()
		c.popLoop(lc)
		return nil

	case *minic.ForStmt:
		condLbl, postLbl, endLbl := c.lbl("for"), c.lbl("fpost"), c.lbl("fend")
		if s.Init != nil {
			if err := c.genStmt(s.Init); err != nil {
				return err
			}
		}
		lc := c.loopCtxFor[s]
		if lc != nil {
			// The preamble runs after the init, so "for (p = a; ...)"
			// hoists the just-assigned pointer.
			c.emitLoopPreamble(lc)
			c.loops = append(c.loops, lc)
		}
		c.inLoop++
		c.breakLbl = append(c.breakLbl, endLbl)
		c.contLbl = append(c.contLbl, postLbl)
		c.condEnter()
		lp := c.b.BeginLoop()
		c.b.Label(condLbl)
		c.b.SetLoopHeader(lp)
		if s.Cond != nil {
			if err := c.genCondJump(s.Cond, endLbl, false); err != nil {
				return err
			}
		}
		// The loop's own hoist candidacy starts here, after its condition:
		// references in the condition belong to enclosing candidates.
		cand := c.enterHoistLoop(s, lp)
		if s.Body != nil {
			if err := c.genStmt(s.Body); err != nil {
				return err
			}
		}
		c.b.Label(postLbl)
		if s.Post != nil {
			if err := c.genExpr(s.Post); err != nil {
				return err
			}
		}
		c.leaveHoistLoop(cand)
		c.markBackedge(c.b.Jump(vm.JMP, condLbl), s)
		c.b.EndLoop()
		c.b.Label(endLbl)
		c.condExit()
		c.popLoop(lc)
		return nil

	case *minic.ReturnStmt:
		if s.X != nil {
			if err := c.genExpr(s.X); err != nil {
				return err
			}
			if c.fn.Ret.Kind == minic.TypePointer && !s.X.Type().IsPointerLike() {
				c.loadUncheckedMeta()
			}
		}
		c.b.Jump(vm.JMP, c.epilogue)
		return nil

	case *minic.BreakStmt:
		c.b.Jump(vm.JMP, c.breakLbl[len(c.breakLbl)-1])
		return nil

	case *minic.ContinueStmt:
		c.b.Jump(vm.JMP, c.contLbl[len(c.contLbl)-1])
		return nil

	default:
		return fmt.Errorf("codegen: unknown statement %T", s)
	}
}

// markBackedge annotates a loop's back-edge jump so the machine can
// count loop iterations — and specifically iterations of "spilled" loops
// (more distinct arrays than segment registers), the dynamic percentage
// the paper's Tables 4 and 7 report.
func (c *compiler) markBackedge(idx int, loop minic.Stmt) {
	note := vm.NoteLoopBackedge
	if analyzeLoop(loop, nil).distinct > len(c.segRegs) {
		note = vm.NoteSpilledBackedge
	}
	c.b.Instr(idx).Note = note
}

func (c *compiler) popLoop(lc *loopCtx) {
	c.inLoop--
	c.breakLbl = c.breakLbl[:len(c.breakLbl)-1]
	c.contLbl = c.contLbl[:len(c.contLbl)-1]
	if lc != nil {
		c.loops = c.loops[:len(c.loops)-1]
	}
}

func (c *compiler) genLocalDecl(d *minic.VarDecl) error {
	switch {
	case d.InitStr != "":
		for i := 0; i <= len(d.InitStr); i++ { // include NUL
			v := int32(0)
			if i < len(d.InitStr) {
				v = int32(d.InitStr[i])
			}
			c.b.Emit(vm.Instr{Op: vm.MOV,
				Dst:  vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.frameOff[d] + int32(i)}),
				Src:  vm.I(v),
				Size: 1,
			})
		}
		return nil

	case d.InitList != nil:
		elem := int32(d.Type.Elem.Size())
		size := accSize(d.Type.Elem)
		for i, e := range d.InitList {
			if err := c.genExpr(e); err != nil {
				return err
			}
			c.b.Emit(vm.Instr{Op: vm.MOV,
				Dst:  vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.frameOff[d] + int32(i)*elem}),
				Src:  vm.R(vm.EAX),
				Size: size,
			})
		}
		return nil

	case d.Init != nil:
		if err := c.genExpr(d.Init); err != nil {
			return err
		}
		if d.Type.Kind == minic.TypePointer && !d.Init.Type().IsPointerLike() {
			c.loadUncheckedMeta()
		}
		c.b.Emit(vm.Instr{Op: vm.MOV, Dst: vm.M(c.slotRef(d, 0)), Src: vm.R(vm.EAX), Size: accSize(d.Type)})
		if d.Type.Kind == minic.TypePointer {
			c.strat.storePointerMeta(c, d)
		}
		return nil

	default:
		// Uninitialised pointer variables get "unchecked" metadata so a
		// stray use cannot confuse the segment machinery.
		if d.Type.Kind == minic.TypePointer {
			c.strat.storeUncheckedPointerMeta(c, d)
		}
		return nil
	}
}
