package codegen

import (
	"fmt"

	"cash/internal/minic"
	"cash/internal/vm"
	"cash/internal/x86seg"
)

// This file implements the checked-memory-access paths. Every array or
// pointer reference compiles through genRef, which decides between:
//
//   - the segment path (Cash, array assigned a segment register in the
//     enclosing loop): the reference is emitted with a segment-override
//     operand, so the segment-limit hardware performs the bound check for
//     free (§3.3);
//   - the software path (BCC always; Cash for spilled arrays inside
//     loops): the classic 6-instruction check — two bound loads, two
//     compares, two conditional branches (§2) — against the object's
//     bounds, then a flat access;
//   - the unchecked path (GCC always; Cash outside loops, §3.8).
//
// Which path applies, and how the check obtains its bounds, is the
// strategy's decision (strategy.go); this file holds the shared
// machinery.

// accessPath selects the checking strategy for one reference.
type accessPath int

const (
	pathNone accessPath = iota + 1
	pathSeg
	pathSoft
)

// topLoop returns the active outermost-loop context, or nil.
func (c *compiler) topLoop() *loopCtx {
	if len(c.loops) == 0 {
		return nil
	}
	return c.loops[len(c.loops)-1]
}

// pathFor picks the access path for a reference through object decl (nil
// for computed bases).
func (c *compiler) pathFor(decl *minic.VarDecl, write bool) accessPath {
	if !write && c.cfg.SkipReadChecks {
		return pathNone
	}
	return c.strat.pathFor(c, decl)
}

// slotRef returns the memory operand of a variable's stack or data slot,
// displaced by extra bytes (for metadata words).
func (c *compiler) slotRef(d *minic.VarDecl, extra int32) vm.MemRef {
	if d.Storage == minic.StorageGlobal {
		return vm.MemRef{Seg: x86seg.DS, Disp: int32(d.Addr) + extra}
	}
	return vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.frameOff[d] + extra}
}

// globalSegLower returns the segment base Cash gives a global array: the
// array address for byte-granular segments, or the end-aligned page-
// granular base for arrays over 1 MiB (§3.5).
func globalSegLower(d *minic.VarDecl) uint32 {
	size := uint32(d.Type.Size())
	if size-1 <= x86seg.MaxByteLimit {
		return d.Addr
	}
	pages := (uint64(size) + x86seg.PageGranule - 1) / x86seg.PageGranule
	return d.Addr + size - uint32(pages)*x86seg.PageGranule
}

// scaleReg multiplies reg by an element size, preferring a shift.
func (c *compiler) scaleReg(r vm.Reg, elem int32) {
	switch elem {
	case 1:
	case 2:
		c.b.Op(vm.SHL, vm.R(r), vm.I(1))
	case 4:
		c.b.Op(vm.SHL, vm.R(r), vm.I(2))
	case 8:
		c.b.Op(vm.SHL, vm.R(r), vm.I(3))
	default:
		c.b.Op(vm.IMUL, vm.R(r), vm.I(elem))
	}
}

// checkMeta names where an object's bounds come from for a software
// check.
type checkMeta struct {
	kind     int // 1 const bounds, 2 BCC slot, 3 BCC regs, 4 Cash shadow operand
	lo, hi   uint32
	decl     *minic.VarDecl
	shadowOp vm.Operand // Cash: operand whose value is the info address
}

const (
	metaConst = 1
	metaSlot  = 2
	metaRegs  = 3 // BCC: base in ESI, limit in EDI (already loaded)
	metaShad  = 4
	metaFrame = 5 // BCC local array: bounds are EBP-relative
)

// emitSoftCheck emits the software bound-check sequence for the address
// held in addr. Failure branches to the shared trap. The first emitted
// instruction carries NoteSWCheck so the machine counts executions.
//
// Every check's instructions carry a check id, so a pass can remove the
// whole sequence; when the caller hasn't opened a check scope (the
// register-metadata checks of computed references), an anonymous,
// pass-ineligible id is opened here.
//
// With Config.UseBoundInstr the IA-32 `bound` instruction replaces the
// compare sequence wherever the two bounds sit adjacent in memory (fat
// pointer slots, info structures, static array bounds); the remaining
// shapes keep the explicit sequence, as a real compiler would.
func (c *compiler) emitSoftCheck(addr vm.Reg, meta checkMeta) {
	if c.b.CurCheck() == 0 {
		id := c.newCheck()
		c.checks[id] = &checkRec{id: id}
		prev := c.b.SetCheck(id)
		defer c.b.SetCheck(prev)
	}
	if c.cfg.UseBoundInstr && c.emitBoundInstr(addr, meta) {
		c.stats[StatSWChecks]++
		return
	}
	first := c.b.Len()
	switch meta.kind {
	case metaConst:
		c.b.Op(vm.MOV, vm.R(vm.ESI), vm.I(int32(meta.lo)))
		c.b.Op(vm.CMP, vm.R(addr), vm.R(vm.ESI))
		c.b.Jump(vm.JB, "__bounds_trap")
		c.b.Op(vm.MOV, vm.R(vm.ESI), vm.I(int32(meta.hi)))
		c.b.Op(vm.CMP, vm.R(addr), vm.R(vm.ESI))
		c.b.Jump(vm.JAE, "__bounds_trap")
	case metaSlot:
		c.b.Op(vm.MOV, vm.R(vm.ESI), vm.M(c.slotRef(meta.decl, 4)))
		c.b.Op(vm.CMP, vm.R(addr), vm.R(vm.ESI))
		c.b.Jump(vm.JB, "__bounds_trap")
		c.b.Op(vm.MOV, vm.R(vm.ESI), vm.M(c.slotRef(meta.decl, 8)))
		c.b.Op(vm.CMP, vm.R(addr), vm.R(vm.ESI))
		c.b.Jump(vm.JAE, "__bounds_trap")
	case metaRegs:
		c.b.Op(vm.CMP, vm.R(addr), vm.R(vm.ESI))
		c.b.Jump(vm.JB, "__bounds_trap")
		c.b.Op(vm.CMP, vm.R(addr), vm.R(vm.EDI))
		c.b.Jump(vm.JAE, "__bounds_trap")
	case metaFrame:
		d := meta.decl
		size := int32(d.Type.Size())
		c.b.Op(vm.LEA, vm.R(vm.ESI), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.frameOff[d]}))
		c.b.Op(vm.CMP, vm.R(addr), vm.R(vm.ESI))
		c.b.Jump(vm.JB, "__bounds_trap")
		c.b.Op(vm.LEA, vm.R(vm.ESI), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.frameOff[d] + size}))
		c.b.Op(vm.CMP, vm.R(addr), vm.R(vm.ESI))
		c.b.Jump(vm.JAE, "__bounds_trap")
	case metaShad:
		// Load the shadow info pointer, then bounds from info[4], info[8].
		if meta.shadowOp.Kind != vm.KindReg || meta.shadowOp.Reg != vm.ESI {
			c.b.Op(vm.MOV, vm.R(vm.ESI), meta.shadowOp)
		}
		c.b.Op(vm.MOV, vm.R(vm.EDI), vm.M(vm.MemRef{Seg: x86seg.DS, Base: vm.ESI, HasBase: true, Disp: 4}))
		c.b.Op(vm.CMP, vm.R(addr), vm.R(vm.EDI))
		c.b.Jump(vm.JB, "__bounds_trap")
		c.b.Op(vm.MOV, vm.R(vm.EDI), vm.M(vm.MemRef{Seg: x86seg.DS, Base: vm.ESI, HasBase: true, Disp: 8}))
		c.b.Op(vm.CMP, vm.R(addr), vm.R(vm.EDI))
		c.b.Jump(vm.JAE, "__bounds_trap")
	}
	c.b.Instr(first).Note = vm.NoteSWCheck
	c.stats[StatSWChecks]++
}

// emitBoundInstr emits an IA-32 bound instruction when the bounds pair
// is (or can be made) adjacent in memory, and reports whether it did.
func (c *compiler) emitBoundInstr(addr vm.Reg, meta checkMeta) bool {
	switch meta.kind {
	case metaConst:
		// Static bounds live in a pooled 2-word descriptor in the data
		// image, exactly how compilers used bound in practice.
		pair := [2]uint32{meta.lo, meta.hi}
		at, ok := c.boundsPool[pair]
		if !ok {
			at = c.allocData(8, 4)
			c.writeWord(at, meta.lo)
			c.writeWord(at+4, meta.hi)
			c.boundsPool[pair] = at
		}
		c.b.Emit(vm.Instr{Op: vm.BOUND, Dst: vm.R(addr),
			Src: vm.M(vm.MemRef{Seg: x86seg.DS, Disp: int32(at)})})
		return true
	case metaSlot:
		// Fat-pointer base and limit are adjacent at slot+4, slot+8.
		c.b.Emit(vm.Instr{Op: vm.BOUND, Dst: vm.R(addr),
			Src: vm.M(c.slotRef(meta.decl, 4))})
		return true
	case metaShad:
		// Cash info structure: lower and upper at info+4, info+8.
		if meta.shadowOp.Kind != vm.KindReg || meta.shadowOp.Reg != vm.ESI {
			c.b.Op(vm.MOV, vm.R(vm.ESI), meta.shadowOp)
		}
		c.b.Emit(vm.Instr{Op: vm.BOUND, Dst: vm.R(addr),
			Src: vm.M(vm.MemRef{Seg: x86seg.DS, Base: vm.ESI, HasBase: true, Disp: 4})})
		return true
	default:
		// Register/frame-relative bounds are not adjacent in memory;
		// materialising them would cost more than the compare sequence.
		return false
	}
}

// bccConstMeta builds constant bounds for a direct array reference.
func bccConstMeta(d *minic.VarDecl) checkMeta {
	return checkMeta{kind: metaConst, lo: d.Addr, hi: d.Addr + uint32(d.Type.Size())}
}

// loadShadowInto emits code placing the info address in ESI.
func (c *compiler) loadShadowInto(d *minic.VarDecl) {
	switch {
	case d.Type.Kind == minic.TypePointer:
		c.b.Op(vm.MOV, vm.R(vm.ESI), vm.M(c.slotRef(d, 4)))
	case d.Storage == minic.StorageGlobal:
		c.b.Op(vm.MOV, vm.R(vm.ESI), vm.I(int32(c.gInfo[d])))
	default:
		c.b.Op(vm.LEA, vm.R(vm.ESI), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.localInfo[d]}))
	}
}

// accSize returns the memory access width for an element type.
func accSize(t *minic.Type) uint8 {
	if t.Kind == minic.TypeChar {
		return 1
	}
	return 4
}

// genRef compiles the address computation and bound check for a reference
// `*(base + idx)` and returns the memory operand to access. The operand
// may use EAX and EBX; the caller must use it in the immediately following
// instruction(s) and may clobber ESI/EDI freely.
//
// idx may be nil (plain dereference). elem is the element size in bytes.
func (c *compiler) genRef(base minic.Expr, idx minic.Expr, elem int32, write bool) (vm.Operand, error) {
	decl := refObject(base)
	path := c.pathFor(decl, write)

	// Fold constant indices into displacements.
	idxConst := int32(0)
	haveIdxReg := false
	evalIdx := func() error {
		if idx == nil {
			return nil
		}
		if v, ok := constEval(idx); ok {
			idxConst = v * elem
			return nil
		}
		if err := c.genExpr(idx); err != nil {
			return err
		}
		c.scaleReg(vm.EAX, elem)
		haveIdxReg = true
		return nil
	}

	switch {
	case decl != nil && decl.Type.Kind == minic.TypeArray:
		if err := evalIdx(); err != nil {
			return vm.Operand{}, err
		}
		return c.refDirectArray(decl, path, idx, idxConst, haveIdxReg)

	case decl != nil: // pointer variable
		if err := evalIdx(); err != nil {
			return vm.Operand{}, err
		}
		return c.refPointerVar(decl, path, idx, idxConst, haveIdxReg)

	default:
		return c.refComputed(base, idx, elem, path)
	}
}

// refDirectArray handles a[i] where a is an array variable.
func (c *compiler) refDirectArray(d *minic.VarDecl, path accessPath, idx minic.Expr, idxConst int32, idxReg bool) (vm.Operand, error) {
	global := d.Storage == minic.StorageGlobal
	switch path {
	case pathSeg:
		seg := c.topLoop().info.assigned[d]
		rel := idxConst
		if global {
			rel += int32(d.Addr - globalSegLower(d))
		}
		c.stats[StatHWChecks]++
		ref := vm.MemRef{Seg: seg, Disp: rel}
		if idxReg {
			ref.Base, ref.HasBase = vm.EAX, true
		}
		return c.tagRef(refTag{decl: d, exact: true}, ref), nil

	case pathSoft:
		// Materialise the address in EBX, check, access flat.
		if global {
			if idxReg {
				c.b.Op(vm.LEA, vm.R(vm.EBX), vm.M(vm.MemRef{Seg: x86seg.DS, Base: vm.EAX, HasBase: true, Disp: int32(d.Addr) + idxConst}))
			} else {
				c.b.Op(vm.MOV, vm.R(vm.EBX), vm.I(int32(d.Addr)+idxConst))
			}
		} else {
			ref := vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.frameOff[d] + idxConst}
			if idxReg {
				ref.Index = vm.EAX
				ref.HasIndex = true
				ref.Scale = 1
			}
			c.b.Op(vm.LEA, vm.R(vm.EBX), vm.M(ref))
		}
		c.checkedDeclRef(vm.EBX, d, idx, idxConst, idxReg)
		ref := vm.MemRef{Seg: x86seg.DS, Base: vm.EBX, HasBase: true}
		return c.tagRef(refTag{decl: d, exact: true}, ref), nil

	default: // pathNone
		var ref vm.MemRef
		if global {
			ref = vm.MemRef{Seg: x86seg.DS, Disp: int32(d.Addr) + idxConst}
			if idxReg {
				ref.Base = vm.EAX
				ref.HasBase = true
			}
		} else {
			ref = vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.frameOff[d] + idxConst}
			if idxReg {
				ref.Index = vm.EAX
				ref.HasIndex = true
				ref.Scale = 1
			}
		}
		return c.tagRef(refTag{decl: d}, ref), nil
	}
}

// refPointerVar handles p[i] / *p where p is a named pointer variable.
// Pointer-mediated references are never tagged exact: the pointee's
// bounds may be the universal "unchecked" info, so a checked store can
// still land anywhere.
func (c *compiler) refPointerVar(d *minic.VarDecl, path accessPath, idx minic.Expr, idxConst int32, idxReg bool) (vm.Operand, error) {
	switch path {
	case pathSeg:
		lc := c.topLoop()
		seg := lc.info.assigned[d]
		if lc.info.modified[d] {
			// The pointer moves inside the loop (p++ style): recompute
			// the segment offset from its live value and the hoisted
			// lower bound — one SUB more than GCC's plain load.
			low, ok := lc.lowSlot[d]
			if !ok {
				return vm.Operand{}, fmt.Errorf("codegen: missing lower slot for %s", d.Name)
			}
			c.b.Op(vm.MOV, vm.R(vm.EBX), vm.M(c.slotRef(d, 0)))
			c.b.Op(vm.SUB, vm.R(vm.EBX), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: low}))
		} else {
			// Hoisted (p - lower) replaces GCC's load of p: same
			// per-reference instruction count (§3.3).
			rel, ok := lc.relSlot[d]
			if !ok {
				return vm.Operand{}, fmt.Errorf("codegen: missing relbase slot for %s", d.Name)
			}
			c.b.Op(vm.MOV, vm.R(vm.EBX), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: rel}))
		}
		c.stats[StatHWChecks]++
		ref := vm.MemRef{Seg: seg, Base: vm.EBX, HasBase: true, Disp: idxConst}
		if idxReg {
			ref.Index = vm.EAX
			ref.HasIndex = true
			ref.Scale = 1
		}
		return c.tagRef(refTag{decl: d}, ref), nil

	case pathSoft:
		c.b.Op(vm.MOV, vm.R(vm.EBX), vm.M(c.slotRef(d, 0)))
		if idxReg {
			c.b.Op(vm.ADD, vm.R(vm.EBX), vm.R(vm.EAX))
		}
		if idxConst != 0 {
			c.b.Op(vm.ADD, vm.R(vm.EBX), vm.I(idxConst))
		}
		c.checkedDeclRef(vm.EBX, d, idx, idxConst, idxReg)
		ref := vm.MemRef{Seg: x86seg.DS, Base: vm.EBX, HasBase: true}
		return c.tagRef(refTag{decl: d}, ref), nil

	default:
		c.b.Op(vm.MOV, vm.R(vm.EBX), vm.M(c.slotRef(d, 0)))
		ref := vm.MemRef{Seg: x86seg.DS, Base: vm.EBX, HasBase: true, Disp: idxConst}
		if idxReg {
			ref.Index = vm.EAX
			ref.HasIndex = true
			ref.Scale = 1
		}
		return c.tagRef(refTag{decl: d}, ref), nil
	}
}

// refComputed handles references whose base is a computed pointer
// expression (call result, pointer arithmetic result, cast chain). The
// base's metadata travels in registers, so software checks use it
// directly; such references can never hold a segment register.
func (c *compiler) refComputed(base minic.Expr, idx minic.Expr, elem int32, path accessPath) (vm.Operand, error) {
	if err := c.genExpr(base); err != nil {
		return vm.Operand{}, err
	}
	needMeta := path == pathSoft
	// Save base value (and metadata when a software check needs it).
	if needMeta {
		c.strat.computedMetaPush(c)
	}
	c.b.Op1(vm.PUSH, vm.R(vm.EAX))
	idxReg := false
	if idx != nil {
		if v, ok := constEval(idx); ok {
			if v != 0 {
				// Fold into displacement below via register add.
				c.b.Op(vm.MOV, vm.R(vm.EAX), vm.I(v*elem))
				idxReg = true
			}
		} else {
			if err := c.genExpr(idx); err != nil {
				return vm.Operand{}, err
			}
			c.scaleReg(vm.EAX, elem)
			idxReg = true
		}
	}
	c.b.Op1(vm.POP, vm.R(vm.EBX))
	if idxReg {
		c.b.Op(vm.ADD, vm.R(vm.EBX), vm.R(vm.EAX))
	}
	if needMeta {
		c.strat.computedMetaCheck(c, vm.EBX)
	}
	ref := vm.MemRef{Seg: x86seg.DS, Base: vm.EBX, HasBase: true}
	// The base pointer is EBX minus the scaled index still in EAX.
	site := vm.Site{Kind: vm.SiteReg, Reg: vm.EBX, Sub: vm.NumRegs}
	if idxReg {
		site.Sub = vm.EAX
	}
	c.b.TagMem(&refTag{ref: ref, site: site})
	return vm.M(ref), nil
}
