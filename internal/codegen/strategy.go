package codegen

import (
	"cash/internal/minic"
	"cash/internal/vm"
)

// strategy is the checking-strategy lowering interface. Each compiler
// mode (GCC none / BCC software / Cash segment-override) implements the
// mode-specific parts of lowering — pointer representation, metadata
// flow, check insertion, segment lifecycle — behind this interface, so
// the shared lowering in codegen.go/stmt.go/expr.go/access.go contains
// no mode switches. The strategy is the first stage of the pass
// pipeline; the optimization passes (rce, hoist) run on its output.
type strategy interface {
	// ptrWords is the pointer-variable width in words: GCC 1 (value),
	// Cash 2 (value + shadow info pointer), BCC 3 (value, base, limit).
	ptrWords() int32
	// analyzeFunc runs the per-function loop/FCFS/spill analysis over
	// the loop tree (§3.4, §3.7); modes without segment registers
	// return an empty analysis.
	analyzeFunc(c *compiler, fn *minic.FuncDecl) *funcAnalysis

	// Static layout hooks.
	layoutUniverse(c *compiler)
	globalArrayInfo(c *compiler, g *minic.VarDecl)
	staticPointerMeta(c *compiler, addr uint32)
	stringInfo(c *compiler, lit *strLit)
	// localArrayFrame reserves mode-specific frame space below a local
	// array's storage and reports whether the array needs a per-call
	// segment (Cash §3.2/§3.4).
	localArrayFrame(c *compiler, d *minic.VarDecl, cur int32) (int32, bool)
	// emitStartupAllocs emits process set-up before the call to main
	// (Cash: call gate + segments for global arrays and string
	// literals, §3.4).
	emitStartupAllocs(c *compiler)

	// Pointer-metadata emission. pushPtr/popPtr spill and reload a whole
	// pointer (value plus metadata) around a sub-evaluation: the fat-
	// pointer strategies stack the metadata words above the value; MPX
	// instead keys its bounds table by the spill slot's address, exactly
	// like bndstx-on-stack in real MPX code.
	loadUncheckedMeta(c *compiler)
	pushPtr(c *compiler)
	popPtr(c *compiler)
	stringLitMeta(c *compiler, lit strLit)
	arrayDecayMeta(c *compiler, d *minic.VarDecl)
	pointerLoadMeta(c *compiler, d *minic.VarDecl)
	scalarAddrMeta(c *compiler, d *minic.VarDecl)
	storePointerMeta(c *compiler, d *minic.VarDecl)
	storeUncheckedPointerMeta(c *compiler, d *minic.VarDecl)
	mallocCall(c *compiler)

	// Check insertion.
	pathFor(c *compiler, decl *minic.VarDecl) accessPath
	emitCheckForDecl(c *compiler, addr vm.Reg, d *minic.VarDecl)
	computedMetaPush(c *compiler)
	computedMetaCheck(c *compiler, addr vm.Reg)
	// chopDirectArray reports whether the strategy's direct-array check
	// sequences have the constant- or frame-relative-bounds shapes the
	// chop pass knows how to consolidate and patch (chop.go).
	chopDirectArray() bool
}

// emptyAnalysis is the no-segment-register analysis result.
func emptyAnalysis() *funcAnalysis {
	return &funcAnalysis{}
}

// ---------------------------------------------------------------------
// GCC: the unchecked baseline. Thin pointers, no metadata, no checks.

type gccStrategy struct{}

func (gccStrategy) ptrWords() int32                                             { return 1 }
func (gccStrategy) analyzeFunc(c *compiler, fn *minic.FuncDecl) *funcAnalysis   { return emptyAnalysis() }
func (gccStrategy) layoutUniverse(c *compiler)                                  {}
func (gccStrategy) globalArrayInfo(c *compiler, g *minic.VarDecl)               {}
func (gccStrategy) staticPointerMeta(c *compiler, addr uint32)                  {}
func (gccStrategy) stringInfo(c *compiler, lit *strLit)                         {}
func (gccStrategy) emitStartupAllocs(c *compiler)                               {}
func (gccStrategy) loadUncheckedMeta(c *compiler)                               {}
func (gccStrategy) pushPtr(c *compiler)                                         { c.b.Op1(vm.PUSH, vm.R(vm.EAX)) }
func (gccStrategy) popPtr(c *compiler)                                          { c.b.Op1(vm.POP, vm.R(vm.EAX)) }
func (gccStrategy) stringLitMeta(c *compiler, lit strLit)                       {}
func (gccStrategy) arrayDecayMeta(c *compiler, d *minic.VarDecl)                {}
func (gccStrategy) pointerLoadMeta(c *compiler, d *minic.VarDecl)               {}
func (gccStrategy) scalarAddrMeta(c *compiler, d *minic.VarDecl)                {}
func (gccStrategy) storePointerMeta(c *compiler, d *minic.VarDecl)              {}
func (gccStrategy) storeUncheckedPointerMeta(c *compiler, d *minic.VarDecl)     {}
func (gccStrategy) pathFor(c *compiler, decl *minic.VarDecl) accessPath         { return pathNone }
func (gccStrategy) emitCheckForDecl(c *compiler, addr vm.Reg, d *minic.VarDecl) {}
func (gccStrategy) computedMetaPush(c *compiler)                                {}
func (gccStrategy) computedMetaCheck(c *compiler, addr vm.Reg)                  {}
func (gccStrategy) chopDirectArray() bool                                       { return false }

func (gccStrategy) localArrayFrame(c *compiler, d *minic.VarDecl, cur int32) (int32, bool) {
	return cur, false
}

func (gccStrategy) mallocCall(c *compiler) {
	c.b.Emit(vm.Instr{Op: vm.HCALL, Src: vm.I(vm.HostMalloc)})
}

// ---------------------------------------------------------------------
// BCC: software bound checking with 3-word fat pointers (value, base,
// limit) and the 6-instruction check on every reference.

type bccStrategy struct{}

func (bccStrategy) ptrWords() int32                                           { return 3 }
func (bccStrategy) analyzeFunc(c *compiler, fn *minic.FuncDecl) *funcAnalysis { return emptyAnalysis() }
func (bccStrategy) layoutUniverse(c *compiler)                                {}
func (bccStrategy) globalArrayInfo(c *compiler, g *minic.VarDecl)             {}
func (bccStrategy) stringInfo(c *compiler, lit *strLit)                       {}
func (bccStrategy) emitStartupAllocs(c *compiler)                             {}

func (bccStrategy) localArrayFrame(c *compiler, d *minic.VarDecl, cur int32) (int32, bool) {
	return cur, false
}

func (bccStrategy) staticPointerMeta(c *compiler, addr uint32) {
	c.writeWord(addr+4, 0)
	c.writeWord(addr+8, 0xffffffff)
}

func (bccStrategy) loadUncheckedMeta(c *compiler) {
	c.b.Op(vm.MOV, vm.R(vm.EDX), vm.I(0))
	c.b.Op(vm.MOV, vm.R(vm.ECX), vm.I(-1))
}

func (bccStrategy) pushPtr(c *compiler) {
	c.b.Op1(vm.PUSH, vm.R(vm.ECX))
	c.b.Op1(vm.PUSH, vm.R(vm.EDX))
	c.b.Op1(vm.PUSH, vm.R(vm.EAX))
}

func (bccStrategy) popPtr(c *compiler) {
	c.b.Op1(vm.POP, vm.R(vm.EAX))
	c.b.Op1(vm.POP, vm.R(vm.EDX))
	c.b.Op1(vm.POP, vm.R(vm.ECX))
}

func (bccStrategy) stringLitMeta(c *compiler, lit strLit) {
	c.b.Op(vm.MOV, vm.R(vm.EDX), vm.I(int32(lit.addr)))
	c.b.Op(vm.MOV, vm.R(vm.ECX), vm.I(int32(lit.addr+lit.len)))
}

func (bccStrategy) arrayDecayMeta(c *compiler, d *minic.VarDecl) {
	size := int32(d.Type.Size())
	c.b.Op(vm.MOV, vm.R(vm.EDX), vm.R(vm.EAX))
	c.b.Op(vm.MOV, vm.R(vm.ECX), vm.R(vm.EAX))
	c.b.Op(vm.ADD, vm.R(vm.ECX), vm.I(size))
}

func (bccStrategy) pointerLoadMeta(c *compiler, d *minic.VarDecl) {
	c.b.Op(vm.MOV, vm.R(vm.EDX), vm.M(c.slotRef(d, 4)))
	c.b.Op(vm.MOV, vm.R(vm.ECX), vm.M(c.slotRef(d, 8)))
}

func (bccStrategy) scalarAddrMeta(c *compiler, d *minic.VarDecl) {
	c.b.Op(vm.MOV, vm.R(vm.EDX), vm.R(vm.EAX))
	c.b.Op(vm.MOV, vm.R(vm.ECX), vm.R(vm.EAX))
	c.b.Op(vm.ADD, vm.R(vm.ECX), vm.I(int32(d.Type.Size())))
}

func (bccStrategy) storePointerMeta(c *compiler, d *minic.VarDecl) {
	c.b.Op(vm.MOV, vm.M(c.slotRef(d, 4)), vm.R(vm.EDX))
	c.b.Op(vm.MOV, vm.M(c.slotRef(d, 8)), vm.R(vm.ECX))
}

func (bccStrategy) storeUncheckedPointerMeta(c *compiler, d *minic.VarDecl) {
	c.b.Op(vm.MOV, vm.M(c.slotRef(d, 4)), vm.I(0))
	c.b.Op(vm.MOV, vm.M(c.slotRef(d, 8)), vm.I(-1))
}

func (bccStrategy) mallocCall(c *compiler) {
	// Capture the size so the fat pointer gets exact bounds.
	c.b.Op(vm.MOV, vm.R(vm.ESI), vm.R(vm.EAX))
	c.b.Emit(vm.Instr{Op: vm.HCALL, Src: vm.I(vm.HostMalloc)})
	c.b.Op(vm.MOV, vm.R(vm.EDX), vm.R(vm.EAX))
	c.b.Op(vm.MOV, vm.R(vm.ECX), vm.R(vm.EAX))
	c.b.Op(vm.ADD, vm.R(vm.ECX), vm.R(vm.ESI))
}

func (bccStrategy) pathFor(c *compiler, decl *minic.VarDecl) accessPath {
	return pathSoft
}

func (bccStrategy) emitCheckForDecl(c *compiler, addr vm.Reg, d *minic.VarDecl) {
	switch {
	case d.Type.Kind == minic.TypeArray && d.Storage == minic.StorageGlobal:
		c.emitSoftCheck(addr, bccConstMeta(d))
	case d.Type.Kind == minic.TypeArray:
		c.emitSoftCheck(addr, checkMeta{kind: metaFrame, decl: d})
	default:
		c.emitSoftCheck(addr, checkMeta{kind: metaSlot, decl: d})
	}
}

func (bccStrategy) computedMetaPush(c *compiler) {
	c.b.Op1(vm.PUSH, vm.R(vm.ECX))
	c.b.Op1(vm.PUSH, vm.R(vm.EDX))
}

func (bccStrategy) computedMetaCheck(c *compiler, addr vm.Reg) {
	c.b.Op1(vm.POP, vm.R(vm.ESI)) // base
	c.b.Op1(vm.POP, vm.R(vm.EDI)) // limit
	c.emitSoftCheck(addr, checkMeta{kind: metaRegs})
}

func (bccStrategy) chopDirectArray() bool { return true }

// ---------------------------------------------------------------------
// Cash: segmentation-hardware checking. 2-word pointers (value + shadow
// info pointer), one segment per array, segment registers assigned FCFS
// per outermost loop, software fall-back for spilled objects, and no
// checks outside loops (§3.2–§3.8).

type cashStrategy struct{}

func (cashStrategy) ptrWords() int32 { return 2 }

func (cashStrategy) analyzeFunc(c *compiler, fn *minic.FuncDecl) *funcAnalysis {
	return analyzeFunc(fn, c.segRegs)
}

func (cashStrategy) layoutUniverse(c *compiler) {
	c.univInfo = c.allocData(vm.InfoStructSize, 4)
	c.writeWord(c.univInfo, uint32(vm.FlatDataSelector))
	c.writeWord(c.univInfo+4, 0)
	c.writeWord(c.univInfo+8, 0xffffffff)
}

func (cashStrategy) globalArrayInfo(c *compiler, g *minic.VarDecl) {
	// "When a 100-byte array is statically allocated, Cash allocates
	// 112 bytes, with the first three words dedicated to this array's
	// information structure." (§3.2)
	c.gInfo[g] = c.allocData(vm.InfoStructSize, 4)
}

func (cashStrategy) staticPointerMeta(c *compiler, addr uint32) {
	c.writeWord(addr+4, c.univInfo)
}

func (cashStrategy) stringInfo(c *compiler, lit *strLit) {
	lit.info = c.allocData(vm.InfoStructSize, 4)
}

func (cashStrategy) localArrayFrame(c *compiler, d *minic.VarDecl, cur int32) (int32, bool) {
	cur -= vm.InfoStructSize
	c.localInfo[d] = cur
	return cur, true
}

func (cashStrategy) emitStartupAllocs(c *compiler) {
	c.b.Op(vm.MOV, vm.R(vm.EAX), vm.I(vm.SysSetLDTCallGate))
	c.b.Emit(vm.Instr{Op: vm.INT, Src: vm.I(0x80)})
	for _, g := range c.src.Globals {
		if g.Type.Kind != minic.TypeArray {
			continue
		}
		c.emitGateAlloc(vm.I(int32(g.Addr)), int32(g.Type.Size()), vm.I(int32(c.gInfo[g])))
		c.stats[StatSegments]++
	}
	for _, lit := range c.strLits {
		c.emitGateAlloc(vm.I(int32(lit.addr)), int32(lit.len), vm.I(int32(lit.info)))
		c.stats[StatSegments]++
	}
}

func (cashStrategy) loadUncheckedMeta(c *compiler) {
	c.b.Op(vm.MOV, vm.R(vm.EDX), vm.I(int32(c.univInfo)))
}

func (cashStrategy) pushPtr(c *compiler) {
	c.b.Op1(vm.PUSH, vm.R(vm.EDX))
	c.b.Op1(vm.PUSH, vm.R(vm.EAX))
}

func (cashStrategy) popPtr(c *compiler) {
	c.b.Op1(vm.POP, vm.R(vm.EAX))
	c.b.Op1(vm.POP, vm.R(vm.EDX))
}

func (cashStrategy) stringLitMeta(c *compiler, lit strLit) {
	c.b.Op(vm.MOV, vm.R(vm.EDX), vm.I(int32(lit.info)))
}

func (cashStrategy) arrayDecayMeta(c *compiler, d *minic.VarDecl) {
	if d.Storage == minic.StorageGlobal {
		c.b.Op(vm.MOV, vm.R(vm.EDX), vm.I(int32(c.gInfo[d])))
	} else {
		c.b.Op(vm.LEA, vm.R(vm.EDX), vm.M(vm.MemRef{Seg: c.stackSeg, Base: vm.EBP, HasBase: true, Disp: c.localInfo[d]}))
	}
}

func (cashStrategy) pointerLoadMeta(c *compiler, d *minic.VarDecl) {
	c.b.Op(vm.MOV, vm.R(vm.EDX), vm.M(c.slotRef(d, 4)))
}

func (cashStrategy) scalarAddrMeta(c *compiler, d *minic.VarDecl) {
	// Cash associates scalars with the global segment, disabling
	// checks (§3.9).
	c.b.Op(vm.MOV, vm.R(vm.EDX), vm.I(int32(c.univInfo)))
}

func (cashStrategy) storePointerMeta(c *compiler, d *minic.VarDecl) {
	c.b.Op(vm.MOV, vm.M(c.slotRef(d, 4)), vm.R(vm.EDX))
}

func (cashStrategy) storeUncheckedPointerMeta(c *compiler, d *minic.VarDecl) {
	c.b.Op(vm.MOV, vm.M(c.slotRef(d, 4)), vm.I(int32(c.univInfo)))
}

func (cashStrategy) mallocCall(c *compiler) {
	// The info structure sits just below the returned array (§3.2):
	// shadow = ptr - 12.
	c.b.Emit(vm.Instr{Op: vm.HCALL, Src: vm.I(vm.HostMalloc)})
	c.b.Op(vm.MOV, vm.R(vm.EDX), vm.R(vm.EAX))
	c.b.Op(vm.SUB, vm.R(vm.EDX), vm.I(vm.InfoStructSize))
}

func (cashStrategy) pathFor(c *compiler, decl *minic.VarDecl) accessPath {
	if c.inLoop == 0 {
		// Cash checks array-like references inside loops only (§1).
		return pathNone
	}
	if lc := c.topLoop(); lc != nil && decl != nil {
		if _, ok := lc.info.assigned[decl]; ok {
			return pathSeg
		}
	}
	return pathSoft
}

func (cashStrategy) emitCheckForDecl(c *compiler, addr vm.Reg, d *minic.VarDecl) {
	// Spilled reference: bounds live in the info structure.
	c.loadShadowInto(d)
	c.emitSoftCheck(addr, checkMeta{kind: metaShad, shadowOp: vm.R(vm.ESI)})
}

func (cashStrategy) computedMetaPush(c *compiler) {
	c.b.Op1(vm.PUSH, vm.R(vm.EDX))
}

func (cashStrategy) computedMetaCheck(c *compiler, addr vm.Reg) {
	c.b.Op1(vm.POP, vm.R(vm.ESI)) // shadow
	c.emitSoftCheck(addr, checkMeta{kind: metaShad, shadowOp: vm.R(vm.ESI)})
}

func (cashStrategy) chopDirectArray() bool { return false }
