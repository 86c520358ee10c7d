package codegen

import (
	"fmt"
	"strings"

	"cash/internal/ir"
	"cash/internal/minic"
	"cash/internal/vm"
)

// Check consolidation ("chop"). Several checked references to the same
// direct array in one straight-line region often share an index core
// and differ only by a constant byte offset — a stencil a[i-1], a[i],
// a[i+1], or repeated constant subscripts. One convex-hull range check
// at the first reference covers them all: widen the first check's
// window so it traps exactly when some member of the group would have,
// then delete the other members. The transform moves the trap to the
// region head, which is observable only in *when* the program dies, not
// in whether it dies or in anything it prints — the same verdict
// contract the hoist and affine passes already rely on — so the region
// rules below forbid everything that could produce output or a
// different fault between the head and the last member.
//
// Soundness of the widened window. Let the members' addresses be
// core+δ_i, the head's be core+δ_h, and the original bounds [lo, hi).
// Some member violates iff core+δ_min < lo or core+δ_max >= hi, and the
// patched head check
//
//	[lo + (δ_h-δ_min), hi + (δ_h-δ_max))
//
// applied to core+δ_h tests exactly that — including under 32-bit
// modular address arithmetic, provided hi < 2^31 (true for both bound
// shapes: globals sit at the bottom of the address space and frame
// bounds are EBP-relative below StackTop = 0x7fff0000) and all deltas
// are small (chopMaxDelta). A wrapped member address always drags
// core+δ_min out of [lo, hi) as well, so the disjunction is preserved.

type chopPass struct{}

func (chopPass) Name() string { return "chop" }

const (
	// chopMaxDelta bounds every member's |δ| so the modular-arithmetic
	// argument above holds with room to spare.
	chopMaxDelta = int64(1) << 24
	// chopMaxDisp bounds the patched frame displacements.
	chopMaxDisp = int32(1) << 24
)

func (chopPass) run(c *compiler, m *ir.Module) error {
	c.stats[StatChecksChop] += 0 // the key is present whenever the pass ran
	if !c.strat.chopDirectArray() {
		return nil
	}
	for _, fs := range c.fns {
		if len(fs.chopRefs) > 0 {
			c.chopFunc(fs)
		}
	}
	return nil
}

// chopRef is the lowering-time shape of one consolidation candidate: a
// checked direct-array reference whose address is core + delta, where
// core renders the variable part of the scaled index canonically (empty
// for constant subscripts) and delta is the constant byte offset.
type chopRef struct {
	id    int
	d     *minic.VarDecl
	core  string
	delta int64
	vars  []*minic.VarDecl // scalar variables core reads
}

// noteChopRef records a candidate during lowering. Only direct-array
// references qualify: their bounds are constants or frame-relative, the
// two shapes the patcher knows how to widen.
func (c *compiler) noteChopRef(d *minic.VarDecl, idx minic.Expr, idxConst int32, idxReg bool, id int) {
	if !c.wantChop || c.curFn == nil || !c.strat.chopDirectArray() {
		return
	}
	if d == nil || d.Type.Kind != minic.TypeArray {
		return
	}
	ref := &chopRef{id: id, d: d}
	if idx == nil || !idxReg {
		// Constant subscript, already scaled into the displacement.
		ref.delta = int64(idxConst)
	} else {
		core, off := peelConstOffset(idx)
		var vars []*minic.VarDecl
		s, ok := c.canonExpr(core, &vars)
		if !ok {
			return
		}
		ref.core = s
		ref.delta = off * int64(d.Type.Elem.Size())
		ref.vars = vars
	}
	if c.curFn.chopRefs == nil {
		c.curFn.chopRefs = make(map[int]*chopRef)
	}
	c.curFn.chopRefs[id] = ref
}

// peelConstOffset strips top-level +/- constant terms off an index
// expression, returning the remaining core and the accumulated offset
// in index units. Addition is associative and commutative modulo 2^32
// and scaling distributes over it, so the emitted address equals
// core*elem + off*elem regardless of the peeled shape.
func peelConstOffset(e minic.Expr) (minic.Expr, int64) {
	var off int64
	for {
		b, ok := e.(*minic.Binary)
		if !ok {
			return e, off
		}
		switch b.Op {
		case "+":
			if v, ok := constEval(b.Y); ok {
				off += int64(v)
				e = b.X
				continue
			}
			if v, ok := constEval(b.X); ok {
				off += int64(v)
				e = b.Y
				continue
			}
		case "-":
			if v, ok := constEval(b.Y); ok {
				off -= int64(v)
				e = b.X
				continue
			}
		}
		return e, off
	}
}

// chopMember is one group member found during the region scan.
type chopMember struct {
	ref    *chopRef
	instrs []*ir.Instr // the member's check sequence, in layout order
}

type chopGroup struct {
	members []chopMember
}

// chopFunc scans one function's layout for straight-line regions,
// groups same-(array, core, scalar-version) members within each region,
// patches each group's head check to the convex hull and deletes the
// other members.
func (c *compiler) chopFunc(fs *fnState) {
	// Frame and global layout, as in rce: what a resolved store can
	// invalidate and what a resolved access can touch.
	var frame []slotRange
	for d, off := range fs.frameOff {
		frame = append(frame, slotRange{off, off + c.slotSize(d.Type), classOf(d), d})
		if d.Type.Kind == minic.TypeArray {
			if ioff, ok := c.localInfo[d]; ok {
				frame = append(frame, slotRange{ioff, ioff + vm.InfoStructSize, slotInfo, d})
			}
		}
	}
	for off := range fs.temps {
		frame = append(frame, slotRange{off, off + 4, slotTemp, nil})
	}
	var globals []slotRange
	for _, g := range c.src.Globals {
		lo := int32(g.Addr)
		globals = append(globals, slotRange{lo, lo + c.slotSize(g.Type), classOf(g), g})
		if ioff, ok := c.gInfo[g]; ok {
			globals = append(globals, slotRange{int32(ioff), int32(ioff) + vm.InfoStructSize, slotInfo, g})
		}
	}
	resolve := func(m vm.MemRef) *slotRange {
		var ranges []slotRange
		switch {
		case m.HasBase && m.Base == vm.EBP && !m.HasIndex:
			ranges = frame
		case !m.HasBase && !m.HasIndex:
			ranges = globals
		default:
			return nil
		}
		for i := range ranges {
			if m.Disp >= ranges[i].lo && m.Disp < ranges[i].hi {
				return &ranges[i]
			}
		}
		return nil
	}

	// Collect every live check's instruction sequence. Ids are unique
	// and a sequence is contiguous in layout (its trap branches end
	// blocks mid-sequence, but the continuation follows immediately).
	checkInstrs := make(map[int][]*ir.Instr)
	for _, blk := range fs.frag.Blocks {
		for i := range blk.Instrs {
			if id := blk.Instrs[i].CheckID; id != 0 {
				checkInstrs[id] = append(checkInstrs[id], &blk.Instrs[i])
			}
		}
	}

	// Region scan. A region is a maximal run of layout-order code with
	// one entry, no observable effects and no other fault sources:
	// broken by labels (join points), branches and calls outside check
	// sequences, faultable arithmetic, and any memory access that can't
	// be proven slot-resolved or array-interior. Resolved stores to
	// scalar and pointer slots stay inside the region but version-bump
	// the variable, so references reading it stop matching earlier ones.
	region := 0
	versions := make(map[*minic.VarDecl]int)
	groups := make(map[string]*chopGroup)
	var order []string

	exactTag := func(in *ir.Instr) bool { return exactRef(in.Tag) }
	breakRegion := func() { region++ }

	prevID := 0
	for _, blk := range fs.frag.Blocks {
		if len(blk.Labels) > 0 {
			breakRegion()
		}
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			id := in.CheckID
			if id != 0 {
				// Check sequences hold no stores and trap-only branches;
				// they never break a region. A fresh id at its head may
				// join a group.
				if id != prevID {
					prevID = id
					ref := fs.chopRefs[id]
					if ref == nil || c.deadChecks[id] {
						continue
					}
					var sig strings.Builder
					fmt.Fprintf(&sig, "r%d|d%d|%s", region, c.declKey(ref.d), ref.core)
					for _, v := range ref.vars {
						fmt.Fprintf(&sig, "|v%d=%d", c.declKey(v), versions[v])
					}
					key := sig.String()
					g := groups[key]
					if g == nil {
						g = &chopGroup{}
						groups[key] = g
						order = append(order, key)
					}
					g.members = append(g.members, chopMember{ref: ref, instrs: checkInstrs[id]})
				}
				continue
			}
			prevID = 0
			switch in.Op {
			case vm.CALL, vm.LCALL, vm.HCALL, vm.INT,
				vm.RET, vm.HLT, vm.TRAP, vm.IDIV, vm.IMOD:
				// Output, arbitrary stores, or a possible non-check fault.
				breakRegion()
				continue
			}
			if in.IsBranch() {
				breakRegion()
				continue
			}
			if in.Op == vm.LEA {
				continue // address arithmetic: no memory access
			}
			// Reads must be provably non-faulting: a frame slot (the
			// stack is always mapped), a named global, or a checked
			// array interior. Resolution runs before the tag is
			// consulted — TagMem persists across instructions, so only
			// computed addresses see a fresh tag. (CMP/BOUND mem
			// operands read, as do resolvable RMW destinations, which
			// the store handling below re-examines for write effects.)
			readOK := func(m vm.MemRef) bool {
				if m.HasBase && m.Base == vm.EBP && !m.HasIndex {
					return true
				}
				if !m.HasBase && !m.HasIndex {
					return resolve(m) != nil
				}
				return exactTag(in)
			}
			if in.Src.Kind == vm.KindMem && !readOK(in.Src.Mem) {
				breakRegion()
				continue
			}
			if in.Dst.Kind != vm.KindMem {
				continue
			}
			if in.Op == vm.CMP || in.Op == vm.BOUND {
				if !readOK(in.Dst.Mem) {
					breakRegion()
				}
				continue
			}
			// A store. Slot stores bump the variable's version;
			// array-interior stores (exact tag on a computed address)
			// can't change bounds or index variables; anything else
			// ends the region.
			dm := in.Dst.Mem
			if (dm.HasBase && dm.Base == vm.EBP && !dm.HasIndex) ||
				(!dm.HasBase && !dm.HasIndex) {
				hit := resolve(dm)
				if hit == nil {
					breakRegion()
					continue
				}
				switch hit.class {
				case slotScalar, slotPointer:
					versions[hit.decl]++
				case slotArray, slotTemp, slotInfo:
					// Checked interior / compiler temp: no effect on keys.
				}
				continue
			}
			if !exactTag(in) {
				breakRegion()
			}
		}
	}

	// Consolidate. The head is the group's first member in layout order;
	// its check is widened to the hull and the rest are deleted. Verify
	// shape and guards for the whole group before mutating anything.
	victims := make(map[int]bool)
	for _, key := range order {
		g := groups[key]
		if len(g.members) < 2 {
			continue
		}
		head := g.members[0]
		dMin, dMax := head.ref.delta, head.ref.delta
		ok := true
		for _, m := range g.members {
			if m.ref.delta < -chopMaxDelta || m.ref.delta > chopMaxDelta {
				ok = false
				break
			}
			if m.ref.delta < dMin {
				dMin = m.ref.delta
			}
			if m.ref.delta > dMax {
				dMax = m.ref.delta
			}
		}
		if !ok || dMax-dMin > int64(head.ref.d.Type.Size()) {
			continue
		}
		// Widen by dLo >= 0 below, dHi <= 0 above.
		dLo := head.ref.delta - dMin
		dHi := head.ref.delta - dMax
		if dLo != 0 || dHi != 0 {
			if !c.chopPatch(head.instrs, dLo, dHi) {
				continue
			}
		}
		for _, m := range g.members[1:] {
			victims[m.ref.id] = true
		}
	}
	if len(victims) == 0 {
		return
	}
	for _, blk := range fs.frag.Blocks {
		kept := blk.Instrs[:0]
		for _, in := range blk.Instrs {
			if in.CheckID != 0 && victims[in.CheckID] {
				continue
			}
			kept = append(kept, in)
		}
		blk.Instrs = kept
	}
	fs.frag.Compact()
	for id := range victims {
		c.deadChecks[id] = true
	}
	c.stats[StatSWChecks] -= uint64(len(victims))
	c.stats[StatChecksChop] += uint64(len(victims))
}

// chopPatch widens a direct-array check's window by dLo at the lower
// bound and dHi at the upper, recognising the four shapes the
// strategies emit for direct arrays: the 6-instruction compare sequence
// with constant (global) or LEA frame-relative (local) bounds, the
// pooled BOUND form, and the MPX bndcl/bndcu pairs. Anything else — or
// a patched value outside the guards — reports false and the group is
// left alone.
func (c *compiler) chopPatch(instrs []*ir.Instr, dLo, dHi int64) bool {
	// Both bounds verify before either mutates, so a failed guard never
	// leaves a half-patched check behind.
	patchImms := func(loIn, hiIn *ir.Instr) bool {
		if loIn.Src.Kind != vm.KindImm || hiIn.Src.Kind != vm.KindImm {
			return false
		}
		lo := int64(uint32(loIn.Src.Imm)) + dLo
		hi := int64(uint32(hiIn.Src.Imm)) + dHi
		if lo < 0 || hi < lo || hi >= int64(1)<<31 {
			return false
		}
		loIn.Src.Imm = int32(lo)
		hiIn.Src.Imm = int32(hi)
		return true
	}
	patchDisps := func(loIn, hiIn *ir.Instr) bool {
		for _, in := range []*ir.Instr{loIn, hiIn} {
			if in.Src.Kind != vm.KindMem || !in.Src.Mem.HasBase ||
				in.Src.Mem.Base != vm.EBP || in.Src.Mem.HasIndex {
				return false
			}
		}
		lo := int64(loIn.Src.Mem.Disp) + dLo
		hi := int64(hiIn.Src.Mem.Disp) + dHi
		if lo < int64(-chopMaxDisp) || lo > int64(chopMaxDisp) ||
			hi < int64(-chopMaxDisp) || hi > int64(chopMaxDisp) {
			return false
		}
		loIn.Src.Mem.Disp = int32(lo)
		hiIn.Src.Mem.Disp = int32(hi)
		return true
	}
	isTrapJump := func(in *ir.Instr, op vm.Op) bool {
		return in.Op == op && in.FixupLabel == "__bounds_trap"
	}

	switch {
	case len(instrs) == 1 && instrs[0].Op == vm.BOUND:
		// Pooled constant bounds: point the instruction at a fresh
		// descriptor holding the widened pair.
		in := instrs[0]
		m := in.Src.Mem
		if in.Src.Kind != vm.KindMem || m.HasBase || m.HasIndex || m.Disp < 0 {
			return false
		}
		var pair [2]uint32
		found := false
		for p, at := range c.boundsPool {
			if at == uint32(m.Disp) {
				pair, found = p, true
				break
			}
		}
		if !found {
			return false
		}
		lo := int64(pair[0]) + dLo
		hi := int64(pair[1]) + dHi
		if lo < 0 || hi < lo || hi >= int64(1)<<31 {
			return false
		}
		widened := [2]uint32{uint32(lo), uint32(hi)}
		at, ok := c.boundsPool[widened]
		if !ok {
			at = c.allocData(8, 4)
			c.writeWord(at, widened[0])
			c.writeWord(at+4, widened[1])
			c.boundsPool[widened] = at
		}
		in.Src.Mem.Disp = int32(at)
		return true

	case len(instrs) == 2 && instrs[0].Op == vm.BNDCL && instrs[1].Op == vm.BNDCU:
		// MPX, constant bounds.
		return patchImms(instrs[0], instrs[1])

	case len(instrs) == 4 && instrs[0].Op == vm.LEA &&
		instrs[1].Op == vm.BNDCL && instrs[2].Op == vm.LEA && instrs[3].Op == vm.BNDCU:
		// MPX, frame-relative bounds.
		return patchDisps(instrs[0], instrs[2])

	case len(instrs) == 6 && instrs[1].Op == vm.CMP && instrs[4].Op == vm.CMP &&
		isTrapJump(instrs[2], vm.JB) && isTrapJump(instrs[5], vm.JAE):
		// The classic compare sequence; bounds in instrs[0] and [3].
		switch {
		case instrs[0].Op == vm.MOV && instrs[3].Op == vm.MOV:
			return patchImms(instrs[0], instrs[3])
		case instrs[0].Op == vm.LEA && instrs[3].Op == vm.LEA:
			return patchDisps(instrs[0], instrs[3])
		}
		return false
	}
	return false
}
