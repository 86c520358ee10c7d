package codegen

import (
	"cash/internal/ir"
	"cash/internal/minic"
	"cash/internal/vm"
)

// Redundant-check elimination. A software check is removable when, on
// every path from the function entry to it, an identical check (same
// canonical object+index key) has already executed and nothing since
// could have changed the key's meaning: the scalar variables the index
// reads, or the checked object's bounds/base (a pointer's slot, an info
// structure). This is a forward available-expressions analysis over the
// fragment CFG, with stores resolved against the function's frame and
// global layout; anything unresolvable (calls, stores through inexact
// operands) conservatively kills every available key.

type rcePass struct{}

func (rcePass) Name() string { return "rce" }

func (rcePass) run(c *compiler, m *ir.Module) error {
	c.stats[StatChecksElim] += 0 // the key is present whenever the pass ran
	// Key provenance, module-wide: declKey ordinals are unique per
	// declaration, so equal keys always mean equal (object, vars).
	keyVars := make(map[string][]*minic.VarDecl)
	keyObj := make(map[string]*minic.VarDecl)
	for _, rec := range c.checks {
		if rec.key == "" {
			continue
		}
		keyVars[rec.key] = rec.vars
		keyObj[rec.key] = rec.decl
	}
	for _, fs := range c.fns {
		c.rceFunc(fs, keyVars, keyObj)
	}
	return nil
}

// Slot classification: what a resolved store can invalidate.
type slotClass int

const (
	slotScalar  slotClass = iota + 1 // int/char variable: kills keys reading it
	slotPointer                      // pointer variable (value+metadata): kills its object's keys
	slotArray                        // array storage: checked interior, kills nothing
	slotInfo                         // Cash info structure: kills its object's keys
	slotTemp                         // compiler-internal hoisting slot: kills nothing
)

type slotRange struct {
	lo, hi int32 // [lo, hi)
	class  slotClass
	decl   *minic.VarDecl
}

func classOf(d *minic.VarDecl) slotClass {
	switch d.Type.Kind {
	case minic.TypeArray:
		return slotArray
	case minic.TypePointer:
		return slotPointer
	default:
		return slotScalar
	}
}

// rceFunc runs the analysis and deletes redundant checks in one function.
func (c *compiler) rceFunc(fs *fnState, keyVars map[string][]*minic.VarDecl, keyObj map[string]*minic.VarDecl) {
	// Frame layout: variable slots, info structures, hoisting temps.
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
	// Global layout.
	var globals []slotRange
	for _, g := range c.src.Globals {
		lo := int32(g.Addr)
		globals = append(globals, slotRange{lo, lo + c.slotSize(g.Type), classOf(g), g})
		if ioff, ok := c.gInfo[g]; ok {
			globals = append(globals, slotRange{int32(ioff), int32(ioff) + vm.InfoStructSize, slotInfo, g})
		}
	}

	kill := func(avail map[string]bool, in *ir.Instr) {
		switch in.Op {
		case vm.CALL, vm.LCALL, vm.HCALL, vm.INT:
			// A call may store anywhere (globals, through pointers).
			for k := range avail {
				delete(avail, k)
			}
			return
		}
		if in.Dst.Kind != vm.KindMem || in.Op == vm.CMP || in.Op == vm.BOUND {
			return
		}
		m := in.Dst.Mem
		var ranges []slotRange
		switch {
		case m.HasBase && m.Base == vm.EBP && !m.HasIndex:
			ranges = frame
		case !m.HasBase && !m.HasIndex:
			ranges = globals
		default:
			// Store through a computed address: sound only when the
			// lowering tagged it as checked against a declared array's
			// true storage, which cannot overlap scalar or pointer slots.
			if exactRef(in.Tag) {
				return
			}
			for k := range avail {
				delete(avail, k)
			}
			return
		}
		var hit *slotRange
		for i := range ranges {
			if m.Disp >= ranges[i].lo && m.Disp < ranges[i].hi {
				hit = &ranges[i]
				break
			}
		}
		if hit == nil {
			for k := range avail {
				delete(avail, k)
			}
			return
		}
		switch hit.class {
		case slotScalar:
			for k := range avail {
				for _, v := range keyVars[k] {
					if v == hit.decl {
						delete(avail, k)
						break
					}
				}
			}
		case slotPointer, slotInfo:
			for k := range avail {
				if keyObj[k] == hit.decl {
					delete(avail, k)
				}
			}
		case slotArray, slotTemp:
			// In-bounds object interior: cannot alias a slot.
		}
	}

	g := fs.frag.BuildCFG()
	blocks := fs.frag.Blocks
	if len(blocks) == 0 {
		return
	}

	// True head of each check sequence. A sequence can span blocks (its
	// trap jumps end blocks mid-check), so the head must be identified
	// over the whole layout: a continuation at a block start is not a
	// fresh check, or it would see its own gen as availability.
	type instrPos struct {
		blk *ir.Block
		idx int
	}
	heads := make(map[int]instrPos)
	prevID := 0
	for _, blk := range blocks {
		for i := range blk.Instrs {
			id := blk.Instrs[i].CheckID
			if id == 0 {
				prevID = 0
				continue
			}
			if id != prevID {
				heads[id] = instrPos{blk, i}
				prevID = id
			}
		}
	}

	// transfer applies one block's effect to avail (mutating it) and, when
	// victims is non-nil, records checks whose key is already available.
	transfer := func(blk *ir.Block, avail map[string]bool, victims map[int]bool) {
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			if id := in.CheckID; id != 0 {
				if heads[id] == (instrPos{blk, i}) {
					if rec := c.checks[id]; rec != nil && rec.key != "" {
						if victims != nil && avail[rec.key] {
							victims[id] = true
						}
						avail[rec.key] = true
					}
				}
				// Check sequences contain no stores.
				continue
			}
			kill(avail, in)
		}
	}
	entry := blocks[0]
	reach := map[*ir.Block]bool{entry: true}
	work := []*ir.Block{entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Succs[b] {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}

	// Universe of keys generated in this fragment (optimistic start for
	// the must-analysis, so loop-carried availability converges properly).
	universe := make(map[string]bool)
	for id := range heads {
		if rec := c.checks[id]; rec != nil && rec.key != "" {
			universe[rec.key] = true
		}
	}
	if len(universe) == 0 {
		return
	}
	copySet := func(s map[string]bool) map[string]bool {
		out := make(map[string]bool, len(s))
		for k := range s {
			out[k] = true
		}
		return out
	}

	out := make(map[*ir.Block]map[string]bool, len(blocks))
	for _, b := range blocks {
		if reach[b] {
			out[b] = copySet(universe)
		}
	}
	in := make(map[*ir.Block]map[string]bool, len(blocks))
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			if !reach[b] {
				continue
			}
			var meet map[string]bool
			if b == entry {
				meet = make(map[string]bool)
			} else {
				for _, p := range g.Preds[b] {
					if !reach[p] {
						continue
					}
					if meet == nil {
						meet = copySet(out[p])
						continue
					}
					for k := range meet {
						if !out[p][k] {
							delete(meet, k)
						}
					}
				}
				if meet == nil {
					meet = make(map[string]bool) // unreachable-pred-only: entry-like
				}
			}
			in[b] = meet
			next := copySet(meet)
			transfer(b, next, nil)
			if len(next) != len(out[b]) {
				out[b] = next
				changed = true
				continue
			}
			for k := range next {
				if !out[b][k] {
					out[b] = next
					changed = true
					break
				}
			}
		}
	}

	victims := make(map[int]bool)
	for _, b := range blocks {
		if !reach[b] {
			continue
		}
		transfer(b, copySet(in[b]), victims)
	}
	if len(victims) == 0 {
		return
	}
	for _, blk := range blocks {
		kept := blk.Instrs[:0]
		for _, iin := range blk.Instrs {
			if iin.CheckID != 0 && victims[iin.CheckID] {
				continue
			}
			kept = append(kept, iin)
		}
		blk.Instrs = kept
	}
	fs.frag.Compact()
	for id := range victims {
		c.deadChecks[id] = true
	}
	c.stats[StatSWChecks] -= uint64(len(victims))
	c.stats[StatChecksElim] += uint64(len(victims))
}
