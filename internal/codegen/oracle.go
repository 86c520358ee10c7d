package codegen

import (
	"fmt"
	"sort"

	"cash/internal/ir"
	"cash/internal/minic"
	"cash/internal/vm"
)

// The overflow oracle's site table (the checking side is
// internal/vm/oracle.go). Every reference genRef hands out is tagged with
// its memory operand and the object it addresses (refTag); the tag rides
// on the IR instructions through every pass, and after emission each
// data-accessing instruction whose operand is the tagged one becomes a
// site. Every program carries its table; a machine reads it only when
// asked to run under the oracle.

// tagRef tags the memory instructions built from a reference to a named
// array or pointer and returns the reference's operand.
func (c *compiler) tagRef(t refTag, ref vm.MemRef) vm.Operand {
	t.ref, t.site = ref, c.declSite(t.decl)
	c.b.TagMem(&t)
	return vm.M(ref)
}

// declSite is the site of a reference through a named array or pointer.
// An array's object is its own storage: a static range for a global, a
// frame range for a local. A pointer's object is whatever the first word
// of its slot — the pointer value, in every strategy's representation —
// points into.
func (c *compiler) declSite(d *minic.VarDecl) vm.Site {
	if d.Type.Kind == minic.TypePointer {
		slot := c.slotRef(d, 0)
		return vm.Site{Kind: vm.SiteSlot, Off: slot.Disp, Frame: slot.HasBase}
	}
	size := uint32(d.Type.Size())
	if d.Storage == minic.StorageGlobal {
		return vm.Site{Kind: vm.SiteStatic, Off: int32(d.Addr), Size: size}
	}
	return vm.Site{Kind: vm.SiteFrame, Off: c.frameOff[d], Size: size}
}

// accessesData reports whether op reads or writes its memory operand.
// LEA only computes an address; the bounds instructions read metadata,
// not the object.
func accessesData(op vm.Op) bool {
	switch op {
	case vm.LEA, vm.BOUND, vm.BNDLDX, vm.BNDSTX:
		return false
	}
	return true
}

// siteTable collects the sites of the final module in emission order
// (the instruction indices EmitTo assigned) and the static objects a
// pointer can point into: global arrays and string literals.
func (c *compiler) siteTable(mod *ir.Module, n int) (*vm.SiteTable, error) {
	t := &vm.SiteTable{}
	idx := 0
	for _, f := range mod.Frags {
		for _, blk := range f.Blocks {
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				if st, ok := in.Tag.(*refTag); ok && accessesData(in.Op) &&
					((in.Dst.Kind == vm.KindMem && in.Dst.Mem == st.ref) ||
						(in.Src.Kind == vm.KindMem && in.Src.Mem == st.ref)) {
					s := st.site
					s.Instr = idx
					t.Sites = append(t.Sites, s)
				}
				idx++
			}
		}
	}
	if idx != n {
		return nil, fmt.Errorf("codegen: site table covers %d instructions, program has %d", idx, n)
	}
	for _, g := range c.src.Globals {
		if g.Type.Kind == minic.TypeArray {
			t.Statics = append(t.Statics, vm.Object{Addr: g.Addr, Size: uint32(g.Type.Size())})
		}
	}
	for _, lit := range c.strLits {
		t.Statics = append(t.Statics, vm.Object{Addr: lit.addr, Size: lit.len})
	}
	sort.Slice(t.Statics, func(i, j int) bool { return t.Statics[i].Addr < t.Statics[j].Addr })
	return t, nil
}
