package vm

import (
	"fmt"
	"sort"
)

// This file is the ground-truth overflow oracle, in the style of the
// Jones & Kelly object table behind Bounds-Checking GCC. A program
// compiled with an oracle site table (codegen.Config.Oracle) names, for
// every array-reference instruction, the object the reference must stay
// inside. A machine for such a program runs step-only on a private copy
// of the predecoded table in which each site's closure is wrapped: the
// wrapper computes the reference's linear byte range and its object from
// the registers as they are before the instruction, runs the original
// closure — so a strategy's own check or hardware fault still fires
// first and still stands — and then stops the run with
// FaultUncaughtOverflow if the range left the object. Heap objects come
// from the malloc and free services, whose HCALLs the table wraps too.
//
// Outside this file only New, which pins such a machine to the step
// interpreter, and the table swap at the top of Run know about the
// oracle: compileInstr, the superblock engine and the dispatch loops run
// unchanged, and programs without a site table never reach this code.

// SiteKind says where a site's object comes from.
type SiteKind uint8

// Site kinds.
const (
	// SiteStatic: a fixed range of the data image, [Off, Off+Size) — a
	// global array referenced by name.
	SiteStatic SiteKind = iota + 1
	// SiteFrame: a frame array, [EBP+Off, EBP+Off+Size).
	SiteFrame
	// SiteSlot: a named pointer's referent. The pointer is the word at
	// Off (EBP-relative when Frame); its object is the heap block or
	// static object it points into.
	SiteSlot
	// SiteReg: a computed pointer's referent. The pointer is Reg minus
	// Sub (Sub == NumRegs: Reg alone); its object is found as for
	// SiteSlot.
	SiteReg
)

// Site is one array-reference instruction of a program and the object
// the oracle checks it against.
type Site struct {
	Instr int // instruction index
	Kind  SiteKind
	Off   int32  // see SiteKind
	Size  uint32 // object size (SiteStatic, SiteFrame)
	Frame bool   // SiteSlot: the slot address is EBP-relative
	Reg   Reg    // SiteReg: pointer register
	Sub   Reg    // SiteReg: subtracted register, NumRegs for none
}

// Object is one byte range [Addr, Addr+Size) of the object table.
type Object struct {
	Addr, Size uint32
}

func (o Object) end() uint64 { return uint64(o.Addr) + uint64(o.Size) }

// SiteTable is a program's oracle table: its array-reference sites in
// instruction order, and the static objects (global arrays, string
// literals) a pointer may point into, sorted by address.
type SiteTable struct {
	Sites   []Site
	Statics []Object
}

// oracle is one machine's oracle state: the wrapped instruction table
// and the live heap blocks, sorted by address.
type oracle struct {
	code    *compiled
	statics []Object
	heap    []Object
}

// newOracle builds the wrapped table for prog, sharing the unwrapped
// closures, costs and notes with the program's predecoded form.
func newOracle(prog *Program) *oracle {
	base := prog.compiledProgram()
	o := &oracle{statics: prog.Sites.Statics}
	o.code = &compiled{
		exec: append([]execFn(nil), base.exec...),
		cost: base.cost,
		note: base.note,
	}
	for _, s := range prog.Sites.Sites {
		o.code.exec[s.Instr] = o.site(s, &prog.Instrs[s.Instr], base.exec[s.Instr])
	}
	for i := range prog.Instrs {
		if in := &prog.Instrs[i]; in.Op == HCALL {
			switch in.Src.Imm {
			case HostMalloc:
				o.code.exec[i] = o.malloc(base.exec[i])
			case HostFree:
				o.code.exec[i] = o.free(base.exec[i])
			}
		}
	}
	return o
}

// site wraps one array reference.
func (o *oracle) site(s Site, in *Instr, exec execFn) execFn {
	ref := in.Src.Mem
	if in.Dst.Kind == KindMem {
		ref = in.Dst.Mem
	}
	mo := compileMem(ref)
	size := uint64(in.Size)
	if size == 0 {
		size = 4
	}
	return func(m *Machine) error {
		desc, _ := m.mmu.Cached(mo.seg)
		lo := uint64(desc.Base + mo.ea(m))
		obj, known := o.object(m, &s, lo, size)
		if err := exec(m); err != nil {
			return err
		}
		if !known || (lo >= uint64(obj.Addr) && lo+size <= obj.end()) {
			return nil
		}
		m.ip = s.Instr
		return m.fault(FaultUncaughtOverflow, fmt.Errorf("%d-byte reference at %#x outside object [%#x,%#x)",
			size, lo, obj.Addr, obj.end()))
	}
}

// object resolves a site's object before the instruction runs. known is
// false when a pointer points into no tracked object (a stack array, a
// freed block, null): the oracle then gives no verdict.
func (o *oracle) object(m *Machine, s *Site, lo, size uint64) (obj Object, known bool) {
	switch s.Kind {
	case SiteStatic:
		return Object{Addr: uint32(s.Off), Size: s.Size}, true
	case SiteFrame:
		return Object{Addr: m.regs[EBP] + uint32(s.Off), Size: s.Size}, true
	case SiteSlot:
		slot := uint32(s.Off)
		if s.Frame {
			slot += m.regs[EBP]
		}
		return o.pointee(m.memory.Read32(slot), lo, size)
	case SiteReg:
		p := m.regs[s.Reg]
		if s.Sub < NumRegs {
			p -= m.regs[s.Sub]
		}
		return o.pointee(p, lo, size)
	}
	return Object{}, false
}

// pointee finds the object pointer p points into. A pointer one past an
// object's end also belongs to that object (C allows forming it), so
// when p both ends one object and starts the next, the object that
// holds the access wins.
func (o *oracle) pointee(p uint32, lo, size uint64) (Object, bool) {
	for _, objs := range [2][]Object{o.heap, o.statics} {
		i := sort.Search(len(objs), func(i int) bool { return objs[i].Addr > p }) - 1
		if i < 0 {
			continue
		}
		if i > 0 && p == objs[i].Addr && objs[i-1].end() == uint64(p) &&
			lo >= uint64(objs[i-1].Addr) && lo+size <= uint64(p) {
			return objs[i-1], true
		}
		if uint64(p) <= objs[i].end() {
			return objs[i], true
		}
	}
	return Object{}, false
}

// malloc wraps the malloc service: a successful call records the new
// block (malloc(0) allocates one byte).
func (o *oracle) malloc(exec execFn) execFn {
	return func(m *Machine) error {
		n := m.regs[EAX]
		if err := exec(m); err != nil {
			return err
		}
		if n == 0 {
			n = 1
		}
		b := Object{Addr: m.regs[EAX], Size: n}
		i := sort.Search(len(o.heap), func(i int) bool { return o.heap[i].Addr >= b.Addr })
		o.heap = append(o.heap, Object{})
		copy(o.heap[i+1:], o.heap[i:])
		o.heap[i] = b
		return nil
	}
}

// free wraps the free service: the block starting at the pointer leaves
// the table, so later references through it get no verdict.
func (o *oracle) free(exec execFn) execFn {
	return func(m *Machine) error {
		p := m.regs[EAX]
		if err := exec(m); err != nil {
			return err
		}
		i := sort.Search(len(o.heap), func(i int) bool { return o.heap[i].Addr >= p })
		if i < len(o.heap) && o.heap[i].Addr == p {
			o.heap = append(o.heap[:i], o.heap[i+1:]...)
		}
		return nil
	}
}
