package x86seg

import "fmt"

// SegReg names one of the six segment registers. It is a byte so that
// the operands and memory references that carry one stay small.
type SegReg uint8

// The six IA-32 segment registers. CS/SS/DS are reserved for code, stack
// and data; ES, FS and GS (and optionally SS, §3.7) are available to Cash
// for array segments.
const (
	ES SegReg = iota
	CS
	SS
	DS
	FS
	GS
	NumSegRegs = 6
)

var segRegNames = [NumSegRegs]string{"ES", "CS", "SS", "DS", "FS", "GS"}

func (r SegReg) String() string {
	if r < NumSegRegs {
		return segRegNames[r]
	}
	return fmt.Sprintf("SegReg(%d)", int(r))
}

// segRegister is one segment register: the visible selector plus the hidden
// part (descriptor cache / shadow register) loaded from the descriptor
// table at MOV-to-segment-register time.
//
// flat and isLDT are host-side derivations of the visible and hidden
// parts, precomputed at load time so the per-reference hot path does not
// re-decode the descriptor: flat means the cached descriptor is a
// writable 4 GiB base-0 data segment (every in-range access passes), and
// isLDT mirrors the selector's TI bit (the references the paper counts as
// hardware bound checks).
type segRegister struct {
	selector Selector
	cache    Descriptor
	loaded   bool // hidden part holds a valid descriptor
	flat     bool
	isLDT    bool

	// quickR and quickW are the precomputed limit-check thresholds for
	// the tier-2 inline fast path (QuickRef): quickR[k] is one past
	// the largest offset at which a read of 1<<k bytes stays within the
	// cached descriptor's limit, held as uint64 so a flat 4 GiB segment
	// does not wrap to zero. quickW likewise for writes (zero for
	// read-only and code segments). Zero disables the fast path, which
	// falls back to the full Translate — the zero value of a segRegister
	// is therefore always safe.
	quickR [3]uint64
	quickW [3]uint64
}

// quickLimits precomputes the fast-path thresholds for a descriptor just
// loaded into a segment register. The thresholds encode exactly the
// accesses Translate admits — Check's rejection cases (not present, call
// gate, write to read-only or code) map to zero thresholds, and the
// limit comparison offset+size-1 <= limit becomes offset < limit-size+2.
func quickLimits(d Descriptor) (r, w [3]uint64) {
	if !d.Present || d.Kind == KindCallGate {
		return
	}
	limit := int64(d.EffectiveLimit())
	for k := 0; k < 3; k++ {
		if v := limit - int64(1)<<k + 2; v > 0 {
			r[k] = uint64(v)
		}
	}
	if d.Kind == KindData && d.Writable {
		w = r
	}
	return
}

// MMU is the segmentation unit: the GDT, the current LDT, and the six
// segment registers. Every memory reference is translated and limit-checked
// through one of the registers.
type MMU struct {
	gdt  *DescriptorTable
	ldt  *DescriptorTable
	regs [NumSegRegs]segRegister
	gen  uint64 // bumped on any segment-register or table change
}

// NewMMU returns an MMU with empty GDT and LDT and all segment registers
// holding null selectors.
func NewMMU() *MMU {
	return &MMU{gdt: NewTable("GDT"), ldt: NewTable("LDT"), gen: 1}
}

// Gen is a generation counter that changes whenever a segment register
// is loaded or a table is switched or reset — i.e. whenever state cached
// from QuickState may have gone stale. Callers snapshot Gen alongside
// the cached state and revalidate by comparing.
func (m *MMU) Gen() uint64 { return m.gen }

// GDT returns the global descriptor table.
func (m *MMU) GDT() *DescriptorTable { return m.gdt }

// Reset returns the MMU to its NewMMU state in place: both tables are
// emptied (the LDT reset applies to whatever table is currently
// installed) and every segment register reverts to a null selector with
// no cached descriptor.
func (m *MMU) Reset() {
	m.gdt.Reset()
	m.ldt.Reset()
	m.regs = [NumSegRegs]segRegister{}
	m.gen++
}

// LDT returns the current local descriptor table.
func (m *MMU) LDT() *DescriptorTable { return m.ldt }

// SetLDT switches the current LDT, as a context switch (or LDTR rewrite)
// would. Segment registers keep their cached descriptors: stale hidden
// parts are a real hardware hazard the paper calls out, and tests exercise
// it deliberately.
func (m *MMU) SetLDT(t *DescriptorTable) { m.ldt = t; m.gen++ }

func (m *MMU) table(sel Selector) *DescriptorTable {
	if sel.Table() == LDT {
		return m.ldt
	}
	return m.gdt
}

// Load performs MOV to a segment register: the selector is validated
// against its descriptor table and the descriptor is copied into the hidden
// part. Loading a null selector into a data segment register succeeds (the
// fault comes at use time); loading one into CS or SS faults immediately.
func (m *MMU) Load(r SegReg, sel Selector) error {
	if sel.IsNull() {
		if r == CS || r == SS {
			return &Fault{Code: FaultGP, Selector: sel, Detail: "null selector loaded into " + r.String()}
		}
		m.regs[r] = segRegister{selector: sel, isLDT: sel.Table() == LDT}
		m.gen++
		return nil
	}
	d, err := m.table(sel).Lookup(sel)
	if err != nil {
		return err
	}
	if !d.Present {
		return &Fault{Code: FaultNotPresent, Selector: sel, Detail: "descriptor not present"}
	}
	m.regs[r] = segRegister{
		selector: sel,
		cache:    d,
		loaded:   true,
		flat: d.Base == 0 && d.Kind == KindData && d.Writable &&
			d.EffectiveLimit() == 0xffffffff,
		isLDT: sel.Table() == LDT,
	}
	m.regs[r].quickR, m.regs[r].quickW = quickLimits(d)
	m.gen++
	return nil
}

// QuickRef is the tier-2 inline fast path, fused with IsLDT. One
// segment-register lookup yields the linear address of an access of
// 1<<k bytes (k in 0..2) at offset through r, whether the reference is
// an LDT (hardware bound check) reference, and whether the precomputed
// limit check passed. ok=false means the caller must run the full
// Translate, which reproduces every fault the thresholds conservatively
// declined; for every ok=true, lin is what Translate returns, and the
// thresholds are recomputed on Load, so cached-descriptor staleness
// behaves identically on both paths. The ldt result is valid regardless
// of ok, so the caller can count the hardware check before falling back
// to the full Translate — the same order memPhys uses.
func (m *MMU) QuickRef(r SegReg, offset uint32, k int, write bool) (lin uint32, ldt, ok bool) {
	s := &m.regs[r]
	lim := s.quickR[k]
	if write {
		lim = s.quickW[k]
	}
	if uint64(offset) < lim {
		return s.cache.Base + offset, s.isLDT, true
	}
	return 0, s.isLDT, false
}

// QuickState exposes one segment register's fast-path state for callers
// that cache it across a run of accesses (the tier-2 run loop): the
// segment base, the 4-byte read and write thresholds (see quickLimits),
// and whether references through the register count as hardware bound
// checks. The thresholds are valid until the next Load of the register.
func (m *MMU) QuickState(r SegReg) (base uint32, qr, qw uint64, ldt bool) {
	s := &m.regs[r]
	return s.cache.Base, s.quickR[2], s.quickW[2], s.isLDT
}

// Selector returns the visible part of a segment register.
func (m *MMU) Selector(r SegReg) Selector { return m.regs[r].selector }

// IsLDT reports whether the visible selector in r refers to the LDT —
// i.e. whether references through r are array-segment (hardware bound
// check) references. Precomputed at load time; hot-path cheap.
func (m *MMU) IsLDT(r SegReg) bool { return m.regs[r].isLDT }

// FlatLinear is the host fast path for the overwhelmingly common case of
// a reference through a flat 4 GiB writable data segment (the simulated
// Linux DS/SS/ES): when it applies, the limit check trivially passes and
// the linear address is the offset itself. The boolean reports whether
// the fast path applied; when false the caller must use Translate, which
// performs the full architectural check. size must be >= 1.
func (m *MMU) FlatLinear(r SegReg, offset, size uint32) (uint32, bool) {
	if m.regs[r].flat && offset+size-1 >= offset {
		return offset, true
	}
	return 0, false
}

// Cached returns the hidden descriptor of a segment register and whether it
// holds a valid descriptor.
func (m *MMU) Cached(r SegReg) (Descriptor, bool) {
	return m.regs[r].cache, m.regs[r].loaded
}

// Translate checks a memory reference of size bytes at offset through
// segment register r and returns the linear address (segment base +
// offset). The limit check uses the cached descriptor — not the in-memory
// table — so a descriptor modified after loading is not observed until the
// register is reloaded, exactly as on real hardware.
func (m *MMU) Translate(r SegReg, offset uint32, size uint32, write bool) (uint32, error) {
	reg := &m.regs[r]
	if !reg.loaded {
		return 0, &Fault{
			Code: FaultGP, Selector: reg.selector, Offset: offset,
			Detail: "memory reference through unloaded segment register " + r.String(),
		}
	}
	if err := reg.cache.Check(offset, size, write); err != nil {
		if f, ok := err.(*Fault); ok {
			f.Selector = reg.selector
		}
		return 0, err
	}
	return reg.cache.Base + offset, nil
}
