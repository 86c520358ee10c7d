package mem

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	if got := m.Read32(0x1234); got != 0 {
		t.Fatalf("unbacked read = %#x, want 0", got)
	}
	m.Write32(0x1234, 0xdeadbeef)
	if got := m.Read32(0x1234); got != 0xdeadbeef {
		t.Fatalf("Read32 = %#x, want 0xdeadbeef", got)
	}
}

func TestReadWriteWidths(t *testing.T) {
	m := New()
	m.Write8(10, 0xab)
	if got := m.Read8(10); got != 0xab {
		t.Errorf("Read8 = %#x, want 0xab", got)
	}
	m.Write16(20, 0x1234)
	if got := m.Read16(20); got != 0x1234 {
		t.Errorf("Read16 = %#x, want 0x1234", got)
	}
	m.Write32(30, 0x89abcdef)
	if got := m.Read32(30); got != 0x89abcdef {
		t.Errorf("Read32 = %#x, want 0x89abcdef", got)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New()
	m.Write32(0, 0x04030201)
	for i := uint32(0); i < 4; i++ {
		if got := m.Read8(i); got != uint8(i+1) {
			t.Errorf("byte %d = %#x, want %#x", i, got, i+1)
		}
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint32(PageSize - 2) // 32-bit access straddles first page boundary
	m.Write32(addr, 0xcafebabe)
	if got := m.Read32(addr); got != 0xcafebabe {
		t.Fatalf("straddling Read32 = %#x, want 0xcafebabe", got)
	}
	if got := m.PagesAllocated(); got != 2 {
		t.Fatalf("PagesAllocated = %d, want 2", got)
	}
}

func TestReadWriteBytes(t *testing.T) {
	m := New()
	data := []byte("segmentation hardware")
	m.WriteBytes(0x2000, data)
	if got := string(m.ReadBytes(0x2000, len(data))); got != string(data) {
		t.Fatalf("ReadBytes = %q, want %q", got, data)
	}
}

func TestReset(t *testing.T) {
	m := New()
	m.Write32(0x100, 42)
	m.Reset()
	if got := m.Read32(0x100); got != 0 {
		t.Fatalf("after Reset, Read32 = %d, want 0", got)
	}
	if got := m.PagesAllocated(); got != 0 {
		t.Fatalf("after Reset, PagesAllocated = %d, want 0", got)
	}
}

func TestSparseAllocation(t *testing.T) {
	m := New()
	m.Write8(0, 1)
	m.Write8(0xfffffff0, 2) // far end of the 32-bit space
	if got := m.PagesAllocated(); got != 2 {
		t.Fatalf("PagesAllocated = %d, want 2", got)
	}
}

func TestQuickWord32RoundTrip(t *testing.T) {
	m := New()
	f := func(addr, v uint32) bool {
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDisjointWritesIndependent(t *testing.T) {
	f := func(a, b uint32, va, vb uint32) bool {
		if a == b || (a < b && b-a < 4) || (b < a && a-b < 4) {
			return true // overlapping accesses are allowed to interfere
		}
		m := New()
		m.Write32(a, va)
		m.Write32(b, vb)
		return m.Read32(a) == va && m.Read32(b) == vb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// denseForTest returns a small dense memory: lo arena [0, 2 pages),
// stack window [0x10000, 0x10000+1 page).
func denseForTest() *Memory {
	return NewDense(2*PageSize, 0x10000, PageSize)
}

func TestDenseBasicWidths(t *testing.T) {
	m := denseForTest()
	m.Write8(10, 0xab)
	m.Write16(20, 0x1234)
	m.Write32(30, 0x89abcdef)
	if got := m.Read8(10); got != 0xab {
		t.Errorf("Read8 = %#x, want 0xab", got)
	}
	if got := m.Read16(20); got != 0x1234 {
		t.Errorf("Read16 = %#x, want 0x1234", got)
	}
	if got := m.Read32(30); got != 0x89abcdef {
		t.Errorf("Read32 = %#x, want 0x89abcdef", got)
	}
	// Stack window.
	m.Write32(0x10004, 0xfeedface)
	if got := m.Read32(0x10004); got != 0xfeedface {
		t.Errorf("stack Read32 = %#x, want 0xfeedface", got)
	}
}

func TestDenseArenaEdgeStraddles(t *testing.T) {
	m := denseForTest()
	loEnd := uint32(2 * PageSize)
	// Each access has its first bytes in the lo arena and its last bytes
	// in the sparse spill.
	for _, tc := range []struct {
		addr uint32
		n    uint32
	}{
		{loEnd - 1, 2}, {loEnd - 1, 4}, {loEnd - 2, 4}, {loEnd - 3, 4},
	} {
		var want uint32 = 0x04030201
		switch tc.n {
		case 2:
			m.Write16(tc.addr, uint16(want))
			if got := uint32(m.Read16(tc.addr)); got != want&0xffff {
				t.Errorf("Read16(%#x) = %#x, want %#x", tc.addr, got, want&0xffff)
			}
		case 4:
			m.Write32(tc.addr, want)
			if got := m.Read32(tc.addr); got != want {
				t.Errorf("Read32(%#x) = %#x, want %#x", tc.addr, got, want)
			}
		}
		// Byte-level agreement across the edge.
		for i := uint32(0); i < tc.n; i++ {
			if got := m.Read8(tc.addr + i); got != uint8(0x01+i) {
				t.Errorf("Read8(%#x+%d) = %#x, want %#x", tc.addr, i, got, 0x01+i)
			}
		}
	}
}

func TestDenseStackWindowEdges(t *testing.T) {
	m := denseForTest()
	// Straddle into the stack window from below (sparse -> hi arena) and
	// out the top (hi arena -> sparse).
	for _, addr := range []uint32{0x10000 - 2, 0x10000 - 1, 0x10000 + PageSize - 2, 0x10000 + PageSize - 1} {
		m.Write32(addr, 0xa1b2c3d4)
		if got := m.Read32(addr); got != 0xa1b2c3d4 {
			t.Fatalf("Read32(%#x) = %#x, want 0xa1b2c3d4", addr, got)
		}
	}
}

func TestDenseUnbackedReadsZero(t *testing.T) {
	m := denseForTest()
	for _, addr := range []uint32{0, 2*PageSize - 1, 2 * PageSize, 0xfff0, 0x10000, 0x20000, 0xfffffff0} {
		if got := m.Read32(addr); got != 0 {
			t.Fatalf("unbacked Read32(%#x) = %#x, want 0", addr, got)
		}
		if got := m.Read8(addr); got != 0 {
			t.Fatalf("unbacked Read8(%#x) = %#x, want 0", addr, got)
		}
	}
}

func TestDenseReset(t *testing.T) {
	m := denseForTest()
	m.Write32(0x40, 42)    // lo arena
	m.Write32(0x10040, 43) // stack window
	m.Write32(0x20000, 44) // sparse spill
	m.Reset()
	for _, addr := range []uint32{0x40, 0x10040, 0x20000} {
		if got := m.Read32(addr); got != 0 {
			t.Fatalf("after Reset, Read32(%#x) = %d, want 0", addr, got)
		}
	}
}

// TestLowerHiDirty writes into the stack window through the DenseWindows
// slice, as the tier-2 run loop does, and publishes the low-water mark:
// Reset must then zero those bytes, and a higher mark published later
// must not raise it.
func TestLowerHiDirty(t *testing.T) {
	m := denseForTest()
	_, hi, _, hiBase, _ := m.DenseWindows()
	off := uint32(0x40)
	binary.LittleEndian.PutUint32(hi[off:], 7)
	m.LowerHiDirty(off)
	m.LowerHiDirty(off + 8)
	m.Reset()
	if got := m.Read32(hiBase + off); got != 0 {
		t.Fatalf("after Reset, direct window write reads %d, want 0", got)
	}
}

// TestDenseSparseEquivalence drives a dense and a sparse memory with the
// same pseudo-random access sequence and requires identical results. The
// address distribution clusters around the arena edges so straddles and
// spills are exercised.
func TestDenseSparseEquivalence(t *testing.T) {
	dense := denseForTest()
	sparse := New()
	// Deterministic LCG so the test is reproducible.
	state := uint32(12345)
	next := func() uint32 {
		state = state*1664525 + 1013904223
		return state
	}
	hotspots := []uint32{0, PageSize, 2 * PageSize, 0x10000 - 4, 0x10000, 0x10000 + PageSize - 4, 0x30000}
	addrOf := func(r uint32) uint32 {
		base := hotspots[r%uint32(len(hotspots))]
		return base + (r>>8)%16 - 8 + 4 // wander +-8 around the hotspot, offset to avoid underflow at 0
	}
	for i := 0; i < 20000; i++ {
		r := next()
		addr := addrOf(r)
		v := next()
		switch r % 6 {
		case 0:
			dense.Write8(addr, uint8(v))
			sparse.Write8(addr, uint8(v))
		case 1:
			dense.Write16(addr, uint16(v))
			sparse.Write16(addr, uint16(v))
		case 2:
			dense.Write32(addr, v)
			sparse.Write32(addr, v)
		case 3:
			if g, w := dense.Read8(addr), sparse.Read8(addr); g != w {
				t.Fatalf("op %d: Read8(%#x) dense=%#x sparse=%#x", i, addr, g, w)
			}
		case 4:
			if g, w := dense.Read16(addr), sparse.Read16(addr); g != w {
				t.Fatalf("op %d: Read16(%#x) dense=%#x sparse=%#x", i, addr, g, w)
			}
		case 5:
			if g, w := dense.Read32(addr), sparse.Read32(addr); g != w {
				t.Fatalf("op %d: Read32(%#x) dense=%#x sparse=%#x", i, addr, g, w)
			}
		}
	}
	// Final byte-for-byte sweep over every touched region.
	for _, base := range hotspots {
		lo := base - 16 + 16 // clamp below to avoid uint wrap at 0
		if base >= 16 {
			lo = base - 16
		}
		for a := lo; a < base+32; a++ {
			if g, w := dense.Read8(a), sparse.Read8(a); g != w {
				t.Fatalf("sweep: Read8(%#x) dense=%#x sparse=%#x", a, g, w)
			}
		}
	}
}

func TestQuickDenseWord32RoundTrip(t *testing.T) {
	m := denseForTest()
	f := func(addr, v uint32) bool {
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRadixTableAgainstModel drives a dense and a purely sparse memory
// with one seeded random access sequence and checks every read against
// a byte-map model. Addresses cluster at sparse page edges, radix leaf
// edges, both arena edges (so words straddle an arena and the sparse
// table) and the top of the address space (so words wrap to address 0).
// Periodic Resets must leave no page materialised and all memory zero.
func TestRadixTableAgainstModel(t *testing.T) {
	const (
		loSize = 2 * PageSize
		hiBase = 0x10000
		hiSize = PageSize
	)
	inArena := func(a uint32) bool { return a < loSize || a-hiBase < hiSize }
	// Offsets reach 8 bytes either side of a hotspot, so the hotspot at
	// 0 also covers words that wrap from the top of the address space.
	hotspots := []uint32{
		0, loSize, hiBase, hiBase + hiSize, // arena edges
		0x30000, 0x31000, 1 << leafShift, 3<<leafShift - PageSize, 0xfffff000, // page and leaf edges
	}
	rng := rand.New(rand.NewSource(1))
	for _, dense := range []bool{true, false} {
		m := New()
		if dense {
			m = NewDense(loSize, hiBase, hiSize)
		}
		model := map[uint32]byte{}
		pages := map[uint32]bool{}
		write := func(a uint32, v uint32, n int) {
			for i := 0; i < n; i++ {
				b := a + uint32(i)
				model[b] = byte(v >> (8 * i))
				if !dense || !inArena(b) {
					pages[b/PageSize] = true
				}
			}
		}
		want := func(a uint32, n int) uint32 {
			var v uint32
			for i := 0; i < n; i++ {
				v |= uint32(model[a+uint32(i)]) << (8 * i)
			}
			return v
		}
		for op := 0; op < 42000; op++ {
			a := hotspots[rng.Intn(len(hotspots))] + uint32(rng.Intn(16)) - 8
			v := rng.Uint32()
			switch rng.Intn(6) {
			case 0:
				m.Write8(a, uint8(v))
				write(a, v, 1)
			case 1:
				m.Write16(a, uint16(v))
				write(a, v, 2)
			case 2:
				m.Write32(a, v)
				write(a, v, 4)
			case 3:
				if got := m.Read8(a); uint32(got) != want(a, 1) {
					t.Fatalf("dense=%v op %d: Read8(%#x) = %#x, want %#x", dense, op, a, got, want(a, 1))
				}
			case 4:
				if got := m.Read16(a); uint32(got) != want(a, 2) {
					t.Fatalf("dense=%v op %d: Read16(%#x) = %#x, want %#x", dense, op, a, got, want(a, 2))
				}
			case 5:
				if got := m.Read32(a); got != want(a, 4) {
					t.Fatalf("dense=%v op %d: Read32(%#x) = %#x, want %#x", dense, op, a, got, want(a, 4))
				}
			}
			if op%5000 == 4999 {
				m.Reset()
				clear(model)
				clear(pages)
			}
			if got := m.PagesAllocated(); got != len(pages) {
				t.Fatalf("dense=%v op %d: PagesAllocated = %d, want %d", dense, op, got, len(pages))
			}
		}
		for _, h := range hotspots {
			for a := h - 16; a != h+16; a++ {
				if got := m.Read8(a); got != model[a] {
					t.Fatalf("dense=%v sweep: Read8(%#x) = %#x, want %#x", dense, a, got, model[a])
				}
			}
		}
	}
}
