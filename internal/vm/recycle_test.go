package vm

import (
	"reflect"
	"sync"
	"testing"

	"cash/internal/x86seg"
)

// drainRecycler empties the process-wide free list, so the test decides
// which parts the next New picks up.
func drainRecycler() {
	recycler.mu.Lock()
	recycler.free = nil
	recycler.mu.Unlock()
}

func recycled() int {
	recycler.mu.Lock()
	defer recycler.mu.Unlock()
	return len(recycler.free)
}

// tenantProg dirties every piece of recyclable state a run can touch:
// the data image, the heap (through malloc, which allocates an LDT
// segment under Cash), the stack arena, and the LDT via the call gate.
func tenantProg(t *testing.T) *Program {
	t.Helper()
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(SysSetLDTCallGate))
		b.Emit(Instr{Op: INT, Src: I(0x80)})
		b.Op(MOV, R(EAX), I(64))
		b.Emit(Instr{Op: HCALL, Src: I(HostMalloc)})
		b.Op(MOV, R(EBX), R(EAX))
		b.Op(MOV, ds(EBX, 0), I(41)) // heap write
		b.Op(MOV, R(ECX), I(0x1000))
		b.Op(MOV, ds(ECX, 0), I(0x55555555)) // dirty data[0]
		b.Op(MOV, ds(ECX, 8), I(-1))         // dirty data[2]
		b.Emit(Instr{Op: PUSH, Src: I(-1)})  // dirty the stack arena
		b.Op(MOV, R(EAX), ds(ECX, 0))
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		b.Emit(Instr{Op: HLT})
	})
	p.SetData(make([]byte, 12))
	return p
}

// tier2TenantProg dirties the stack arena from inside a compiled loop,
// where pushes and stores write the window directly and the run loop
// keeps the arena's dirty mark itself.
func tier2TenantProg(t *testing.T) *Program {
	t.Helper()
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(ECX), I(0))
		b.Label("loop")
		b.Emit(Instr{Op: PUSH, Src: I(-1)})
		b.Op(MOV, M(MemRef{Seg: x86seg.SS, Base: ESP, HasBase: true, Disp: -64}), R(ECX))
		b.Op(ADD, R(ECX), I(1))
		b.Op(CMP, R(ECX), I(8))
		b.Jump(JL, "loop")
		b.Emit(Instr{Op: HLT})
	})
	return p
}

// readerProg sums state a stale tenant would have left behind: its own
// data image (7), a data word that starts zero, and the first heap word.
func readerProg(t *testing.T) *Program {
	t.Helper()
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(16))
		b.Emit(Instr{Op: HCALL, Src: I(HostMalloc)})
		b.Op(MOV, R(EBX), R(EAX))
		b.Op(MOV, R(ECX), I(0x1000))
		b.Op(MOV, R(EAX), ds(ECX, 0)) // expects its own image, not 0x55555555
		b.Op(ADD, R(EAX), ds(ECX, 8)) // expects 0, not -1
		b.Op(ADD, R(EAX), ds(EBX, 0)) // expects 0, not 41
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		b.Emit(Instr{Op: HLT})
	})
	p.SetData([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	return p
}

// TestWithPartsResetEquivalence pins the recycler's contract: a machine
// built with parts released by a previous tenant, and reset on reuse, is
// indistinguishable from a fresh one — the same memory, descriptor
// tables and LDT manager before it runs and the same result after —
// whatever the tenant did, including running under Electric Fence or
// having an LDT descriptor corrupted behind the allocator's back by the
// chaos plane.
func TestWithPartsResetEquivalence(t *testing.T) {
	tenants := []struct {
		name string
		mode Mode
		prog func(*testing.T) *Program
		opts []Option
	}{
		{"gcc", ModeGCC, tenantProg, nil},
		{"bcc", ModeBCC, tenantProg, nil},
		{"cash", ModeCash, tenantProg, nil},
		{"tier2", ModeGCC, tier2TenantProg, nil},
		{"electric-fence", ModeGCC, func(t *testing.T) *Program { return efenceProg(t, 100, 100) },
			[]Option{WithPaging(1 << 24), WithElectricFence()}},
		{"descriptor-corruption", ModeCash, tenantProg,
			[]Option{WithLDTAudit(), WithDescriptorCorruption()}},
	}
	for _, tc := range tenants {
		for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
			drainRecycler()
			fresh, err := New(readerProg(t), mode)
			if err != nil {
				t.Fatal(err)
			}
			tenant, err := New(tc.prog(t), tc.mode, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tenant.Run(); err != nil {
				t.Fatalf("[%s] tenant: %v", tc.name, err)
			}
			tenantMem := tenant.Memory()
			tenant.Release()
			reused, err := New(readerProg(t), mode)
			if err != nil {
				t.Fatal(err)
			}
			if reused.Memory() != tenantMem {
				t.Fatalf("[%s/%v] New did not recycle the released parts", tc.name, mode)
			}
			for _, part := range []struct {
				name        string
				fresh, used any
			}{
				{"memory", fresh.Memory(), reused.Memory()},
				{"GDT", fresh.MMU().GDT(), reused.MMU().GDT()},
				{"LDT", fresh.MMU().LDT(), reused.MMU().LDT()},
				{"LDT manager", fresh.LDTManager(), reused.LDTManager()},
			} {
				if !reflect.DeepEqual(part.fresh, part.used) {
					t.Fatalf("[%s/%v] recycled %s differs from fresh", tc.name, mode, part.name)
				}
			}
			want, err := fresh.Run()
			if err != nil {
				t.Fatalf("[%s/%v] fresh: %v", tc.name, mode, err)
			}
			got, err := reused.Run()
			if err != nil {
				t.Fatalf("[%s/%v] recycled: %v", tc.name, mode, err)
			}
			if got.Output[0] != 7 {
				t.Fatalf("[%s/%v] recycled machine saw stale memory: output %v", tc.name, mode, got.Output)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("[%s/%v] recycled run differs from fresh run:\n%+v\nvs\n%+v", tc.name, mode, want, got)
			}
		}
	}
}

// TestReleaseTwiceHandsPartsOutOnce pins Release's idempotence: a second
// Release must not put the same parts on the free list again, where two
// later machines would share them.
func TestReleaseTwiceHandsPartsOutOnce(t *testing.T) {
	drainRecycler()
	m, err := New(readerProg(t), ModeCash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	mem := m.Memory()
	m.Release()
	m.Release()
	if n := recycled(); n != 1 {
		t.Fatalf("free list holds %d part sets after a double Release, want 1", n)
	}
	a, err := New(readerProg(t), ModeCash)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(readerProg(t), ModeCash)
	if err != nil {
		t.Fatal(err)
	}
	if a.Memory() != mem {
		t.Fatal("the released parts were not reused")
	}
	if b.Memory() == mem {
		t.Fatal("the released parts were handed out twice")
	}
}

// TestRecyclerConcurrentHammer drives New/Run/Release from many
// goroutines (meaningful under -race) over two programs whose memory
// geometries differ, so parts of both shapes share the free list: every
// run must produce its own program's exact result, and the free list
// never outgrows its bound.
func TestRecyclerConcurrentHammer(t *testing.T) {
	progA := tenantProg(t)
	progB := readerProg(t)
	progB.HeapBase = 16 << 20 // a larger low arena: a different geometry
	if GeometryFor(progA) == GeometryFor(progB) {
		t.Fatal("hammer programs must differ in geometry")
	}
	drainRecycler()
	wantA := mustRun(t, progA, ModeCash)
	wantB := mustRun(t, progB, ModeCash)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				prog, want := progA, wantA
				if (g+i)%2 == 0 {
					prog, want = progB, wantB
				}
				m, err := New(prog, ModeCash)
				if err != nil {
					t.Errorf("goroutine %d run %d: %v", g, i, err)
					return
				}
				got, err := m.Run()
				m.Release()
				if err != nil {
					t.Errorf("goroutine %d run %d: %v", g, i, err)
					return
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("goroutine %d run %d: result differs", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := recycled(); n > recycleCap {
		t.Fatalf("free list holds %d part sets, bound is %d", n, recycleCap)
	}
}
