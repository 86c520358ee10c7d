package vm

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cash/internal/ldt"
	"cash/internal/x86seg"
)

// buildProg assembles instructions into a runnable program with a standard
// memory layout.
func buildProg(t *testing.T, emit func(b *Builder)) *Program {
	t.Helper()
	b := NewBuilder()
	emit(b)
	p, err := b.Finish("test")
	if err != nil {
		t.Fatal(err)
	}
	p.DataBase = 0x1000
	p.HeapBase = 0x100000
	p.StackTop = 0x7fff0000
	return p
}

// run executes p on a machine built with opts. When that machine runs
// tier 2 (the default for a program with a loop), run also executes p
// on the step interpreter and fails the test unless both engines end
// with the same error and the same Result, so a test written against
// step semantics pins both.
func run(t *testing.T, p *Program, mode Mode, opts ...Option) (*Result, error) {
	t.Helper()
	m, err := New(p, mode, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if m.sbt == nil {
		return res, err
	}
	ref, err2 := New(p, mode, append(opts[:len(opts):len(opts)], WithoutTier2())...)
	if err2 != nil {
		t.Fatal(err2)
	}
	want, werr := ref.Run()
	if fmt.Sprint(werr) != fmt.Sprint(err) {
		t.Fatalf("errors differ\n step:  %v\n tier2: %v", werr, err)
	}
	got := *res
	got.SB = nil
	if !reflect.DeepEqual(*want, got) {
		t.Fatalf("results differ\n step:  %+v\n tier2: %+v", *want, got)
	}
	return res, err
}

func mustRun(t *testing.T, p *Program, mode Mode, opts ...Option) *Result {
	t.Helper()
	res, err := run(t, p, mode, opts...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func ds(base Reg, disp int32) Operand {
	return M(MemRef{Seg: x86seg.DS, Base: base, HasBase: true, Disp: disp})
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name string
		op   Op
		a, b int32
		want int32
	}{
		{name: "add", op: ADD, a: 7, b: 5, want: 12},
		{name: "sub", op: SUB, a: 7, b: 5, want: 2},
		{name: "sub negative", op: SUB, a: 5, b: 7, want: -2},
		{name: "imul", op: IMUL, a: -3, b: 5, want: -15},
		{name: "idiv", op: IDIV, a: -17, b: 5, want: -3},
		{name: "imod", op: IMOD, a: 17, b: 5, want: 2},
		{name: "and", op: AND, a: 0xff, b: 0x0f, want: 0x0f},
		{name: "or", op: OR, a: 0xf0, b: 0x0f, want: 0xff},
		{name: "xor", op: XOR, a: 0xff, b: 0x0f, want: 0xf0},
		{name: "shl", op: SHL, a: 1, b: 4, want: 16},
		{name: "shr", op: SHR, a: 16, b: 2, want: 4},
		{name: "sar", op: SAR, a: -16, b: 2, want: -4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := buildProg(t, func(b *Builder) {
				b.Op(MOV, R(EAX), I(tt.a))
				b.Op(tt.op, R(EAX), I(tt.b))
				b.Op(MOV, R(EAX), R(EAX))
				b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
				b.Emit(Instr{Op: HLT})
			})
			res := mustRun(t, p, ModeGCC)
			if len(res.Output) != 1 || res.Output[0] != tt.want {
				t.Fatalf("output = %v, want [%d]", res.Output, tt.want)
			}
		})
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(1))
		b.Op(IDIV, R(EAX), I(0))
		b.Emit(Instr{Op: HLT})
	})
	_, err := run(t, p, ModeGCC)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultDivide {
		t.Fatalf("want divide fault, got %v", err)
	}
}

func TestMemoryAndDataImage(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EBX), I(0x1000))
		b.Op(MOV, R(EAX), ds(EBX, 0)) // load data[0]
		b.Op(ADD, R(EAX), ds(EBX, 4)) // add data[1]
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		b.Op(MOV, ds(EBX, 8), R(EAX)) // store to data[2]
		b.Op(MOV, R(EAX), ds(EBX, 8))
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		b.Emit(Instr{Op: HLT})
	})
	p.SetData([]byte{10, 0, 0, 0, 32, 0, 0, 0, 0, 0, 0, 0})
	res := mustRun(t, p, ModeGCC)
	want := []int32{42, 42}
	if len(res.Output) != 2 || res.Output[0] != want[0] || res.Output[1] != want[1] {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
}

func TestByteAccess(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EBX), I(0x1000))
		in := Instr{Op: MOV, Dst: R(EAX), Src: ds(EBX, 1), Size: 1}
		b.Emit(in)
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		b.Emit(Instr{Op: HLT})
	})
	p.SetData([]byte{0xff, 0x7b, 0xff})
	res := mustRun(t, p, ModeGCC)
	if res.Output[0] != 0x7b {
		t.Fatalf("byte load = %#x, want 0x7b", res.Output[0])
	}
}

func TestConditionalJumps(t *testing.T) {
	tests := []struct {
		name  string
		a, b  int32
		jcc   Op
		taken bool
	}{
		{name: "je taken", a: 3, b: 3, jcc: JE, taken: true},
		{name: "je not", a: 3, b: 4, jcc: JE, taken: false},
		{name: "jne taken", a: 3, b: 4, jcc: JNE, taken: true},
		{name: "jl signed", a: -1, b: 0, jcc: JL, taken: true},
		{name: "jb unsigned -1 not below 0", a: -1, b: 0, jcc: JB, taken: false},
		{name: "jae unsigned", a: -1, b: 0, jcc: JAE, taken: true},
		{name: "jg", a: 5, b: 4, jcc: JG, taken: true},
		{name: "jge equal", a: 4, b: 4, jcc: JGE, taken: true},
		{name: "jle greater not", a: 5, b: 4, jcc: JLE, taken: false},
		{name: "ja", a: 5, b: 4, jcc: JA, taken: true},
		{name: "jbe equal", a: 4, b: 4, jcc: JBE, taken: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := buildProg(t, func(b *Builder) {
				b.Op(MOV, R(EAX), I(tt.a))
				b.Op(CMP, R(EAX), I(tt.b))
				b.Jump(tt.jcc, "taken")
				b.Op(MOV, R(EAX), I(0))
				b.Jump(JMP, "out")
				b.Label("taken")
				b.Op(MOV, R(EAX), I(1))
				b.Label("out")
				b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
				b.Emit(Instr{Op: HLT})
			})
			res := mustRun(t, p, ModeGCC)
			want := int32(0)
			if tt.taken {
				want = 1
			}
			if res.Output[0] != want {
				t.Fatalf("taken = %d, want %d", res.Output[0], want)
			}
		})
	}
}

func TestLoopSum(t *testing.T) {
	// sum 1..10 = 55
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(0))
		b.Op(MOV, R(ECX), I(1))
		b.Label("loop")
		b.Op(CMP, R(ECX), I(10))
		b.Jump(JG, "done")
		b.Op(ADD, R(EAX), R(ECX))
		b.Op(ADD, R(ECX), I(1))
		b.Jump(JMP, "loop")
		b.Label("done")
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		b.Emit(Instr{Op: HLT})
	})
	res := mustRun(t, p, ModeGCC)
	if res.Output[0] != 55 {
		t.Fatalf("sum = %d, want 55", res.Output[0])
	}
}

func TestCallRetAndStack(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(20))
		b.Op1(PUSH, R(EAX))
		b.Call("double")
		b.Op(ADD, R(ESP), I(4))
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		b.Emit(Instr{Op: HLT})
		b.Func("double")
		b.Op1(PUSH, R(EBP))
		b.Op(MOV, R(EBP), R(ESP))
		b.Op(MOV, R(EAX), M(MemRef{Seg: x86seg.SS, Base: EBP, HasBase: true, Disp: 8}))
		b.Op(ADD, R(EAX), R(EAX))
		b.Op1(POP, R(EBP))
		b.Emit(Instr{Op: RET})
	})
	res := mustRun(t, p, ModeGCC)
	if res.Output[0] != 40 {
		t.Fatalf("double(20) = %d, want 40", res.Output[0])
	}
}

func TestLEAComputesWithoutAccess(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EBX), I(0x100))
		b.Op(MOV, R(ECX), I(4))
		b.Op(LEA, R(EAX), M(MemRef{Base: EBX, HasBase: true, Index: ECX, HasIndex: true, Scale: 4, Disp: 2}))
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		b.Emit(Instr{Op: HLT})
	})
	res := mustRun(t, p, ModeGCC)
	if res.Output[0] != 0x100+16+2 {
		t.Fatalf("lea = %#x, want %#x", res.Output[0], 0x100+16+2)
	}
}

// TestSegmentArrayAccess is the paper's core mechanism end to end: allocate
// a segment over an array, load GS, access through it, and observe that an
// out-of-bounds reference faults with #GP.
func TestSegmentArrayAccess(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		loadGSSegment(b)
		// In-bounds store to element 9 through GS (offset = addr - base).
		b.Op(MOV, R(EDX), I(36))
		b.Op(MOV, M(MemRef{Seg: x86seg.GS, Base: EDX, HasBase: true}), I(77))
		// Read it back through DS to confirm the linear address.
		b.Op(MOV, R(EAX), ds(ECX, -0x1000+0x24)) // DS: 0x1024
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		// Out-of-bounds store to element 10: #GP.
		b.Op(MOV, R(EDX), I(40))
		b.Op(MOV, M(MemRef{Seg: x86seg.GS, Base: EDX, HasBase: true}), I(1))
		b.Emit(Instr{Op: HLT})
	})
	m, err := New(p, ModeCash)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want fault, got err=%v", err)
	}
	if !f.IsBoundViolation() || f.Kind != FaultSegmentation {
		t.Fatalf("want segmentation bound violation, got %v", f)
	}
	if len(res.Output) != 1 || res.Output[0] != 77 {
		t.Fatalf("in-bounds store failed: output %v", res.Output)
	}
	if res.Stats.HWChecks != 2 {
		t.Fatalf("HWChecks = %d, want 2 (one per GS access)", res.Stats.HWChecks)
	}
	if res.Stats.SegRegLoads != 1 {
		t.Fatalf("SegRegLoads = %d, want 1", res.Stats.SegRegLoads)
	}
}

// loadGSSegment emits the cash prologue for one array: install the call
// gate, allocate a segment over a 40-byte array at 0x1000 with its info
// structure at 0x2000, and load GS from info[0] as the paper's code
// sequence does. It leaves ECX = 0x2000.
func loadGSSegment(b *Builder) {
	b.Op(MOV, R(EAX), I(SysSetLDTCallGate))
	b.Emit(Instr{Op: INT, Src: I(0x80)})
	b.Op(MOV, R(EAX), I(GateAllocSegment))
	b.Op(MOV, R(EBX), I(0x1000))
	b.Op(MOV, R(ECX), I(40))
	b.Op(MOV, R(EDX), I(0x2000))
	b.Emit(Instr{Op: LCALL, Src: I(7)})
	b.Op(MOV, R(ECX), I(0x2000))
	b.Emit(Instr{Op: MOVSR, Dst: SR(x86seg.GS), Src: ds(ECX, 0), Size: 2})
}

func TestUnloadedGSFaults(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), M(MemRef{Seg: x86seg.GS, Disp: 0}))
		b.Emit(Instr{Op: HLT})
	})
	_, err := run(t, p, ModeGCC)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultSegmentation {
		t.Fatalf("want segmentation fault through null GS, got %v", err)
	}
}

func TestBoundInstruction(t *testing.T) {
	mk := func(idx int32) *Program {
		return buildProg(t, func(b *Builder) {
			b.Op(MOV, R(EBX), I(0x1000))
			b.Op(MOV, R(EAX), I(idx))
			b.Emit(Instr{Op: BOUND, Dst: R(EAX), Src: ds(EBX, 0)})
			b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
			b.Emit(Instr{Op: HLT})
		})
	}
	bounds := []byte{100, 0, 0, 0, 200, 0, 0, 0} // [100, 200)
	p := mk(150)
	p.SetData(bounds)
	res := mustRun(t, p, ModeGCC)
	if res.Stats.BoundInstrs != 1 {
		t.Fatalf("BoundInstrs = %d, want 1", res.Stats.BoundInstrs)
	}
	p = mk(200)
	p.SetData(bounds)
	_, err := run(t, p, ModeGCC)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultSoftwareCheck {
		t.Fatalf("bound violation: want software check fault, got %v", err)
	}
}

func TestTrapFaults(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Emit(Instr{Op: TRAP, Sym: "array bound violated"})
	})
	_, err := run(t, p, ModeGCC)
	var f *Fault
	if !errors.As(err, &f) || !f.IsBoundViolation() {
		t.Fatalf("want bound violation, got %v", err)
	}
}

func TestExitSyscall(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(SysExit))
		b.Op(MOV, R(EBX), I(3))
		b.Emit(Instr{Op: INT, Src: I(0x80)})
	})
	res := mustRun(t, p, ModeGCC)
	if res.ExitCode != 3 {
		t.Fatalf("ExitCode = %d, want 3", res.ExitCode)
	}
}

// TestStepLimit stops an endless loop at the step limit: a lone jump,
// which compiles no trace, and a loop with a body, which runs as a
// superblock up to the limit's final approach (run compares it with
// step execution).
func TestStepLimit(t *testing.T) {
	for _, body := range []bool{false, true} {
		p := buildProg(t, func(b *Builder) {
			b.Label("spin")
			if body {
				b.Op(ADD, R(EAX), I(1))
			}
			b.Jump(JMP, "spin")
		})
		_, err := run(t, p, ModeGCC, WithStepLimit(1001))
		var f *Fault
		if !errors.As(err, &f) || f.Kind != FaultStepLimit {
			t.Fatalf("body=%v: want step-limit fault, got %v", body, err)
		}
	}
}

func TestMallocModes(t *testing.T) {
	alloc := func(mode Mode) (*Result, *Machine) {
		p := buildProg(t, func(b *Builder) {
			b.Op(MOV, R(EAX), I(SysSetLDTCallGate))
			b.Emit(Instr{Op: INT, Src: I(0x80)})
			b.Op(MOV, R(EAX), I(100))
			b.Emit(Instr{Op: HCALL, Src: I(HostMalloc)})
			b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)}) // print pointer
			b.Emit(Instr{Op: HLT})
		})
		m, err := New(p, mode)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}

	resGCC, _ := alloc(ModeGCC)
	if uint32(resGCC.Output[0]) != 0x100000 {
		t.Fatalf("gcc malloc = %#x, want heap base", resGCC.Output[0])
	}

	resCash, m := alloc(ModeCash)
	ptr := uint32(resCash.Output[0])
	if ptr != 0x100000+InfoStructSize {
		t.Fatalf("cash malloc = %#x, want heap base + info struct", ptr)
	}
	// The info structure holds selector, lower, upper.
	sel := x86seg.Selector(m.Memory().Read32(ptr - InfoStructSize))
	lower := m.Memory().Read32(ptr - InfoStructSize + 4)
	upper := m.Memory().Read32(ptr - InfoStructSize + 8)
	if lower != ptr || upper != ptr+100 {
		t.Fatalf("info bounds = [%#x,%#x), want [%#x,%#x)", lower, upper, ptr, ptr+100)
	}
	d, err := m.MMU().LDT().Lookup(sel)
	if err != nil {
		t.Fatal(err)
	}
	if d.Base != ptr || d.ByteSize() != 100 {
		t.Fatalf("segment = %v, want base %#x size 100", d, ptr)
	}
	if resCash.LDTStats.KernelCalls != 1 {
		t.Fatalf("KernelCalls = %d, want 1", resCash.LDTStats.KernelCalls)
	}
}

func TestCashMallocLargeArrayEndAligned(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(SysSetLDTCallGate))
		b.Emit(Instr{Op: INT, Src: I(0x80)})
		b.Op(MOV, R(EAX), I(1<<20+100)) // > 1 MiB: granularity bit
		b.Emit(Instr{Op: HCALL, Src: I(HostMalloc)})
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		b.Emit(Instr{Op: HLT})
	})
	m, err := New(p, ModeCash)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	ptr := uint32(res.Output[0])
	sel := x86seg.Selector(m.Memory().Read32(ptr - InfoStructSize))
	d, err := m.MMU().LDT().Lookup(sel)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Granularity {
		t.Fatal("large array segment must be page-granular")
	}
	// §3.5: the array end coincides with the segment end.
	arrayEnd := ptr + (1<<20 + 100)
	segEnd := d.Base + d.ByteSize()
	if arrayEnd != segEnd {
		t.Fatalf("array end %#x != segment end %#x", arrayEnd, segEnd)
	}
}

func TestCashFreeReleasesSegment(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(SysSetLDTCallGate))
		b.Emit(Instr{Op: INT, Src: I(0x80)})
		b.Op(MOV, R(EAX), I(64))
		b.Emit(Instr{Op: HCALL, Src: I(HostMalloc)})
		b.Emit(Instr{Op: HCALL, Src: I(HostFree)}) // ptr still in EAX
		b.Emit(Instr{Op: HLT})
	})
	m, err := New(p, ModeCash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.LDTManager().Live(); got != 0 {
		t.Fatalf("live segments after free = %d, want 0", got)
	}
}

func TestCycleAccounting(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(1))  // 1 cycle
		b.Op(ADD, R(EAX), I(2))  // 1 cycle
		b.Op(IMUL, R(EAX), I(3)) // 1 cycle (pipelined throughput)
		b.Op(IDIV, R(EAX), I(3)) // 20 cycles
		b.Emit(Instr{Op: HLT})   // 0
	})
	res := mustRun(t, p, ModeGCC)
	if res.Cycles != 23 {
		t.Fatalf("Cycles = %d, want 23", res.Cycles)
	}
	if res.Stats.Instructions != 5 {
		t.Fatalf("Instructions = %d, want 5", res.Stats.Instructions)
	}
}

func TestSegRegLoadCost(t *testing.T) {
	// A MOVSR costs 4 cycles (§3.3).
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(int32(FlatDataSelector)))
		b.Emit(Instr{Op: MOVSR, Dst: SR(x86seg.ES), Src: R(EAX), Size: 2})
		b.Emit(Instr{Op: HLT})
	})
	res := mustRun(t, p, ModeGCC)
	if res.Cycles != 1+cycleSegLoad {
		t.Fatalf("Cycles = %d, want %d", res.Cycles, 1+cycleSegLoad)
	}
}

func TestCallGateVsSyscallCost(t *testing.T) {
	// With the gate installed an allocation costs 253 cycles; without the
	// Cash kernel patch (WithoutCallGate) it costs 781 (§3.6).
	prog := func() *Program {
		return buildProg(t, func(b *Builder) {
			b.Op(MOV, R(EAX), I(SysSetLDTCallGate))
			b.Emit(Instr{Op: INT, Src: I(0x80)})
			b.Op(MOV, R(EAX), I(GateAllocSegment))
			b.Op(MOV, R(EBX), I(0x1000))
			b.Op(MOV, R(ECX), I(64))
			b.Op(MOV, R(EDX), I(0))
			b.Emit(Instr{Op: LCALL, Src: I(7)})
			b.Emit(Instr{Op: HLT})
		})
	}
	fast := mustRun(t, prog(), ModeCash)
	slow := mustRun(t, prog(), ModeCash, WithoutCallGate())
	// Both runs execute identical instructions; only the kernel-entry
	// charges differ. Fast pays setup (543) + gate (253); slow pays the
	// stock syscall (781) with no setup.
	common := fast.Cycles - ldt.CostProgramSetup - ldt.CostCallGate
	if got := slow.Cycles - common; got != ldt.CostModifyLDT {
		t.Fatalf("syscall-path alloc cost = %d, want %d", got, uint64(ldt.CostModifyLDT))
	}
	if got := fast.Cycles - common; got != ldt.CostProgramSetup+ldt.CostCallGate {
		t.Fatalf("gate-path cost = %d, want %d", got,
			uint64(ldt.CostProgramSetup+ldt.CostCallGate))
	}
}

func TestNoteSWCheckCounted(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(5))
		i := b.Op(CMP, R(EAX), I(10))
		b.Instr(i).Note = NoteSWCheck
		b.Jump(JAE, "fail")
		b.Emit(Instr{Op: HLT})
		b.Label("fail")
		b.Emit(Instr{Op: TRAP, Sym: "check failed"})
	})
	res := mustRun(t, p, ModeGCC)
	if res.Stats.SWChecks != 1 {
		t.Fatalf("SWChecks = %d, want 1", res.Stats.SWChecks)
	}
}

func TestPagingBehindSegmentation(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EBX), I(0x1000))
		b.Op(MOV, R(EAX), ds(EBX, 0))
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		b.Emit(Instr{Op: HLT})
	})
	p.SetData([]byte{9, 0, 0, 0})
	var traced []TraceEntry
	res := mustRun(t, p, ModeGCC,
		WithPaging(1<<24),
		WithTrace(func(e TraceEntry) { traced = append(traced, e) }))
	if res.Output[0] != 9 {
		t.Fatalf("output = %v, want [9]", res.Output)
	}
	if res.Stats.PageWalks == 0 {
		t.Fatal("page walks must be counted")
	}
	if len(traced) == 0 {
		t.Fatal("trace hook must fire")
	}
	e := traced[0]
	if e.Offset != 0x1000 || e.Linear != 0x1000 || e.Physical != 0x1000 {
		t.Fatalf("trace = %+v, want identity pipeline for flat DS", e)
	}
}

func TestPageFaultSurfaces(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EBX), I(1<<25)) // beyond the identity-mapped range
		b.Op(MOV, R(EAX), ds(EBX, 0))
		b.Emit(Instr{Op: HLT})
	})
	_, err := run(t, p, ModeGCC, WithPaging(1<<24))
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultPage {
		t.Fatalf("want page fault, got %v", err)
	}
}

func TestDisassembleListing(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(1))
		b.Emit(Instr{Op: HLT})
	})
	listing := p.Disassemble()
	if listing == "" {
		t.Fatal("empty listing")
	}
}

func TestCodeSizePositive(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(EAX), I(1))
		b.Op(MOV, R(EAX), M(MemRef{Seg: x86seg.GS, Base: EBX, HasBase: true, Disp: 1000}))
		b.Emit(Instr{Op: HLT})
	})
	if p.CodeSize() <= 0 {
		t.Fatal("code size must be positive")
	}
	// The GS-override access must encode larger than a plain register mov.
	if p.Instrs[1].EncodedSize() <= p.Instrs[0].EncodedSize() {
		t.Fatal("segment override + disp32 must cost encoding bytes")
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder()
	b.Jump(JMP, "nowhere")
	if _, err := b.Finish("bad"); err == nil {
		t.Fatal("undefined label must be an error")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder()
	b.Label("x")
	b.Emit(Instr{Op: NOP})
	b.Label("x")
	b.Emit(Instr{Op: HLT})
	if _, err := b.Finish("bad"); err == nil {
		t.Fatal("duplicate label must be an error")
	}
}

// TestTier2PushESP pushes ESP itself inside a compiled loop. As in
// Machine.push, the value pushed is ESP before the decrement, so each
// pass adds 0 to EBX.
func TestTier2PushESP(t *testing.T) {
	p := buildProg(t, func(b *Builder) {
		b.Op(MOV, R(ECX), I(0))
		b.Op(MOV, R(EBX), I(0))
		b.Label("loop")
		b.Op1(PUSH, R(ESP))
		b.Op1(POP, R(EAX))
		b.Op(SUB, R(EAX), R(ESP))
		b.Op(ADD, R(EBX), R(EAX))
		b.Op(ADD, R(ECX), I(1))
		b.Op(CMP, R(ECX), I(10))
		b.Jump(JL, "loop")
		b.Op(MOV, R(EAX), R(EBX))
		b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
		b.Emit(Instr{Op: HLT})
	})
	for _, opts := range [][]Option{{WithoutTier2()}, nil} {
		res := mustRun(t, p, ModeGCC, opts...)
		if res.Output[0] != 0 {
			t.Fatalf("tier2=%v: sum = %d, want 0", opts == nil, res.Output[0])
		}
		if opts == nil && (res.SB == nil || res.SB.InstrsRetired == 0) {
			t.Fatalf("the loop did not run as a superblock: %+v", res.SB)
		}
	}
}

// TestTier2GenericShapes runs, inside a compiled loop, each instruction
// shape tier 2 leaves to the generic closure (uGen): NOP, 2-byte moves,
// SHR, NOT, TEST, compares not followed by a conditional jump, compares
// with a memory destination, AND/OR/XOR from memory, and 1-byte ALU and
// compare memory operands. Every memory operand is element ECX of a
// 40-byte LDT segment; each memory row runs a second time for two more
// passes, so that its access leaves the segment's limit mid-loop. Step
// and tier-2 execution must agree on the whole Result and on the fault.
func TestTier2GenericShapes(t *testing.T) {
	gs := M(MemRef{Seg: x86seg.GS, Index: ECX, HasIndex: true, Scale: 4})
	sized := func(op Op, dst, src Operand, size uint8) Instr {
		return Instr{Op: op, Dst: dst, Src: src, Size: size}
	}
	rows := []struct {
		name string
		mem  bool // the body reads or writes gs
		body func(b *Builder)
	}{
		{"nop", false, func(b *Builder) {
			b.Emit(Instr{Op: NOP})
			b.Op(ADD, R(EAX), R(ECX))
		}},
		{"2-byte load", true, func(b *Builder) {
			b.Emit(sized(MOV, R(EDX), gs, 2))
			b.Op(ADD, R(EAX), R(EDX))
		}},
		{"2-byte store", true, func(b *Builder) {
			b.Emit(sized(MOV, gs, I(0x12345), 2))
			b.Op(ADD, R(EAX), gs)
		}},
		{"shr and not", false, func(b *Builder) {
			b.Op(MOV, R(EDX), I(-1000))
			b.Op(SUB, R(EDX), R(ECX))
			b.Op(SHR, R(EDX), I(3))
			b.Op1(NOT, R(EDX))
			b.Op(ADD, R(EAX), R(EDX))
		}},
		{"test+jcc", false, func(b *Builder) {
			b.Op(TEST, R(ECX), I(1))
			b.Jump(JE, "next")
			b.Op(ADD, R(EAX), R(ECX))
		}},
		{"cmp reg,imm then a non-jump", false, func(b *Builder) {
			b.Op(CMP, R(ECX), I(5))
			b.Op(ADD, R(EAX), I(1))
			b.Jump(JL, "next")
			b.Op(ADD, R(EAX), R(ECX))
		}},
		{"cmp reg,mem then a non-jump", true, func(b *Builder) {
			b.Op(MOV, R(EDX), R(ECX))
			b.Op(SHL, R(EDX), I(26))
			b.Op(CMP, R(EDX), gs)
			b.Op(ADD, R(EAX), I(1))
			b.Jump(JB, "next")
			b.Op(ADD, R(EAX), R(ECX))
		}},
		{"cmp mem,imm+jcc", true, func(b *Builder) {
			b.Op(CMP, gs, I(-1))
			b.Jump(JGE, "next")
			b.Op(ADD, R(EAX), R(ECX))
		}},
		{"and/or/xor reg,mem", true, func(b *Builder) {
			b.Op(MOV, R(EDX), I(0x0ff0))
			b.Op(AND, R(EDX), gs)
			b.Op(OR, R(EDX), gs)
			b.Op(XOR, R(EAX), gs)
			b.Op(ADD, R(EAX), R(EDX))
		}},
		{"1-byte add/sub/imul reg,mem", true, func(b *Builder) {
			b.Op(MOV, R(EDX), I(3))
			b.Emit(sized(IMUL, R(EDX), gs, 1))
			b.Emit(sized(SUB, R(EDX), gs, 1))
			b.Emit(sized(ADD, R(EAX), gs, 1))
			b.Op(ADD, R(EAX), R(EDX))
		}},
		{"1-byte add/and mem,reg", true, func(b *Builder) {
			b.Emit(sized(ADD, gs, R(ECX), 1))
			b.Op(MOV, R(EDX), I(0x7e))
			b.Emit(sized(AND, gs, R(EDX), 1))
			b.Op(ADD, R(EAX), gs)
		}},
		{"1-byte cmp reg,mem+jcc", true, func(b *Builder) {
			b.Op(MOV, R(EDX), R(ECX))
			b.Op(IMUL, R(EDX), I(25))
			b.Emit(sized(CMP, R(EDX), gs, 1))
			b.Jump(JA, "next")
			b.Op(ADD, R(EAX), R(ECX))
		}},
	}
	for _, row := range rows {
		for _, passes := range []int32{10, 12} {
			if passes == 12 && !row.mem {
				continue
			}
			var r Region
			p := buildProg(t, func(b *Builder) {
				loadGSSegment(b)
				b.Op(MOV, R(EAX), I(0))
				b.Op(MOV, R(ECX), I(0))
				r.Start = b.Len()
				b.Label("loop")
				row.body(b)
				b.Label("next")
				b.Op(ADD, R(ECX), I(1))
				b.Op(CMP, R(ECX), I(passes))
				b.Jump(JL, "loop")
				r.End = b.Len()
				b.Emit(Instr{Op: HCALL, Src: I(HostPrintInt)})
				b.Emit(Instr{Op: HLT})
			})
			img := make([]byte, 40)
			for i := range img {
				img[i] = byte(200 - 13*i)
			}
			p.SetData(img)
			BuildTable(p, []Region{r})
			label := fmt.Sprintf("%s, %d passes", row.name, passes)

			want, werr := run(t, p, ModeCash, WithoutTier2())
			got, gerr := run(t, p, ModeCash)
			if fmt.Sprint(werr) != fmt.Sprint(gerr) {
				t.Fatalf("%s: errors differ\n step:  %v\n tier2: %v", label, werr, gerr)
			}
			var wf, gf *Fault
			if errors.As(werr, &wf) != errors.As(gerr, &gf) || wf != nil && (wf.Kind != gf.Kind || wf.IP != gf.IP) {
				t.Fatalf("%s: faults differ\n step:  %+v\n tier2: %+v", label, wf, gf)
			}
			if passes == 12 && (wf == nil || wf.Kind != FaultSegmentation) {
				t.Fatalf("%s: want a segmentation fault past the limit, got %v", label, werr)
			}
			if passes == 10 && werr != nil {
				t.Fatalf("%s: %v", label, werr)
			}
			if got.SB == nil || passes == 10 && got.SB.InstrsRetired == 0 {
				t.Fatalf("%s: the loop did not run as a superblock: %+v", label, got.SB)
			}
			c := *got
			c.SB = nil
			if !reflect.DeepEqual(*want, c) {
				t.Fatalf("%s: results differ\n step:  %+v\n tier2: %+v", label, *want, c)
			}
		}
	}
}
