package core

import (
	"fmt"

	"cash/internal/ldt"
	"cash/internal/vm"
	"cash/internal/x86seg"
)

// Overhead-constant measurement (§4.1).
//
// The paper reports three fixed costs of the Cash approach on a 1.1 GHz
// Pentium III: a per-program overhead of 543 cycles (call-gate
// installation and free-list set-up), a per-array overhead of 263 cycles
// (segment allocation through the call gate plus the user-space free),
// and a per-array-use overhead of 4 cycles (one segment-register load per
// use of an array). These functions measure the same quantities on the
// simulated machine so the calibration can be asserted by tests and
// reported by benchmarks.

// OverheadConstants are the measured fixed costs of the Cash mechanism.
type OverheadConstants struct {
	PerProgram  uint64 // call gate + free-list set-up (paper: 543)
	PerArray    uint64 // segment alloc + free lifecycle (paper: 263)
	PerArrayUse uint64 // segment register load (paper: 4)
}

// MeasureOverheadConstants runs three minimal machine workloads that
// isolate each constant.
func MeasureOverheadConstants() (OverheadConstants, error) {
	var oc OverheadConstants

	// Per-program: the set_ldt_callgate path alone.
	base, err := measure(func(b *vm.Builder) {})
	if err != nil {
		return oc, err
	}
	withSetup, err := measure(func(b *vm.Builder) {
		b.Op(vm.MOV, vm.R(vm.EAX), vm.I(vm.SysSetLDTCallGate))
		b.Emit(vm.Instr{Op: vm.INT, Src: vm.I(0x80)})
	})
	if err != nil {
		return oc, err
	}
	oc.PerProgram = withSetup - base - 1 // minus the MOV

	// Per-array: allocate and free one segment through the call gate.
	withArray, err := measure(func(b *vm.Builder) {
		b.Op(vm.MOV, vm.R(vm.EAX), vm.I(vm.SysSetLDTCallGate))
		b.Emit(vm.Instr{Op: vm.INT, Src: vm.I(0x80)})
		b.Op(vm.MOV, vm.R(vm.EAX), vm.I(vm.GateAllocSegment))
		b.Op(vm.MOV, vm.R(vm.EBX), vm.I(0x1000))
		b.Op(vm.MOV, vm.R(vm.ECX), vm.I(64))
		b.Op(vm.MOV, vm.R(vm.EDX), vm.I(0x2000))
		b.Emit(vm.Instr{Op: vm.LCALL, Src: vm.I(7)})
		b.Op(vm.MOV, vm.R(vm.ECX), vm.R(vm.EAX))
		b.Op(vm.MOV, vm.R(vm.EAX), vm.I(vm.GateFreeSegment))
		b.Op(vm.MOV, vm.R(vm.EBX), vm.R(vm.ECX))
		b.Emit(vm.Instr{Op: vm.LCALL, Src: vm.I(7)})
	})
	if err != nil {
		return oc, err
	}
	oc.PerArray = withArray - withSetup - 7 // minus the 7 parameter MOVs

	// Per-array-use: one segment-register load.
	withUse, err := measure(func(b *vm.Builder) {
		b.Op(vm.MOV, vm.R(vm.EAX), vm.I(int32(vm.FlatDataSelector)))
		b.Emit(vm.Instr{Op: vm.MOVSR, Dst: vm.SR(x86seg.ES), Src: vm.R(vm.EAX), Size: 2})
	})
	if err != nil {
		return oc, err
	}
	oc.PerArrayUse = withUse - base - 1 // minus the MOV

	return oc, nil
}

func measure(emit func(b *vm.Builder)) (uint64, error) {
	b := vm.NewBuilder()
	emit(b)
	b.Emit(vm.Instr{Op: vm.HLT})
	p, err := b.Finish("microbench")
	if err != nil {
		return 0, err
	}
	p.DataBase = 0x1000
	p.HeapBase = 0x100000
	p.StackTop = 0x7fff0000
	m, err := vm.New(p, vm.ModeCash)
	if err != nil {
		return 0, err
	}
	defer m.Release()
	res, err := m.Run()
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// PaperConstants are the §4.1 reference values.
var PaperConstants = OverheadConstants{
	PerProgram:  ldt.CostProgramSetup,
	PerArray:    ldt.CostCallGate + ldt.CostFree,
	PerArrayUse: 4,
}

// Verify checks the measured constants against the paper's values.
func (oc OverheadConstants) Verify() error {
	if oc.PerProgram != PaperConstants.PerProgram {
		return fmt.Errorf("per-program overhead %d, paper reports %d", oc.PerProgram, PaperConstants.PerProgram)
	}
	if oc.PerArray != PaperConstants.PerArray {
		return fmt.Errorf("per-array overhead %d, paper reports %d", oc.PerArray, PaperConstants.PerArray)
	}
	if oc.PerArrayUse != PaperConstants.PerArrayUse {
		return fmt.Errorf("per-array-use overhead %d, paper reports %d", oc.PerArrayUse, PaperConstants.PerArrayUse)
	}
	return nil
}
