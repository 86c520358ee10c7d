package vm

import (
	"testing"
	"unsafe"
)

// TestInstrLayout pins the in-memory size of an instruction. Every
// compiled or decoded program allocates and zeroes one Instr per
// instruction, so a field that pads the struct out costs every build and
// every store read; put byte-wide fields next to the others.
func TestInstrLayout(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got > 88 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d bytes, want at most 88", got)
	}
}
