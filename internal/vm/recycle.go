package vm

import (
	"slices"
	"sync"

	"cash/internal/ldt"
	"cash/internal/mem"
	"cash/internal/x86seg"
)

// recycleCap bounds the recycler: at most this many released part sets
// wait for reuse; a Release that finds the list full drops its parts
// for the garbage collector.
const recycleCap = 8

// parts is the allocation-heavy state of a machine: the dense physical
// memory arenas, the MMU with its descriptor tables, and the LDT
// manager with its 8191-entry free list. Everything else about a
// Machine is cheap per-run state.
type parts struct {
	mem *mem.Memory
	mmu *x86seg.MMU
	ldt *ldt.Manager
}

// recycler is the process-wide free list of released machine parts.
// Parts only fit programs whose memory geometry matches the one they
// were built for, so New searches by geometry, newest first. Recycled
// parts are Reset before use, which makes a recycled machine
// indistinguishable from a fresh one (the equivalence tests pin this).
var recycler struct {
	mu   sync.Mutex
	free []parts
}

// takeParts removes and returns released parts of geometry g.
func takeParts(g mem.Geometry) (parts, bool) {
	recycler.mu.Lock()
	defer recycler.mu.Unlock()
	for i := len(recycler.free) - 1; i >= 0; i-- {
		if p := recycler.free[i]; p.mem.Geometry() == g {
			recycler.free = slices.Delete(recycler.free, i, i+1)
			return p, true
		}
	}
	return parts{}, false
}

// putParts stores parts for reuse, dropping them when the list is full.
func putParts(p parts) {
	recycler.mu.Lock()
	defer recycler.mu.Unlock()
	if len(recycler.free) < recycleCap {
		recycler.free = append(recycler.free, p)
	}
}

// Release returns the machine's memory, MMU and LDT manager to the
// recycler, where a later New for a program of the same memory geometry
// picks them up. Call it after the machine's last use: the machine is
// unusable afterwards. Release is idempotent, so the parts are handed
// out at most once. Machines that are never released are simply
// garbage-collected.
func (m *Machine) Release() {
	if m.memory == nil {
		return
	}
	putParts(parts{mem: m.memory, mmu: m.mmu, ldt: m.ldtMgr})
	m.memory, m.mmu, m.ldtMgr = nil, nil, nil
}
