// Package ldt models the operating-system support Cash adds to Linux
// (paper §3.6): segment allocation and deallocation against the
// per-process LDT.
//
// Because the LDT lives in kernel space, installing a descriptor needs a
// kernel entry. The paper measures the stock modify_ldt system call at 781
// cycles and introduces a leaner path — a call gate installed in LDT entry
// 0 leading to cash_modify_ldt — at 253 cycles. Two further optimisations
// avoid kernel entries entirely: a user-space free-entry list (freeing a
// segment never modifies the LDT) and a 3-entry cache of the most recently
// freed segments, reused wholesale when a new segment has the same base
// and limit.
package ldt

import (
	"errors"
	"fmt"

	"cash/internal/obs"
	"cash/internal/x86seg"
)

// Process-wide LDT metrics in the shared observability registry.
// Managers publish deltas via PublishMetrics (the VM calls it once per
// run), so the Alloc/Free paths stay free of atomics. The two cycle
// counters split the kernel-entry cost by path, making the paper's
// 253-vs-781-cycle comparison (§3.6) directly visible in -metrics.
var (
	mAllocRequests   = obs.Default().Counter("ldt.alloc_requests")
	mCacheHits       = obs.Default().Counter("ldt.cache_hits")
	mKernelCalls     = obs.Default().Counter("ldt.kernel_calls")
	mFrees           = obs.Default().Counter("ldt.frees")
	mCyclesCallGate  = obs.Default().Counter("ldt.cycles.call_gate")
	mCyclesModifyLDT = obs.Default().Counter("ldt.cycles.modify_ldt")
)

// Cycle costs, from the paper's measurements on a 1.1 GHz Pentium III
// running Red Hat Linux 7.2.
const (
	// CostModifyLDT is the stock Linux modify_ldt system call (§3.6).
	CostModifyLDT = 781
	// CostCallGate is one cash_modify_ldt invocation through the lcall
	// $0x7,$0x0 call gate (§3.6).
	CostCallGate = 253
	// CostProgramSetup is the per-program overhead: the
	// set_ldt_callgate system call plus free-list initialisation (§4.1).
	CostProgramSetup = 543
	// CostCacheHit is the user-space work to match and reuse a cached
	// segment without entering the kernel.
	CostCacheHit = 20
	// CostFree is the user-space work to push a freed segment onto the
	// cache/free list. Freeing never enters the kernel.
	CostFree = 10
)

// CallGateEntry is the LDT slot reserved for the cash_modify_ldt call
// gate; it is excluded from segment allocation, leaving 8191 usable
// entries (§3.4).
const CallGateEntry = 0

// UsableEntries is the number of LDT entries available for array segments.
const UsableEntries = x86seg.TableEntries - 1

// ErrExhausted is returned when all 8191 LDT entries are in use. The
// compiler's response (§3.4) is to fall back to the global data segment,
// disabling bound checking for the overflowing objects.
var ErrExhausted = errors.New("ldt: all 8191 LDT entries in use")

// cacheEntry is one slot of the 3-entry recently-freed-segment cache.
type cacheEntry struct {
	index int
	base  uint32
	limit uint32 // raw descriptor limit field
	gran  bool
}

// Stats counts Manager activity for the paper's §4.5 analysis
// (e.g. Toast: 415,659 allocation requests, 53.8% cache hit ratio).
type Stats struct {
	AllocRequests uint64 // total segment allocation requests
	CacheHits     uint64 // requests satisfied from the 3-entry cache
	KernelCalls   uint64 // requests that entered the kernel
	Frees         uint64 // segment deallocations
	PeakLive      int    // maximum simultaneously live segments
}

// HitRatio returns the cache hit ratio over all allocation requests.
func (s Stats) HitRatio() float64 {
	if s.AllocRequests == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.AllocRequests)
}

// Manager implements Cash's segment allocation protocol over a kernel
// LDT. The zero value is not usable; construct with NewManager.
type Manager struct {
	ldt      *x86seg.DescriptorTable
	freeList []int // user-space free_ldt_entry list (LIFO)
	cache    []cacheEntry
	reserved []int // entries held by other consumers (see Reserve)
	gate     bool
	live     int
	cycles   uint64
	stats    Stats

	// Kernel-entry cycles split by path, feeding the ldt.cycles.*
	// registry counters. Both also count into the cycles total above.
	gateCycles uint64
	ldtCycles  uint64

	// State already pushed to the shared registry (see PublishMetrics).
	pubStats      Stats
	pubGateCycles uint64
	pubLDTCycles  uint64

	tr *obs.Trace // nil unless event tracing is on; Emit on nil is a no-op

	// Audit mode (EnableAudit): liveSet mirrors what the manager believes
	// is installed in the kernel table, so CheckInvariants can detect
	// descriptor corruption and free-list damage. Off by default — the
	// hot allocation path pays nothing for it.
	audit   bool
	liveSet map[int]liveInfo
}

// liveInfo is the audit-mode record of one live descriptor.
type liveInfo struct {
	base  uint32
	limit uint32
	gran  bool
}

// cacheSlots is the size of the recently-freed-segment cache (§3.6).
const cacheSlots = 3

// NewManager returns a Manager over the given kernel LDT with all 8191
// non-gate entries free. The call gate is not yet installed; call
// InstallCallGate (normally done by the program prologue).
func NewManager(table *x86seg.DescriptorTable) *Manager {
	free := make([]int, 0, UsableEntries)
	// LIFO pop from the tail; seed so that low indices pop first.
	for i := UsableEntries; i >= 1; i-- {
		free = append(free, i)
	}
	return &Manager{
		ldt:      table,
		freeList: free,
		cache:    make([]cacheEntry, 0, cacheSlots),
	}
}

// LDT returns the kernel descriptor table the manager controls.
func (m *Manager) LDT() *x86seg.DescriptorTable { return m.ldt }

// Reset returns the manager to its NewManager(table) state in place,
// reusing the free-list backing array: all entries free, empty cache, no
// gate, no reservations, zero stats and cycles, audit off, no trace.
// The caller must have emptied (or be about to Reset) the kernel table
// itself. Safe with respect to PublishMetrics bookkeeping: the published
// baselines are zeroed in lockstep with the live counters, which is
// correct because the VM publishes at every run boundary, so by reset
// time everything accumulated has already been pushed to the registry.
func (m *Manager) Reset(table *x86seg.DescriptorTable) {
	m.ldt = table
	m.freeList = m.freeList[:0]
	for i := UsableEntries; i >= 1; i-- {
		m.freeList = append(m.freeList, i)
	}
	m.cache = m.cache[:0]
	m.reserved = nil
	m.gate = false
	m.live = 0
	m.cycles = 0
	m.stats = Stats{}
	m.gateCycles, m.ldtCycles = 0, 0
	m.pubStats = Stats{}
	m.pubGateCycles, m.pubLDTCycles = 0, 0
	m.tr = nil
	m.audit = false
	m.liveSet = nil
}

// InstallCallGate performs the set_ldt_callgate system call: it installs
// the cash_modify_ldt call gate in LDT entry 0 and pays the per-program
// set-up cost. It is idempotent.
func (m *Manager) InstallCallGate() error {
	if m.gate {
		return nil
	}
	gate := x86seg.Descriptor{
		Present:    true,
		DPL:        3,
		Kind:       x86seg.KindCallGate,
		GateTarget: 1, // cash_modify_ldt
	}
	if err := m.ldt.Set(CallGateEntry, gate); err != nil {
		return fmt.Errorf("install call gate: %w", err)
	}
	m.gate = true
	m.cycles += CostProgramSetup
	return nil
}

// GateInstalled reports whether the fast kernel path is available.
func (m *Manager) GateInstalled() bool { return m.gate }

// Alloc allocates a segment covering [base, base+size) and returns its
// selector. The fast paths are tried in order: the 3-entry cache (no
// kernel entry), then a free LDT entry written through the call gate (253
// cycles) or, if no gate is installed, through modify_ldt (781 cycles).
// When the LDT is exhausted it returns ErrExhausted and the caller falls
// back to the global data segment.
func (m *Manager) Alloc(base, size uint32) (x86seg.Selector, error) {
	m.stats.AllocRequests++
	d, err := x86seg.NewDataDescriptor(base, size)
	if err != nil {
		return 0, err
	}
	// §3.6: match base AND limit against the recently freed segments.
	// The descriptor is still sitting in the kernel LDT (freeing never
	// modifies it), so a hit costs no kernel entry.
	for i, ce := range m.cache {
		if ce.base == d.Base && ce.limit == d.Limit && ce.gran == d.Granularity {
			m.cache = append(m.cache[:i], m.cache[i+1:]...)
			m.cycles += CostCacheHit
			m.stats.CacheHits++
			m.live++
			if m.live > m.stats.PeakLive {
				m.stats.PeakLive = m.live
			}
			if m.audit {
				m.liveSet[ce.index] = liveInfo{base: ce.base, limit: ce.limit, gran: ce.gran}
			}
			m.tr.Emit(obs.EvLDTAlloc, uint64(ce.index), uint64(ce.base), "cache-hit")
			return x86seg.NewSelector(ce.index, x86seg.LDT, 3), nil
		}
	}
	idx, ok := m.popFree()
	if !ok {
		m.tr.Emit(obs.EvLDTAlloc, 0, uint64(base), "exhausted")
		return 0, ErrExhausted
	}
	if err := m.ldt.Set(idx, d); err != nil {
		m.freeList = append(m.freeList, idx)
		return 0, fmt.Errorf("install descriptor: %w", err)
	}
	path := "modify_ldt"
	if m.gate {
		m.cycles += CostCallGate
		m.gateCycles += CostCallGate
		path = "call-gate"
	} else {
		m.cycles += CostModifyLDT
		m.ldtCycles += CostModifyLDT
	}
	m.stats.KernelCalls++
	m.live++
	if m.live > m.stats.PeakLive {
		m.stats.PeakLive = m.live
	}
	if m.audit {
		m.liveSet[idx] = liveInfo{base: d.Base, limit: d.Limit, gran: d.Granularity}
	}
	if m.tr.Enabled() {
		m.tr.Emit(obs.EvDescInstall, uint64(idx), uint64(d.Base), path)
		m.tr.Emit(obs.EvLDTAlloc, uint64(idx), uint64(d.Base), path)
	}
	return x86seg.NewSelector(idx, x86seg.LDT, 3), nil
}

// Free releases a segment. Per §3.6 this never enters the kernel: the
// entry is pushed onto the 3-slot cache (the descriptor stays in the LDT
// for possible reuse); if the cache is full the oldest cached entry's
// index is recycled onto the user-space free list.
func (m *Manager) Free(sel x86seg.Selector) error {
	idx := sel.Index()
	if sel.Table() != x86seg.LDT || idx == CallGateEntry {
		return fmt.Errorf("ldt: cannot free %v", sel)
	}
	d, err := m.ldt.Lookup(sel)
	if err != nil {
		return fmt.Errorf("free %v: %w", sel, err)
	}
	if m.audit {
		// A double free (or a free of a selector the manager never handed
		// out) is an application bug contained to the process (§3.8);
		// refusing it here keeps the audit books conserved.
		if _, ok := m.liveSet[idx]; !ok {
			return fmt.Errorf("ldt: free of non-live entry %d", idx)
		}
		delete(m.liveSet, idx)
	}
	if len(m.cache) == cacheSlots {
		evicted := m.cache[0]
		m.cache = m.cache[1:]
		m.freeList = append(m.freeList, evicted.index)
		m.tr.Emit(obs.EvDescEvict, uint64(evicted.index), uint64(evicted.base), "cache overflow")
	}
	m.cache = append(m.cache, cacheEntry{index: idx, base: d.Base, limit: d.Limit, gran: d.Granularity})
	m.cycles += CostFree
	m.stats.Frees++
	m.live--
	m.tr.Emit(obs.EvLDTFree, uint64(idx), uint64(d.Base), "")
	return nil
}

func (m *Manager) popFree() (int, bool) {
	if len(m.freeList) == 0 {
		// The cache holds genuinely free entries too; evict the oldest
		// rather than reporting exhaustion.
		if len(m.cache) == 0 {
			return 0, false
		}
		evicted := m.cache[0]
		m.cache = m.cache[1:]
		m.tr.Emit(obs.EvDescEvict, uint64(evicted.index), uint64(evicted.base), "free-list raid")
		return evicted.index, true
	}
	idx := m.freeList[len(m.freeList)-1]
	m.freeList = m.freeList[:len(m.freeList)-1]
	return idx, true
}

// Live returns the number of currently allocated segments.
func (m *Manager) Live() int { return m.live }

// FreeEntries returns how many LDT entries are immediately available
// (free list plus reusable cache slots).
func (m *Manager) FreeEntries() int { return len(m.freeList) + len(m.cache) }

// Cycles returns the cumulative cycle cost of all manager operations.
func (m *Manager) Cycles() uint64 { return m.cycles }

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// ResetCycles zeroes the cycle accumulator (used between benchmark
// phases); statistics are retained. The per-path kernel-entry counters
// feeding the registry are reset in lockstep so PublishMetrics deltas
// stay non-negative.
func (m *Manager) ResetCycles() {
	m.cycles = 0
	m.gateCycles, m.ldtCycles = 0, 0
	m.pubGateCycles, m.pubLDTCycles = 0, 0
}

// SetTrace attaches a structured event trace; LDT allocations, frees,
// descriptor installs and cache evictions are emitted into it. A nil
// trace (the default) disables emission at the cost of one nil check.
func (m *Manager) SetTrace(tr *obs.Trace) { m.tr = tr }

// PublishMetrics pushes this manager's activity into the shared
// observability registry (internal/obs). Only the delta since the last
// publish is added, so the call is idempotent over unchanged state and
// safe at every run boundary.
func (m *Manager) PublishMetrics() {
	mAllocRequests.Add(m.stats.AllocRequests - m.pubStats.AllocRequests)
	mCacheHits.Add(m.stats.CacheHits - m.pubStats.CacheHits)
	mKernelCalls.Add(m.stats.KernelCalls - m.pubStats.KernelCalls)
	mFrees.Add(m.stats.Frees - m.pubStats.Frees)
	mCyclesCallGate.Add(m.gateCycles - m.pubGateCycles)
	mCyclesModifyLDT.Add(m.ldtCycles - m.pubLDTCycles)
	m.pubStats = m.stats
	m.pubGateCycles, m.pubLDTCycles = m.gateCycles, m.ldtCycles
}

// EnableAudit turns on invariant bookkeeping: the manager mirrors every
// live descriptor so CheckInvariants can compare its view against the
// kernel table. Audit mode exists for the chaos/resilience harness; the
// normal benchmark path never pays for it. Enabling after allocations
// have already happened is unsupported (the mirror would be incomplete),
// so callers enable it right after NewManager.
func (m *Manager) EnableAudit() {
	if m.liveSet == nil {
		m.liveSet = make(map[int]liveInfo)
	}
	m.audit = true
}

// Reserve takes up to n entries off the user-space free list on behalf of
// an external consumer (the chaos plane uses it to model other processes
// exhausting the shared LDT budget). Reserved entries stay accounted for
// by CheckInvariants; they are returned by ReleaseReserved. Reserve
// reports how many entries it actually took.
func (m *Manager) Reserve(n int) int {
	took := 0
	for took < n && len(m.freeList) > 0 {
		idx := m.freeList[len(m.freeList)-1]
		m.freeList = m.freeList[:len(m.freeList)-1]
		m.reserved = append(m.reserved, idx)
		took++
	}
	return took
}

// ReleaseReserved returns every reserved entry to the free list and
// reports how many were released.
func (m *Manager) ReleaseReserved() int {
	n := len(m.reserved)
	m.freeList = append(m.freeList, m.reserved...)
	m.reserved = nil
	return n
}

// CorruptFreeList deliberately damages the user-space free_ldt_entry
// list — the §3.8 scenario where an application overwrite hits Cash's
// shadow structures. The damage is deterministic: a duplicate of the
// lowest live entry is pushed (so a future allocation would hand out a
// segment that is already in use), or, with no live entries, the
// reserved call-gate slot itself. CheckInvariants detects either.
func (m *Manager) CorruptFreeList(aux uint64) {
	if m.audit && len(m.liveSet) > 0 {
		lowest := -1
		for idx := range m.liveSet {
			if lowest < 0 || idx < lowest {
				lowest = idx
			}
		}
		m.freeList = append(m.freeList, lowest)
		return
	}
	_ = aux
	m.freeList = append(m.freeList, CallGateEntry)
}

// CheckInvariants validates the allocator's books against the kernel
// descriptor table after a (possibly fault-injected) run:
//
//   - free-list conservation: free + cached + reserved + live entries
//     account for exactly the 8191 usable slots, with no duplicates and
//     no index out of range or equal to the call-gate slot;
//   - the recently-freed cache holds at most its 3 slots, and every
//     cached descriptor is still installed with the remembered geometry
//     (freeing never modifies the kernel table);
//   - in audit mode, every live descriptor in the kernel table matches
//     the allocator's mirror (catching corruption behind its back);
//   - the call gate, once installed, still occupies entry 0.
//
// A nil return means the fault left the segment machinery consistent.
func (m *Manager) CheckInvariants() error {
	seen := make(map[int]string, len(m.freeList)+len(m.cache)+len(m.reserved))
	note := func(idx int, where string) error {
		if idx <= CallGateEntry || idx >= x86seg.TableEntries {
			return fmt.Errorf("ldt: %s holds out-of-range entry %d", where, idx)
		}
		if prev, dup := seen[idx]; dup {
			return fmt.Errorf("ldt: entry %d appears in both %s and %s", idx, prev, where)
		}
		seen[idx] = where
		return nil
	}
	for _, idx := range m.freeList {
		if err := note(idx, "free list"); err != nil {
			return err
		}
	}
	if len(m.cache) > cacheSlots {
		return fmt.Errorf("ldt: cache holds %d entries, max %d", len(m.cache), cacheSlots)
	}
	for _, ce := range m.cache {
		if err := note(ce.index, "cache"); err != nil {
			return err
		}
		d, err := m.ldt.Lookup(x86seg.NewSelector(ce.index, x86seg.LDT, 3))
		if err != nil {
			return fmt.Errorf("ldt: cached entry %d not installed: %w", ce.index, err)
		}
		if d.Base != ce.base || d.Limit != ce.limit || d.Granularity != ce.gran {
			return fmt.Errorf("ldt: cached entry %d descriptor drifted (base %#x limit %#x vs cached %#x %#x)",
				ce.index, d.Base, d.Limit, ce.base, ce.limit)
		}
	}
	for _, idx := range m.reserved {
		if err := note(idx, "reserved set"); err != nil {
			return err
		}
	}
	if m.live < 0 {
		return fmt.Errorf("ldt: negative live count %d", m.live)
	}
	if got := len(m.freeList) + len(m.cache) + len(m.reserved) + m.live; got != UsableEntries {
		return fmt.Errorf("ldt: conservation violated: free %d + cached %d + reserved %d + live %d = %d, want %d",
			len(m.freeList), len(m.cache), len(m.reserved), m.live, got, UsableEntries)
	}
	if m.audit {
		if len(m.liveSet) != m.live {
			return fmt.Errorf("ldt: audit mirror tracks %d live entries, counter says %d", len(m.liveSet), m.live)
		}
		for idx, want := range m.liveSet {
			if where, dup := seen[idx]; dup {
				return fmt.Errorf("ldt: live entry %d also on %s", idx, where)
			}
			d, err := m.ldt.Lookup(x86seg.NewSelector(idx, x86seg.LDT, 3))
			if err != nil {
				return fmt.Errorf("ldt: live entry %d missing from table: %w", idx, err)
			}
			if d.Base != want.base || d.Limit != want.limit || d.Granularity != want.gran {
				return fmt.Errorf("ldt: live entry %d corrupted (base %#x limit %#x, expected %#x %#x)",
					idx, d.Base, d.Limit, want.base, want.limit)
			}
		}
	}
	if m.gate {
		d, err := m.ldt.Lookup(x86seg.NewSelector(CallGateEntry, x86seg.LDT, 3))
		if err != nil || d.Kind != x86seg.KindCallGate {
			return fmt.Errorf("ldt: call-gate entry %d no longer holds the gate", CallGateEntry)
		}
	}
	return nil
}
