package vm

import (
	"context"
	"errors"
	"fmt"

	"cash/internal/ldt"
	"cash/internal/mem"
	"cash/internal/obs"
	"cash/internal/paging"
	"cash/internal/x86seg"
)

// Mode identifies which compiler produced the program being run; it
// selects the behaviour of the runtime library services (chiefly malloc's
// object layout).
type Mode int

// Compiler modes.
const (
	// ModeGCC is the unchecked baseline.
	ModeGCC Mode = iota + 1
	// ModeBCC is software-only bound checking (3-word pointers,
	// 6-instruction checks).
	ModeBCC
	// ModeCash is segmentation-hardware bound checking (2-word pointers,
	// 3-word info structures, per-array segments).
	ModeCash
	// ModeMPX is bounds-table checking in the style of Intel MPX: thin
	// 1-word pointers whose bounds live in a shadow bounds table keyed by
	// the pointer's storage location, loaded and stored with
	// BNDLDX/BNDSTX and checked with BNDCL/BNDCU.
	ModeMPX
)

func (m Mode) String() string {
	switch m {
	case ModeGCC:
		return "gcc"
	case ModeBCC:
		return "bcc"
	case ModeCash:
		return "cash"
	case ModeMPX:
		return "mpx"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// GDT layout used by the simulated OS.
const (
	gdtFlatCode = 1
	gdtFlatData = 2
)

// FlatCodeSelector and FlatDataSelector are the flat 4 GiB segments the
// simulated Linux kernel installs; FlatDataSelector is also Cash's "global
// segment" fall-back when the LDT is exhausted (§3.4).
var (
	FlatCodeSelector = x86seg.NewSelector(gdtFlatCode, x86seg.GDT, 3)
	FlatDataSelector = x86seg.NewSelector(gdtFlatData, x86seg.GDT, 3)
)

// System call and host service numbers.
const (
	SysExit           = 1
	SysSetLDTCallGate = 17

	GateAllocSegment = 1
	GateFreeSegment  = 2

	HostPrintInt = 1
	HostPrintCh  = 2
	HostMalloc   = 3
	HostFree     = 4
)

// InfoStructSize is the size of the per-object information structure:
// lower bound, upper bound, LDT selector (3 words, §3.2).
const InfoStructSize = 12

// Stats are the dynamic execution statistics the paper reports.
type Stats struct {
	Instructions uint64
	HWChecks     uint64 // memory refs limit-checked through an array segment
	SWChecks     uint64 // software bound-check sequences executed
	BoundInstrs  uint64 // IA-32 bound instructions executed
	BndChecks    uint64 // MPX bndcl/bndcu check pairs executed
	BndLoads     uint64 // MPX bndldx bounds-table loads
	BndStores    uint64 // MPX bndstx bounds-table stores
	SegRegLoads  uint64 // MOV-to-segment-register count
	MallocCalls  uint64
	PageWalks    uint64
	LoopIters    uint64 // loop back-edges executed
	SpilledIters uint64 // back-edges of loops with more arrays than segment registers
	// FlatFallbacks counts segment allocations that fell back to the flat
	// data segment because the LDT was exhausted (§3.4) — the signal the
	// resilience harness uses to classify a request as degraded.
	FlatFallbacks uint64
}

// SpilledIterPct returns the share of executed loop iterations that
// belong to spilled loops — the parenthesised percentage of the paper's
// Tables 4 and 7.
func (s Stats) SpilledIterPct() float64 {
	if s.LoopIters == 0 {
		return 0
	}
	return float64(s.SpilledIters) / float64(s.LoopIters) * 100
}

// Result summarises a completed run.
type Result struct {
	Cycles   uint64
	ExitCode int32
	Output   []int32
	Stats    Stats
	LDTStats ldt.Stats
	// SB reports superblock activity when the machine ran superblocks
	// (the default for a program with a compiled trace); nil under step
	// execution. Host-side observability only — no simulated quantity
	// depends on it.
	SB *SBStats
}

// TraceEntry records one address translation for the Figure-1 pipeline
// demonstration.
type TraceEntry struct {
	Seg      x86seg.SegReg
	Selector x86seg.Selector
	Offset   uint32
	Linear   uint32
	Physical uint32
	Write    bool
}

// Option configures a Machine.
type Option func(*Machine)

// WithPaging enables the two-level page-table walk behind segmentation,
// identity-mapping the first n bytes of the linear space.
func WithPaging(n uint32) Option {
	return func(m *Machine) { m.pages = paging.NewIdentity(n) }
}

// WithStepLimit caps the number of executed instructions.
func WithStepLimit(n uint64) Option {
	return func(m *Machine) { m.stepLimit = n }
}

// WithoutTier2 pins the machine to the step interpreter. By default a
// machine runs its program's loops as superblocks (tier 2): traces
// compiled to micro-ops with bulk counter accounting, deopting to the
// step interpreter at a precise instruction boundary on any fault or
// side exit (see superblock.go).
// Simulated output, counters and violation verdicts are identical
// either way; only host speed changes, so this switch exists for the
// differential tests that compare the two.
func WithoutTier2() Option {
	return func(m *Machine) { m.stepOnly = true }
}

// WithTrace installs a hook receiving every address translation.
func WithTrace(fn func(TraceEntry)) Option {
	return func(m *Machine) { m.trace = fn }
}

// WithEvents attaches a structured event trace (internal/obs): the
// machine emits segment-register loads and run-ending faults, and wires
// the trace into the LDT manager for allocation/descriptor events.
// Event emission is a nil check when no trace is attached, so the
// simulated numbers are identical either way.
func WithEvents(tr *obs.Trace) Option {
	return func(m *Machine) { m.etrace = tr }
}

// WithoutCallGate suppresses call-gate installation so that every segment
// allocation pays the stock modify_ldt cost (781 cycles) — the §3.6
// ablation.
func WithoutCallGate() Option {
	return func(m *Machine) { m.noGate = true }
}

// WithCancel makes Run honor ctx: the machine polls ctx.Err() every
// cancelStride instructions (between simulated basic blocks, folded into
// the existing step-limit compare, so the per-instruction path is
// unchanged) and stops with a FaultCanceled wrapping ctx.Err(). A nil
// ctx is ignored.
func WithCancel(ctx context.Context) Option {
	return func(m *Machine) { m.ctx = ctx }
}

// Fault-injection mechanism options. Each implements one chaos Site
// (internal/chaos); the netsim resilience harness composes them. They are
// inert unless explicitly requested, so the standard benchmark paths are
// untouched.

// WithLDTAudit enables the ldt.Manager's audit bookkeeping so the
// post-run invariant checker can validate free-list conservation and
// descriptor-table consistency.
func WithLDTAudit() Option {
	return func(m *Machine) { m.ldtAudit = true }
}

// WithLDTReserve marks n LDT entries as held by other consumers before
// the program starts, modelling external pressure on the shared table —
// with the full budget reserved, every allocation takes the §3.4
// flat-segment fallback.
func WithLDTReserve(n int) Option {
	return func(m *Machine) { m.ldtReserve = n }
}

// WithTransientAllocFault makes the first segment-allocation kernel entry
// fail with a transient (retryable) error, modelling modify_ldt returning
// EAGAIN under allocation churn.
func WithTransientAllocFault() Option {
	return func(m *Machine) { m.chaosTransient = true }
}

// WithDescriptorCorruption rewrites the first installed array descriptor
// behind the allocator's back, shrinking it to a one-byte segment. The
// handler's next access through it takes a #GP, or — if the segment is
// never touched — the post-run invariant checker flags the drift.
func WithDescriptorCorruption() Option {
	return func(m *Machine) { m.chaosCorruptDesc = true }
}

// WithShadowCorruption damages the user-space free_ldt_entry list after
// the first allocation (the §3.8 shadow-structure overwrite scenario);
// the invariant checker detects the duplicate entry.
func WithShadowCorruption() Option {
	return func(m *Machine) { m.chaosCorruptShadow = true }
}

// WithPoke overwrites bytes of physical memory after the data image is
// loaded — the malformed-request injection scribbles the embedded request
// buffer with it.
func WithPoke(addr uint32, data []byte) Option {
	return func(m *Machine) { m.pokeAddr, m.pokeData = addr, data }
}

// WithPageUnmap removes the page mapping covering linear before execution
// starts, modelling a page-table unmap race. Requires WithPaging.
func WithPageUnmap(linear uint32) Option {
	return func(m *Machine) { m.unmapLinear, m.unmapSet = linear, true }
}

// WithElectricFence turns malloc into the Electric Fence debugger the
// paper's related work discusses (§2): every heap object is placed so it
// ends at a page boundary and the following page is left unmapped, so an
// overflowing reference takes a page fault with zero per-check cost —
// at the price of at least two pages of address space per allocation.
// Requires WithPaging.
func WithElectricFence() Option {
	return func(m *Machine) { m.efence = true }
}

// WithOracle runs the machine under the overflow oracle (see
// oracle.go): step-only, stopping at the first array reference that
// leaves its object with a FaultUncaughtOverflow. The program must carry
// a site table.
func WithOracle() Option {
	return func(m *Machine) { m.useOracle = true }
}

// Machine executes a Program. Create one per run with New and Release
// it after its last use; machines are not safe for concurrent use.
type Machine struct {
	prog *Program
	mode Mode

	memory *mem.Memory
	mmu    *x86seg.MMU
	pages  *paging.Directory
	ldtMgr *ldt.Manager

	regs  [NumRegs]uint32
	eq    bool // last compare: equal
	lt    bool // last compare: signed less-than
	below bool // last compare: unsigned below

	ip        int
	heap      uint32
	cycles    uint64
	stepLimit uint64
	ctx       context.Context // nil unless WithCancel
	nextStop  uint64          // next instruction count to pause at (step limit or cancel poll)
	noGate    bool
	efence    bool
	plain     bool            // no paging, no trace: memory fast path applies
	guards    map[uint32]bool // Electric Fence guard pages
	// bnd is the MPX shadow bounds table: pointer-slot address ->
	// (lower, upper). Allocated lazily by the first BNDSTX; a missing
	// entry reads as the unbounded INIT pair, exactly like MPX's lazily
	// populated Bounds Tables.
	bnd      map[uint32][2]uint32
	halted   bool
	exitCode int32

	// Tier-2 state (see superblock.go): the shared superblock table (nil
	// under step execution) and this machine's entry/deopt/retired
	// tallies.
	stepOnly  bool
	sbt       *sbTable
	sbEntries uint64
	sbDeopts  uint64
	sbRetired uint64
	sbw       segWindows // cached sbWindows, valid while sbwGen == mmu.Gen()
	sbwGen    uint64
	mix       *uopMix // dispatch mix; sbstats builds only

	// oracle is the overflow oracle's state (see oracle.go), nil unless
	// WithOracle asked for it (useOracle).
	useOracle bool
	oracle    *oracle

	// Fault-injection mechanisms (see the With* chaos options). At most
	// one of the one-shot corruptions fires per run (chaosFired latches).
	ldtAudit           bool
	ldtReserve         int
	chaosTransient     bool
	chaosCorruptDesc   bool
	chaosCorruptShadow bool
	chaosFired         bool
	pokeAddr           uint32
	pokeData           []byte
	unmapLinear        uint32
	unmapSet           bool

	output []int32
	stats  Stats
	trace  func(TraceEntry)
	etrace *obs.Trace // structured event trace; nil = off
}

// DefaultStepLimit bounds runaway programs.
const DefaultStepLimit = 2_000_000_000

// New prepares a machine for the given program: physical memory holding
// the data image, a GDT with flat code/data segments, an empty LDT with
// its manager, and registers initialised to the simulated Linux process
// state (flat CS/DS/SS/ES, null FS/GS, ESP at the stack top).
func New(prog *Program, mode Mode, opts ...Option) (*Machine, error) {
	m := &Machine{
		prog:      prog,
		mode:      mode,
		stepLimit: DefaultStepLimit,
		heap:      prog.HeapBase,
	}
	for _, o := range opts {
		o(m)
	}
	m.plain = m.pages == nil && m.trace == nil
	if m.useOracle {
		if prog.Sites == nil {
			return nil, errors.New("vm: the oracle needs a program with a site table")
		}
		m.stepOnly = true
		m.oracle = newOracle(prog)
	}
	if !m.stepOnly {
		if t := prog.superblocks(); len(t.list) > 0 {
			m.sbt = t
		}
	}
	// Recycle released parts when some match this program's memory
	// geometry; otherwise allocate fresh. Reset before use makes a
	// recycled machine indistinguishable from a fresh one.
	g := GeometryFor(prog)
	if p, ok := takeParts(g); ok {
		m.memory, m.mmu, m.ldtMgr = p.mem, p.mmu, p.ldt
		m.memory.Reset()
		m.mmu.Reset()
		m.ldtMgr.Reset(m.mmu.LDT())
	} else {
		m.memory = mem.NewDense(g.LoSize, g.HiBase, g.HiSize)
		m.mmu = x86seg.NewMMU()
		m.ldtMgr = ldt.NewManager(m.mmu.LDT())
	}
	m.ldtMgr.SetTrace(m.etrace)

	flatCode, err := x86seg.NewDataDescriptor(0, 0xffffffff)
	if err != nil {
		return nil, err
	}
	flatCode.Kind = x86seg.KindCode
	flatData, err := x86seg.NewDataDescriptor(0, 0xffffffff)
	if err != nil {
		return nil, err
	}
	if err := m.mmu.GDT().Set(gdtFlatCode, flatCode); err != nil {
		return nil, err
	}
	if err := m.mmu.GDT().Set(gdtFlatData, flatData); err != nil {
		return nil, err
	}
	for _, r := range []x86seg.SegReg{x86seg.DS, x86seg.SS, x86seg.ES} {
		if err := m.mmu.Load(r, FlatDataSelector); err != nil {
			return nil, err
		}
	}
	if err := m.mmu.Load(x86seg.CS, FlatCodeSelector); err != nil {
		return nil, err
	}
	// FS and GS start null, so use before load faults (§3.1).
	if err := m.mmu.Load(x86seg.FS, x86seg.NewSelector(0, x86seg.GDT, 0)); err != nil {
		return nil, err
	}
	if err := m.mmu.Load(x86seg.GS, x86seg.NewSelector(0, x86seg.GDT, 0)); err != nil {
		return nil, err
	}

	// Memory starts zeroed, new or recycled, so only the image's nonzero
	// runs need writing.
	for _, r := range prog.Data {
		m.memory.WriteBytes(prog.DataBase+r.Off, r.Bytes)
	}
	m.regs[ESP] = prog.StackTop
	m.ip = prog.Entry
	if m.pages != nil {
		// Identity-map the stack region too; WithPaging(n) covers only
		// the low data/heap range.
		for lin := (prog.StackTop - 1<<20) &^ 0xfff; lin < prog.StackTop; lin += paging.PageSize {
			m.pages.Map(lin, lin, true)
		}
	}
	// Setup-time fault injections, applied after the pristine machine
	// state is in place so they perturb exactly what they model.
	if m.ldtAudit {
		m.ldtMgr.EnableAudit()
	}
	if m.ldtReserve > 0 {
		m.ldtMgr.Reserve(m.ldtReserve)
	}
	if m.pokeData != nil {
		m.memory.WriteBytes(m.pokeAddr, m.pokeData)
	}
	if m.unmapSet {
		if m.pages == nil {
			return nil, fmt.Errorf("vm: WithPageUnmap requires WithPaging")
		}
		m.pages.Unmap(m.unmapLinear &^ (paging.PageSize - 1))
	}
	return m, nil
}

// Arena sizing for denseMemoryFor. The low arena covers the code/data
// image and the heap's common growth; the high arena covers the stack
// window below the initial ESP. Addresses outside either arena spill to
// the sparse page map, so these are pure speed knobs, not limits.
const (
	loArenaSize    = 16 << 20
	stackArenaSize = 2 << 20
)

// GeometryFor returns the arena layout a machine for prog uses:
// arena-backed over the spans the program will actually touch, sparse
// everywhere else. Released parts are reusable for a program exactly
// when their memory's Geometry equals GeometryFor(prog). HiBase is reported
// page-truncated, matching what mem.NewDense actually installs.
func GeometryFor(prog *Program) mem.Geometry {
	loSize := uint32(loArenaSize)
	if end := prog.HeapBase + (1 << 20); end > loSize && prog.HeapBase < (64<<20) {
		loSize = end
	}
	hiBase, hiSize := uint32(0), uint32(0)
	if prog.StackTop >= stackArenaSize && prog.StackTop-stackArenaSize >= loSize {
		hiBase = (prog.StackTop - stackArenaSize) &^ (mem.PageSize - 1)
		hiSize = stackArenaSize
	}
	return mem.Geometry{LoSize: loSize, HiBase: hiBase, HiSize: hiSize}
}

// LDTManager exposes the machine's segment allocation manager.
func (m *Machine) LDTManager() *ldt.Manager { return m.ldtMgr }

// MMU exposes the segmentation unit (for tests and the trace tool).
func (m *Machine) MMU() *x86seg.MMU { return m.mmu }

// Memory exposes physical memory (for tests and loaders).
func (m *Machine) Memory() *mem.Memory { return m.memory }

// Reg returns the value of a general-purpose register.
func (m *Machine) Reg(r Reg) uint32 { return m.regs[r] }

// Cycles returns the cycle count so far, including LDT manager charges.
func (m *Machine) Cycles() uint64 { return m.cycles + m.ldtMgr.Cycles() }

// HeapSpan returns the amount of heap address space consumed so far —
// the quantity Electric Fence inflates by a page-pair per allocation.
func (m *Machine) HeapSpan() uint32 { return m.heap - m.prog.HeapBase }

// IsGuardFault reports whether f is a page fault on an Electric Fence
// guard page — i.e. a detected heap overrun, as opposed to an unrelated
// wild access.
func (m *Machine) IsGuardFault(f *Fault) bool {
	if f == nil || f.Kind != FaultPage || len(m.guards) == 0 {
		return false
	}
	pf, ok := f.Cause.(*paging.PageFault)
	if !ok {
		return false
	}
	return m.guards[pf.Linear&^0xfff]
}

func (m *Machine) fault(kind FaultKind, cause error) *Fault {
	instr := ""
	if m.ip >= 0 && m.ip < len(m.prog.Instrs) {
		instr = m.prog.Instrs[m.ip].String()
	}
	return &Fault{Kind: kind, IP: m.ip, Instr: instr, Cause: cause}
}

// cancelStride is how many instructions may execute between context
// polls under WithCancel: ~60µs of simulated work at the harness's
// typical host rate, so cancellation is prompt without putting a
// context check on the per-instruction path.
const cancelStride = 4096

// Run executes the program from its entry point until HLT, exit, a fault,
// the step limit, or cancellation of the WithCancel context. On a
// detected bound violation the returned error is a *Fault with
// IsBoundViolation() == true.
func (m *Machine) Run() (res *Result, err error) {
	c := m.prog.compiledProgram()
	if m.oracle != nil {
		c = m.oracle.code
	}
	n := len(c.exec)
	startInstrs, startCycles := m.stats.Instructions, m.cycles
	startSBEntries, startSBDeopts, startSBRetired := m.sbEntries, m.sbDeopts, m.sbRetired
	defer func() {
		// Publish this run's observability delta: process-wide simulated
		// work, the fault classification, and the per-machine paging and
		// LDT activity. One batch of atomic adds per run, nothing on the
		// per-instruction path.
		countSim(m.stats.Instructions-startInstrs, m.cycles-startCycles)
		mRuns.Inc()
		if m.sbt != nil {
			countSB(m.sbEntries-startSBEntries, m.sbDeopts-startSBDeopts,
				m.sbRetired-startSBRetired)
			if SBStatsEnabled {
				m.publishMix()
			}
		}
		if f, ok := err.(*Fault); ok && f != nil {
			countFault(f.Kind)
			if m.etrace.Enabled() {
				m.etrace.Emit(obs.EvFault, uint64(f.Kind), uint64(f.IP), f.Error())
			}
		}
		if m.pages != nil {
			m.pages.PublishMetrics()
		}
		m.ldtMgr.PublishMetrics()
	}()
	// nextStop folds cancellation polling into the step-limit compare:
	// without a context it is the step limit itself; with one, the loop
	// pauses every cancelStride instructions to poll ctx.Err().
	m.nextStop = m.stepLimit
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			return m.result(), m.fault(FaultCanceled, err)
		}
		if s := m.stats.Instructions + cancelStride; s < m.nextStop {
			m.nextStop = s
		}
	}
	// Superblock dispatch: when the next instruction heads a compiled
	// superblock and one whole pass fits under nextStop, the fused trace
	// executes it (superblock.run); every other instruction — including
	// deopt tails after a side exit and the final approach to a step
	// limit — takes the per-instruction path. A step-only machine has
	// no heads.
	var heads []*superblock
	if m.sbt != nil {
		heads = m.sbt.heads
	}
	for !m.halted {
		if m.stats.Instructions >= m.nextStop {
			if err := m.stopCheck(); err != nil {
				return m.result(), err
			}
		}
		ip := m.ip
		if uint(ip) >= uint(n) {
			return m.result(), m.fault(FaultInvalid, fmt.Errorf("ip %d outside program", ip))
		}
		if heads != nil {
			if sb := heads[ip]; sb != nil && (m.nextStop-m.stats.Instructions >= uint64(sb.n) ||
				m.pollEarly(m.stats.Instructions, uint64(sb.n))) {
				if err := sb.run(m); err != nil {
					return m.result(), err
				}
				continue
			}
		}
		m.stats.Instructions++
		m.cycles += uint64(c.cost[ip])
		if nt := c.note[ip]; nt != NoteNone {
			switch nt {
			case NoteSWCheck:
				m.stats.SWChecks++
			case NoteLoopBackedge:
				m.stats.LoopIters++
			case NoteSpilledBackedge:
				m.stats.LoopIters++
				m.stats.SpilledIters++
			}
		}
		if err := c.exec[ip](m); err != nil {
			return m.result(), err
		}
	}
	return m.result(), nil
}

// stopCheck handles a nextStop pause: a step-limit fault, a
// cancellation poll, and scheduling the next pause. Called only when
// Instructions >= nextStop; nextStop < stepLimit implies a context is
// attached.
func (m *Machine) stopCheck() error {
	if m.stats.Instructions >= m.stepLimit {
		return m.fault(FaultStepLimit, nil)
	}
	if err := m.ctx.Err(); err != nil {
		return m.fault(FaultCanceled, err)
	}
	if s := m.stats.Instructions + cancelStride; s < m.stepLimit {
		m.nextStop = s
	} else {
		m.nextStop = m.stepLimit
	}
	return nil
}

// pollEarly handles a trace pass of n instructions, starting at
// instruction count at, that does not fit under nextStop. When only
// a cancellation poll is in the way, it polls the context now and moves
// the next pause on, so a machine with a context runs the same passes
// in traces as one without: stepping to the poll instead would move
// Result.SB. Only the real step limit (or a canceled context, which the
// next stopCheck reports) makes a pass step.
func (m *Machine) pollEarly(at, n uint64) bool {
	if m.nextStop == m.stepLimit || m.ctx.Err() != nil {
		return false
	}
	m.nextStop = min(at+max(n, cancelStride), m.stepLimit)
	return m.nextStop-at >= n
}

func (m *Machine) result() *Result {
	res := &Result{
		Cycles:   m.Cycles(),
		ExitCode: m.exitCode,
		Output:   m.output,
		Stats:    m.stats,
		LDTStats: m.ldtMgr.Stats(),
	}
	if m.sbt != nil {
		res.SB = &SBStats{
			Compiled:      uint64(len(m.sbt.list)),
			Entries:       m.sbEntries,
			Deopts:        m.sbDeopts,
			InstrsRetired: m.sbRetired,
		}
	}
	return res
}

// stackRef is the predecoded DS:(%esp) operand used by push and pop.
var stackRef = memOp{seg: x86seg.DS, base: int16(ESP), index: -1}

// push/pop (and CALL/RET through them) address the stack through DS
// rather than SS. Under the simulated Linux both are the identical flat
// segment, and this models the §3.7 rewriting that frees SS for array
// bound checking: PUSH/POP become MOV+SUB/ADD through DS, so stack
// operations keep working when SS holds an array selector.
func (m *Machine) push(v uint32) error {
	m.regs[ESP] -= 4
	phys, err := m.memPhys(&stackRef, 4, true)
	if err != nil {
		return err
	}
	m.memory.Write32(phys, v)
	return nil
}

func (m *Machine) pop() (uint32, error) {
	phys, err := m.memPhys(&stackRef, 4, false)
	if err != nil {
		return 0, err
	}
	m.regs[ESP] += 4
	return m.memory.Read32(phys), nil
}
