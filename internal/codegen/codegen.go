// Package codegen translates checked mini-C programs into vm.Programs
// under three compiler modes:
//
//   - GCC:  no bound checking (the paper's baseline),
//   - BCC:  software bound checking — 3-word fat pointers and the
//     6-instruction check sequence on every array/pointer reference,
//   - Cash: segmentation-hardware bound checking — 2-word pointers with a
//     3-word per-object info structure, one segment per array, segment
//     registers allocated FCFS per loop, software fall-back for spilled
//     loops, and no checks outside loops (§3.2–§3.7 of the paper).
//
// All three modes share the front end and the target ISA, so differences
// in simulated cycles and code bytes isolate the checking strategy, which
// is what the paper's tables compare.
//
// The back end lowers through the CFG-based IR in internal/ir: each mode
// is a lowering strategy (strategy.go), optional optimization passes
// transform the IR (pipeline.go; rce.go, hoist.go, affine.go, chop.go),
// and ir.Module.EmitTo replays the result through a vm.Builder.
package codegen

import (
	"fmt"

	"cash/internal/ir"
	"cash/internal/minic"
	"cash/internal/vm"
	"cash/internal/x86seg"
)

// DefaultSegRegs is the segment-register budget of the Cash prototype:
// ES, FS and GS (§3.7).
var DefaultSegRegs = []x86seg.SegReg{x86seg.ES, x86seg.FS, x86seg.GS}

// SegRegsWithSS is the extended 4-register budget that frees SS by
// rewriting PUSH/POP (§3.7); used by the micro-benchmark ablation.
var SegRegsWithSS = []x86seg.SegReg{x86seg.ES, x86seg.FS, x86seg.GS, x86seg.SS}

// Config selects the compiler mode and its knobs.
type Config struct {
	Mode vm.Mode
	// SegRegs is the segment-register budget for Cash mode; nil means
	// DefaultSegRegs. Truncate to model the 2-register ablation (§4.2).
	SegRegs []x86seg.SegReg
	// SkipReadChecks models the §3.8 security-only variant: only write
	// references are bound-checked. Applies to BCC and Cash.
	SkipReadChecks bool
	// UseBoundInstr makes the software checker (BCC mode, and Cash's
	// spill fall-back) use the IA-32 `bound` instruction instead of the
	// 6-instruction compare sequence. The paper (§2) notes `bound` lost
	// to the explicit sequence on the P3 — 7 cycles against 6 — which
	// this ablation measures.
	UseBoundInstr bool
	// Passes names the optimization passes to run on the IR, from
	// PassNames(): "rce" (dominance-based redundant-check elimination),
	// "hoist" (loop-invariant check hoisting), "affine" (symbolic
	// range analysis consolidating affine computed-index checks into
	// convex-hull endpoint checks) and "chop" (straight-line-region
	// consolidation of same-array stencil checks into one convex-hull
	// range check). Empty means the emitted program is byte-identical
	// to the historical direct back end.
	Passes []string
}

// Layout constants shared by all generated programs.
const (
	DataBase = 0x1000
	StackTop = 0x7fff0000
)

// MaxDataImage caps a program's initial data image (globals, string
// literals and their metadata). Far above any workload's, it keeps a
// one-line global declaration from sizing a multi-gigabyte allocation,
// and every program that compiles fits the artifact codec.
const MaxDataImage = 1 << 24

// Fragment names of the anonymous runtime stubs. Parenthesised so no
// mini-C function name can collide.
const (
	trapFragment    = "(trap)"
	startupFragment = "(startup)"
)

// Static code-generation statistic keys stored in Program.Stats.
const (
	StatHWChecks    = "hw_checks_static"   // references compiled to segment-checked operands
	StatSWChecks    = "sw_checks_static"   // software check sequences emitted
	StatSegments    = "static_segments"    // segments allocated for globals/strings
	StatLocalArrays = "local_array_allocs" // per-call segment alloc sites

	// Pass counters, present only when the corresponding pass ran.
	StatChecksElim    = "sw_checks_eliminated" // removed as dominated-redundant (rce)
	StatChecksHoisted = "sw_checks_hoisted"    // replaced by preheader range checks (hoist)
	StatChecksAffine  = "sw_checks_affine"     // replaced by affine endpoint checks (affine)
	StatChecksChop    = "sw_checks_chop"       // consolidated into convex-hull checks (chop)
)

// StatKeys lists every static codegen statistic key in reporting order.
func StatKeys() []string {
	return []string{
		StatHWChecks, StatSWChecks, StatChecksElim, StatChecksHoisted,
		StatChecksAffine, StatChecksChop, StatSegments, StatLocalArrays,
	}
}

type compiler struct {
	cfg   Config
	strat strategy
	// segRegs is the validated segment-register budget.
	segRegs []x86seg.SegReg
	// stackSeg is the segment register frame accesses go through:
	// normally SS. When SS is in the array-register budget the compiler
	// rewrites stack addressing to DS, as §3.7 prescribes (PUSH/POP are
	// replaced and EBP/ESP references use DS; the two segments are
	// identical flat segments under Linux).
	stackSeg x86seg.SegReg
	src      *minic.Program
	b        *ir.Builder
	data     []byte

	univInfo   uint32                    // Cash: info struct meaning "unchecked"
	boundsPool map[[2]uint32]uint32      // bound-instruction static bounds pairs
	gInfo      map[*minic.VarDecl]uint32 // Cash: global array -> info address
	strLits    []strLit                  // string literals discovered during codegen
	localInfo  map[*minic.VarDecl]int32  // Cash: local array -> info EBP offset

	fn         *minic.FuncDecl
	fa         *funcAnalysis
	frameOff   map[*minic.VarDecl]int32
	loopCtxFor map[minic.Stmt]*loopCtx
	loops      []*loopCtx
	inLoop     int
	breakLbl   []string
	contLbl    []string
	epilogue   string
	labelSeq   int

	// Pass provenance (pipeline.go) and lowering-time candidacy
	// (hoist.go), read by the passes in rce.go, hoist.go, affine.go and
	// chop.go.
	checkSeq   int
	checks     map[int]*checkRec
	deadChecks map[int]bool // check ids removed by a pass
	declID     map[*minic.VarDecl]int
	addrTaken  map[*minic.VarDecl]bool
	hoistCands []*hoistCand
	fns        []*fnState
	curFn      *fnState

	stats map[string]uint64
}

type strLit struct {
	addr uint32
	len  uint32 // including NUL
	info uint32 // Cash info struct address (0 in other modes)
}

// loopCtx is the active outermost-loop segment assignment.
type loopCtx struct {
	info    *loopInfo
	relSlot map[*minic.VarDecl]int32 // EBP offset of hoisted (p - lower)
	lowSlot map[*minic.VarDecl]int32 // EBP offset of hoisted lower bound
}

func (c *compiler) lbl(prefix string) string {
	c.labelSeq++
	return fmt.Sprintf(".%s%d", prefix, c.labelSeq)
}

// allocData reserves n bytes in the data image with the given alignment
// and returns the linear address.
func (c *compiler) allocData(n, align uint32) uint32 {
	for uint32(len(c.data))%align != 0 {
		c.data = append(c.data, 0)
	}
	addr := DataBase + uint32(len(c.data))
	c.data = append(c.data, make([]byte, n)...)
	return addr
}

func (c *compiler) writeWord(addr uint32, v uint32) {
	off := addr - DataBase
	c.data[off] = byte(v)
	c.data[off+1] = byte(v >> 8)
	c.data[off+2] = byte(v >> 16)
	c.data[off+3] = byte(v >> 24)
}

func (c *compiler) slotSize(t *minic.Type) int32 {
	switch t.Kind {
	case minic.TypePointer:
		return c.strat.ptrWords() * 4
	case minic.TypeArray:
		return int32((t.Size() + 3) &^ 3)
	default:
		return 4
	}
}

// layoutGlobals places globals (with Cash info structures preceding each
// array, §3.2), applies constant initialisers, and creates the universal
// "unchecked" info structure.
func (c *compiler) layoutGlobals() error {
	c.strat.layoutUniverse(c)
	for _, g := range c.src.Globals {
		if len(c.data)+g.Type.Size() > MaxDataImage {
			return fmt.Errorf("global %q: static data exceeds %d bytes", g.Name, MaxDataImage)
		}
		if g.Type.Kind == minic.TypeArray {
			c.strat.globalArrayInfo(c, g)
		}
		g.Addr = c.allocData(uint32(c.slotSize(g.Type)), 4)
		if err := c.initGlobal(g); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) initGlobal(g *minic.VarDecl) error {
	constVal := func(e minic.Expr) (int32, error) {
		v, ok := constEval(e)
		if !ok {
			return 0, fmt.Errorf("global %q: initialiser must be a constant expression", g.Name)
		}
		return v, nil
	}
	switch {
	case g.InitStr != "":
		off := g.Addr - DataBase
		copy(c.data[off:], g.InitStr)
	case g.InitList != nil:
		elem := uint32(g.Type.Elem.Size())
		for i, e := range g.InitList {
			v, err := constVal(e)
			if err != nil {
				return err
			}
			addr := g.Addr + uint32(i)*elem
			if elem == 1 {
				c.data[addr-DataBase] = byte(v)
			} else {
				c.writeWord(addr, uint32(v))
			}
		}
	case g.Init != nil:
		v, err := constVal(g.Init)
		if err != nil {
			return err
		}
		if g.Type.Kind == minic.TypePointer {
			if v != 0 {
				return fmt.Errorf("global pointer %q: only 0 initialiser supported", g.Name)
			}
			c.writeWord(g.Addr, 0)
			c.strat.staticPointerMeta(c, g.Addr)
		} else if g.Type == minic.Char {
			c.data[g.Addr-DataBase] = byte(v)
		} else {
			c.writeWord(g.Addr, uint32(v))
		}
	default:
		if g.Type.Kind == minic.TypePointer {
			c.strat.staticPointerMeta(c, g.Addr)
		}
	}
	return nil
}

// internString places a string literal in the data image (once per
// occurrence) and, in Cash mode, gives it an info structure so a segment
// can cover it like any other static array.
func (c *compiler) internString(s *minic.StringLit) strLit {
	n := uint32(len(s.Value)) + 1
	lit := strLit{len: n}
	c.strat.stringInfo(c, &lit)
	lit.addr = c.allocData(n, 1)
	copy(c.data[lit.addr-DataBase:], s.Value)
	s.Addr = lit.addr
	c.strLits = append(c.strLits, lit)
	return lit
}

// genTrap emits the shared software-bound-violation sink.
func (c *compiler) genTrap() {
	c.b.BeginFragment(trapFragment)
	c.b.Label("__bounds_trap")
	c.b.Emit(vm.Instr{Op: vm.TRAP, Sym: "software array bound violation"})
}

// genStartup emits the process entry stub: mode set-up (Cash: call gate
// and segments for global arrays and string literals, §3.4), the call to
// main, and exit. The program entry point is the fragment start,
// recomputed at emission so passes may grow or shrink earlier fragments.
func (c *compiler) genStartup() {
	c.b.BeginFragment(startupFragment)
	c.b.Label("__start")
	c.strat.emitStartupAllocs(c)
	c.b.Call("main")
	c.b.Op(vm.MOV, vm.R(vm.EBX), vm.R(vm.EAX))
	c.b.Op(vm.MOV, vm.R(vm.EAX), vm.I(vm.SysExit))
	c.b.Emit(vm.Instr{Op: vm.INT, Src: vm.I(0x80)})
	c.b.Emit(vm.Instr{Op: vm.HLT})
}

// emitGateAlloc emits a cash_modify_ldt call-gate invocation allocating a
// segment: EBX=base (operand), ECX=size, EDX=info address (operand).
func (c *compiler) emitGateAlloc(base vm.Operand, size int32, info vm.Operand) {
	c.b.Op(vm.MOV, vm.R(vm.EAX), vm.I(vm.GateAllocSegment))
	if base.Kind == vm.KindMem {
		c.b.Op(vm.LEA, vm.R(vm.EBX), base)
	} else {
		c.b.Op(vm.MOV, vm.R(vm.EBX), base)
	}
	c.b.Op(vm.MOV, vm.R(vm.ECX), vm.I(size))
	if info.Kind == vm.KindMem {
		c.b.Op(vm.LEA, vm.R(vm.EDX), info)
	} else {
		c.b.Op(vm.MOV, vm.R(vm.EDX), info)
	}
	c.b.Emit(vm.Instr{Op: vm.LCALL, Src: vm.I(7)})
}

// constEval folds constant integer expressions (literals and arithmetic
// over them), used for global initialisers.
func constEval(e minic.Expr) (int32, bool) {
	switch e := e.(type) {
	case *minic.NumberLit:
		return e.Value, true
	case *minic.Unary:
		v, ok := constEval(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case "-":
			return -v, true
		case "~":
			return ^v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *minic.Binary:
		x, ok := constEval(e.X)
		if !ok {
			return 0, false
		}
		y, ok := constEval(e.Y)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case "+":
			return x + y, true
		case "-":
			return x - y, true
		case "*":
			return x * y, true
		case "/":
			if y == 0 {
				return 0, false
			}
			return x / y, true
		case "%":
			if y == 0 {
				return 0, false
			}
			return x % y, true
		case "<<":
			return x << (uint32(y) & 31), true
		case ">>":
			return x >> (uint32(y) & 31), true
		case "&":
			return x & y, true
		case "|":
			return x | y, true
		case "^":
			return x ^ y, true
		}
		return 0, false
	default:
		return 0, false
	}
}
