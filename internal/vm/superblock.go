package vm

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"cash/internal/x86seg"
)

// Tier-2 execution: superblock compilation.
//
// The predecoded engine (predecode.go) still pays per-instruction costs
// on every step: the dispatch load, the cycle/note accounting, and one
// or two nested closure calls per operand. Tier 2 removes them for hot
// code, and hot code is loops, which tier 2 finds in the code itself:
// every backward jump closes one, and its region runs from the jump's
// target through the farthest backward jump to it (findLoops). These
// are the jumps the code generator notes as loop back-edges, so the
// program carries no region list. buildTrace turns each region into a
// superblock — a single-entry, multi-exit straight-line trace — and
// compiles every trace instruction into one flat micro-op with the
// operand shapes resolved at build time. The run loop (superblock.run)
// interprets the micro-ops with the register file, the compare flags
// and the hardware-check tally held in host locals, translates memory
// references through the MMU's precomputed fast path
// (x86seg.QuickRef), and accumulates Instructions, cycles and
// note-derived counters in bulk from prefix sums — one reconciliation
// per superblock exit instead of per instruction.
//
// The deopt contract: a superblock is entered only when the interpreter
// is exactly at its head and a whole pass fits under nextStop. Every
// exit — a taken side branch, a fault, a loop leaving through its
// condition — writes the local register file and flags back to the
// machine, reconciles the counters for precisely the instructions
// retired (faulting instruction included, matching the interpreter's
// charge-before-execute order) and leaves m.ip at the precise
// instruction boundary, so the step interpreter resumes (or the fault
// reports) exactly as if every instruction had been single-stepped.
// Dynamic per-access counters (HWChecks, PageWalks, SegRegLoads,
// BoundInstrs, and BOUND's SWChecks) are tallied per access — they
// depend on run-time segment-register contents and cannot be
// prefix-summed. Simulated output, counters, violation verdicts and
// fault identities are byte-identical to step execution; the
// equivalence tests and the differential fuzzer pin this.

// region is a superblock candidate: a half-open instruction index
// range. The primary regions are the program's loops (findLoops);
// buildTable adds secondary ones at in-region jump targets, and at the
// callee entry and return continuation of each CALL that ends a
// compiled trace. Execution is correct with any regions at all.
type region struct {
	Start int
	End   int
	Name  string
}

// findLoops derives a program's primary regions from its code. Every
// backward jump (JMP or conditional, target t at or before the jump)
// closes a loop headed at t, whose region is [t, j+1) for the farthest
// such jump j. The regions come in ascending head order, each named
// after its enclosing function and the label at its head.
func findLoops(p *Program) []region {
	ends := make([]int, len(p.Instrs))
	for j := range p.Instrs {
		in := &p.Instrs[j]
		if (in.Op == JMP || isCondJump(in.Op)) && in.Target >= 0 && in.Target <= j {
			ends[in.Target] = j + 1
		}
	}
	var rs []region
	for t, end := range ends {
		if end == 0 {
			continue
		}
		name := p.funcAt(t)
		if l := p.Instrs[t].Label; l != "" {
			name = strings.TrimPrefix(name+"/"+l, "/")
		}
		rs = append(rs, region{Start: t, End: end, Name: name})
	}
	return rs
}

// funcAt names the function whose code holds instruction i: the Funcs
// entry with the greatest index at or before i ("" for none).
func (p *Program) funcAt(i int) string {
	name, at := "", -1
	for f, e := range p.Funcs {
		if e <= i && e > at {
			name, at = f, e
		}
	}
	return name
}

// Micro-op kinds. Register-or-immediate source operands share one
// encoding: the operand value is r[src] + imm2, with src pointing at
// the always-zero register slot (uZero) for pure immediates — no branch
// on operand kind survives into the run loop. A kind exists only for a
// shape the shipped traffic dispatches (TestUopMix in internal/bench
// checks that each one does); every other shape, narrow ALU and compare
// memory operands included, runs as uGen. Memory operands of the ALU,
// read-modify-write and compare kinds are 4 bytes.
const (
	uMov   uint8 = iota // r[dst] = r[src] + imm2
	uLea                // r[dst] = ea
	uLoad1              // r[dst] = zext mem[ea]
	uLoad4
	uStore1 // mem[ea] = trunc(r[src] + imm2)
	uStore4
	uAdd // r[dst] += r[src] + imm2
	uSub // r[dst] -= r[src] + imm2
	uMul // r[dst] = int32 mul
	uAnd // r[dst] &= r[src] + imm2
	uOr
	uXor
	uShl  // r[dst] <<= (r[src]+imm2) & 31
	uSar  // arithmetic
	uAddM // r[dst] += load(mem)
	uSubM
	uMulM
	uAluRMW // mem = fn(load(mem), r[src]+imm2), two translations
	uAddRMW // uAluRMW specialized to ADD (no indirect call)
	uDiv    // r[dst] = int32 quotient; zero divisor faults
	uMod
	uNeg
	uCmpJ // flags from r[dst] vs r[src]+imm2, consuming the conditional jump after it
	uJmp  // unconditional: taken path only
	uJE   // conditional jumps: a fused compare consumes them through cond
	uJNE
	uJL
	uJLE
	uJG
	uJGE
	uJB
	uJAE
	uJA
	uJBE
	uPush   // push r[src]+imm2 through the stack reference
	uPop    // pop into r[dst]
	uCall   // trace-final CALL: push the return address (imm2), exit to tgt
	uRet    // trace-final RET: pop the return address and exit to it
	uCmpRMJ // flags from r[dst] vs load(mem), consuming the conditional jump after it

	// Superops: the head micro-op of one of the code generator's idioms
	// (see fuseIdioms). Its fast path retires the whole idiom in one
	// dispatch; when an access misses the stack window it runs as its
	// original kind (orig) instead. "F" marks a frame slot: a 4-byte
	// operand at EBP+disp with no index register.
	uPostInc  // Load4F; Mov; Add; Store4F back to the same slot
	uPostIncJ // uPostInc; Jmp
	uLdCmpJ   // Load4F; CmpJ; Jcc
	uLdCmpRMJ // Load4F; CmpRMJ against a frame slot; Jcc
	uMovCmpJ  // Mov; CmpJ; Jcc
	uPushLd   // Push; Load4F
	uPopMul   // Pop; Mul
	uAddMShl  // AddMF; Shl
	uMulMAddM // MulMF; AddMF
	uRMWLd    // AddRMWF; Load4F of the same slot

	uGen // fall back to the predecoded closure for this instruction

	numUKinds
)

// uopNames names every micro-op kind, for DumpSuperblocks and the
// sbstats dispatch mix.
var uopNames = [numUKinds]string{
	uMov: "mov", uLea: "lea", uLoad1: "load1", uLoad4: "load4",
	uStore1: "store1", uStore4: "store4",
	uAdd: "add", uSub: "sub", uMul: "mul", uAnd: "and", uOr: "or", uXor: "xor",
	uShl: "shl", uSar: "sar",
	uAddM: "addm", uSubM: "subm", uMulM: "mulm",
	uAluRMW: "alurmw", uAddRMW: "addrmw", uDiv: "div", uMod: "mod",
	uNeg: "neg", uCmpJ: "cmpj", uJmp: "jmp",
	uJE: "je", uJNE: "jne", uJL: "jl", uJLE: "jle", uJG: "jg", uJGE: "jge",
	uJB: "jb", uJAE: "jae", uJA: "ja", uJBE: "jbe",
	uPush: "push", uPop: "pop", uCall: "call", uRet: "ret", uCmpRMJ: "cmprmj",
	uPostInc:  "load4f+mov+add+store4f",
	uPostIncJ: "load4f+mov+add+store4f+jmp",
	uLdCmpJ:   "load4f+cmpj",
	uLdCmpRMJ: "load4f+cmprmj",
	uMovCmpJ:  "mov+cmpj",
	uPushLd:   "push+load4f",
	uPopMul:   "pop+mul",
	uAddMShl:  "addmf+shl",
	uMulMAddM: "mulmf+addmf",
	uRMWLd:    "addrmwf+load4f",
	uGen:      "gen",
}

// isSuperop reports whether a micro-op kind is an idiom head.
func isSuperop(kind uint8) bool { return kind >= uPostInc && kind <= uRMWLd }

// uZero is the index of the always-zero slot in the run loop's local
// register file. The file is sized 16 so every register field can be
// masked with &15, which proves the bounds to the compiler; slots
// NumRegs..15 are never written and read as zero.
const uZero = 8

// uop is one compiled trace instruction. Fields are interpreted per
// kind; unused fields are zero. For memory operands ea = r[base] +
// r[idx]*scale + imm, with base/idx = uZero when absent.
type uop struct {
	kind  uint8
	dst   uint8
	src   uint8
	base  uint8
	idx   uint8
	seg   uint8 // x86seg.SegReg of the memory operand
	orig  uint8 // a superop head's own kind, run when its fast path refuses
	scale uint32
	imm   uint32 // memory displacement
	imm2  uint32 // reg-or-imm source: operand = r[src] + imm2
	tgt   int32  // branch taken: exit ip, or -1 = back edge to head
	fall  int32  // branch not taken: exit ip, or -1 = continue in trace
	fn    func(a, b uint32) uint32
	gen   execFn
}

// superblock is one compiled trace.
type superblock struct {
	name    string
	head    int // instruction index of the trace entry
	n       int // trace length in instructions
	uops    []uop
	looping bool // last instruction branches back to head: multi-pass execution

	// Prefix sums over the trace, indexed by instructions retired
	// (cost[k] = total for the first k instructions), so one flush per
	// exit reconciles every bulk-accounted counter exactly.
	cost []uint64
	sw   []uint64 // NoteSWCheck
	li   []uint64 // NoteLoopBackedge + NoteSpilledBackedge
	si   []uint64 // NoteSpilledBackedge
}

// sbTable is the compiled tier-2 form of a program: superblocks indexed
// by head instruction, shared (like the predecoded form) by every
// machine running the program.
type sbTable struct {
	heads []*superblock // len(prog.Instrs); nil = no superblock here
	list  []*superblock // in selection order, for DumpSuperblocks
}

// superblocks returns the program's compiled superblock table, building
// it over the program's loops on first use. Safe for concurrent
// machines, like compiledProgram.
func (p *Program) superblocks() *sbTable {
	p.sb.once.Do(func() { p.sb.t = buildTable(p, findLoops(p)) })
	return p.sb.t
}

// buildTable compiles a trace for each primary region, in order, and
// the secondary traces each one leads to; the first trace at a head
// wins.
func buildTable(p *Program, primary []region) *sbTable {
	t := &sbTable{heads: make([]*superblock, len(p.Instrs))}
	add := func(r region) *superblock {
		sb := buildTrace(p, r)
		if sb == nil || t.heads[sb.head] != nil {
			return nil
		}
		t.heads[sb.head] = sb
		t.list = append(t.list, sb)
		return sb
	}
	type item struct {
		sb *superblock
		r  region
	}
	for _, r := range primary {
		sb := add(r)
		if sb == nil {
			continue
		}
		// A trace follows the fall-through path, so every taken
		// in-region branch would exit to the step interpreter for the
		// rest of the loop body. Compile secondary traces at those
		// side-exit targets (and at in-region jump joins) so off-trace
		// paths land back on compiled code. A trace that ends in a
		// CALL gets traces at the callee's entry (its region spans the
		// rest of the program: code generators never jump between
		// functions) and at the return continuation, so a call in a
		// hot loop stays on compiled code. The worklist closes over
		// the targets the new traces expose in turn.
		work := []item{{sb, r}}
		for len(work) > 0 {
			cur := work[0]
			work = work[1:]
			push := func(r region) {
				if s2 := add(r); s2 != nil {
					work = append(work, item{s2, r})
				}
			}
			if last := &p.Instrs[cur.sb.head+cur.sb.n-1]; last.Op == CALL {
				ret := cur.sb.head + cur.sb.n
				push(region{Name: last.Sym, Start: last.Target, End: len(p.Instrs)})
				push(region{Name: fmt.Sprintf("%s+%d", cur.r.Name, ret-cur.r.Start), Start: ret, End: cur.r.End})
			}
			for k := 0; k < cur.sb.n; k++ {
				in := &p.Instrs[cur.sb.head+k]
				if in.Op != JMP && !isCondJump(in.Op) {
					continue
				}
				tgt := in.Target
				if tgt <= cur.r.Start || tgt >= cur.r.End || t.heads[tgt] != nil {
					continue
				}
				push(region{
					Name:  fmt.Sprintf("%s+%d", cur.r.Name, tgt-cur.r.Start),
					Start: tgt,
					End:   cur.r.End,
				})
			}
		}
	}
	if len(t.list) > 0 {
		mSBCompiled.Add(uint64(len(t.list)))
	}
	return t
}

// sbTraceable reports whether an op may appear inside a trace. System
// entries run variable-cost services; TRAP always faults; HLT ends the
// run — all of them stay on the step interpreter. CALL and RET end a
// trace: their target is the next trace's head.
func sbTraceable(op Op) bool {
	switch op {
	case INT, LCALL, HCALL, HLT, TRAP:
		return false
	}
	return op < numOps
}

// sbMinLen is the shortest trace worth compiling: below this the entry
// and flush overhead cancels the dispatch savings.
const sbMinLen = 2

// buildTrace selects and compiles the trace for one candidate region:
// the longest straight-line prefix of [Start, End) — an unconditional
// jump, a call or a return terminates the trace (it is included; a
// jump's target decides whether the trace loops), an untraceable op
// stops before itself.
func buildTrace(p *Program, r region) *superblock {
	start, end := r.Start, r.End
	if start < 0 || end > len(p.Instrs) || start >= end {
		return nil
	}
	i := start
	for i < end {
		op := p.Instrs[i].Op
		if !sbTraceable(op) {
			break
		}
		i++
		if op == JMP || op == CALL || op == RET {
			break
		}
	}
	n := i - start
	if n < sbMinLen {
		return nil
	}
	sb := &superblock{
		name: r.Name,
		head: start,
		n:    n,
		uops: make([]uop, n),
		cost: make([]uint64, n+1),
		sw:   make([]uint64, n+1),
		li:   make([]uint64, n+1),
		si:   make([]uint64, n+1),
	}
	trace := p.Instrs[start:i]
	for k := range trace {
		in := &trace[k]
		sb.cost[k+1] = sb.cost[k] + in.baseCost()
		sb.sw[k+1] = sb.sw[k]
		sb.li[k+1] = sb.li[k]
		sb.si[k+1] = sb.si[k]
		switch in.Note {
		case NoteSWCheck:
			sb.sw[k+1]++
		case NoteLoopBackedge:
			sb.li[k+1]++
		case NoteSpilledBackedge:
			sb.li[k+1]++
			sb.si[k+1]++
		}
		sb.uops[k] = buildUop(trace, k, start)
	}
	last := &trace[n-1]
	sb.looping = (last.Op == JMP || isCondJump(last.Op)) && last.Target == start
	fuseIdioms(sb.uops)
	return sb
}

// fuseIdioms turns the head of each code-generator idiom into a superop.
// Only the head's kind changes (its own kind moves to orig): every
// component micro-op stays in place, so k still indexes instructions,
// and the prefix sums, side exits and flush need no change. A superop's
// fast path applies only when every memory access of the idiom hits the
// stack window, which is never LDT and never faults, so the idiom
// retires whole; otherwise the head runs as orig and dispatch goes on
// through the components, whose arms handle faults, hardware-check
// tallies and slow paths. The matchers therefore only accept idioms
// whose every address is computable at the head: no component before an
// access writes a register that access reads.
func fuseIdioms(us []uop) {
	for k := 0; k < len(us); {
		kind, n := matchIdiom(us[k:])
		if n == 0 {
			k++
			continue
		}
		us[k].orig, us[k].kind = us[k].kind, kind
		k += n
	}
}

// matchIdiom returns the superop kind and length of the idiom heading
// us, or n == 0.
func matchIdiom(us []uop) (kind uint8, n int) {
	h := &us[0]
	next := func(i int, kind uint8) *uop {
		if i < len(us) && us[i].kind == kind {
			return &us[i]
		}
		return nil
	}
	switch h.kind {
	case uLoad4:
		if !h.frameSlot() || h.dst == uint8(EBP) {
			return
		}
		mv, add, st := next(1, uMov), next(2, uAdd), next(3, uStore4)
		if mv != nil && add != nil && st != nil && st.sameSlot(h) &&
			mv.dst != uint8(EBP) && add.dst != uint8(EBP) {
			if next(4, uJmp) != nil {
				return uPostIncJ, 5
			}
			return uPostInc, 4
		}
		if next(1, uCmpJ) != nil {
			return uLdCmpJ, 3
		}
		if c := next(1, uCmpRMJ); c != nil && c.frameSlot() {
			return uLdCmpRMJ, 3
		}
	case uMov:
		if next(1, uCmpJ) != nil {
			return uMovCmpJ, 3
		}
	case uPush:
		if ld := next(1, uLoad4); ld != nil && ld.frameSlot() {
			return uPushLd, 2
		}
	case uPop:
		if next(1, uMul) != nil {
			return uPopMul, 2
		}
	case uAddM:
		if h.frameSlot() && next(1, uShl) != nil {
			return uAddMShl, 2
		}
	case uMulM:
		if a := next(1, uAddM); h.frameSlot() && h.dst != uint8(EBP) && a != nil && a.frameSlot() {
			return uMulMAddM, 2
		}
	case uAddRMW:
		if ld := next(1, uLoad4); h.frameSlot() && ld != nil && ld.sameSlot(h) {
			return uRMWLd, 2
		}
	}
	return 0, 0
}

// frameSlot reports whether a memory micro-op addresses a frame slot:
// an EBP base and no index register. Every memory kind an idiom matches
// is 4 bytes wide.
func (u *uop) frameSlot() bool {
	return u.base == uint8(EBP) && u.idx == uZero
}

// sameSlot reports whether two frame-slot micro-ops address one slot.
func (u *uop) sameSlot(v *uop) bool {
	return u.frameSlot() && v.frameSlot() && u.seg == v.seg && u.imm == v.imm
}

func isCondJump(op Op) bool {
	return op >= JE && op <= JBE
}

// memFields encodes a memory operand into the uop's ea fields.
func memFields(u *uop, ref MemRef) {
	u.seg = uint8(ref.Seg)
	u.base, u.idx, u.scale = uZero, uZero, 0
	u.imm = uint32(ref.Disp)
	if ref.HasBase {
		u.base = uint8(ref.Base) & 15
	}
	if ref.HasIndex {
		u.idx = uint8(ref.Index) & 15
		u.scale = uint32(ref.Scale)
		if u.scale == 0 {
			u.scale = 1
		}
	}
}

// srcFields encodes a register-or-immediate operand into src/imm2 so
// the run loop evaluates it uniformly as r[src] + imm2. Reports whether
// the operand had one of the two kinds.
func srcFields(u *uop, o Operand) bool {
	switch o.Kind {
	case KindReg:
		u.src, u.imm2 = uint8(o.Reg)&15, 0
		return true
	case KindImm:
		u.src, u.imm2 = uZero, uint32(o.Imm)
		return true
	}
	return false
}

// buildUop compiles trace[k], the instruction at index head+k, into a
// micro-op. Anything without a specialized arm falls back to its
// generic predecoded closure (uGen), which the run loop brackets with
// full machine-state writeback/reload.
func buildUop(trace []Instr, k, head int) uop {
	in := &trace[k]
	self, last := head+k, k == len(trace)-1
	// The interpreter reads every memory operand of any other size as 4
	// bytes (compileLoad), so only 1 and 2 are narrow.
	wide := in.Size != 1 && in.Size != 2
	u := uop{kind: uGen, src: uZero, base: uZero, idx: uZero}

	switch in.Op {
	case MOV:
		switch {
		case in.Dst.Kind == KindReg && srcFields(&u, in.Src):
			u.kind, u.dst = uMov, uint8(in.Dst.Reg)&15
			return u
		case in.Dst.Kind == KindReg && in.Src.Kind == KindMem && in.Size != 2:
			u.kind, u.dst = uLoad4, uint8(in.Dst.Reg)&15
			if in.Size == 1 {
				u.kind = uLoad1
			}
			memFields(&u, in.Src.Mem)
			return u
		case in.Dst.Kind == KindMem && in.Size != 2 && srcFields(&u, in.Src):
			u.kind = uStore4
			if in.Size == 1 {
				u.kind = uStore1
			}
			memFields(&u, in.Dst.Mem)
			return u
		}

	case LEA:
		if in.Dst.Kind == KindReg && in.Src.Kind == KindMem {
			u.kind, u.dst = uLea, uint8(in.Dst.Reg)&15
			memFields(&u, in.Src.Mem)
			return u
		}

	case ADD, SUB, IMUL, AND, OR, XOR, SHL, SHR, SAR:
		switch {
		case in.Dst.Kind == KindReg && in.Op != SHR && srcFields(&u, in.Src):
			u.dst = uint8(in.Dst.Reg) & 15
			switch in.Op {
			case ADD:
				u.kind = uAdd
			case SUB:
				u.kind = uSub
			case IMUL:
				u.kind = uMul
			case AND:
				u.kind = uAnd
			case OR:
				u.kind = uOr
			case XOR:
				u.kind = uXor
			case SHL:
				u.kind = uShl
			default: // SAR
				u.kind = uSar
			}
			return u
		case in.Dst.Kind == KindReg && in.Src.Kind == KindMem && wide &&
			(in.Op == ADD || in.Op == SUB || in.Op == IMUL):
			u.dst = uint8(in.Dst.Reg) & 15
			memFields(&u, in.Src.Mem)
			switch in.Op {
			case ADD:
				u.kind = uAddM
			case SUB:
				u.kind = uSubM
			default: // IMUL
				u.kind = uMulM
			}
			return u
		case in.Dst.Kind == KindMem && wide && srcFields(&u, in.Src):
			// Read-modify-write: two translations, read then write, in
			// the interpreter's order, so fault identity and the
			// HWChecks double-count for LDT segments are preserved.
			if in.Op == ADD {
				u.kind = uAddRMW
			} else {
				u.kind, u.fn = uAluRMW, aluFn(in.Op)
			}
			memFields(&u, in.Dst.Mem)
			return u
		}

	case IDIV, IMOD:
		if in.Dst.Kind == KindReg && srcFields(&u, in.Src) {
			u.dst = uint8(in.Dst.Reg) & 15
			if in.Op == IMOD {
				u.kind = uMod
			} else {
				u.kind = uDiv
			}
			return u
		}

	case NEG:
		if in.Dst.Kind == KindReg {
			u.kind, u.dst = uNeg, uint8(in.Dst.Reg)&15
			return u
		}

	case CMP:
		// A compare is specialized only fused with the conditional jump
		// after it: the jump micro-op stays in place (its slot carries the
		// branch targets and keeps the retired-instruction accounting
		// one-to-one), but the compare consumes it in a single dispatch.
		if !last && isCondJump(trace[k+1].Op) && in.Dst.Kind == KindReg {
			u.dst = uint8(in.Dst.Reg) & 15
			switch {
			case srcFields(&u, in.Src):
				u.kind = uCmpJ
				return u
			case in.Src.Kind == KindMem && wide:
				u.kind = uCmpRMJ
				memFields(&u, in.Src.Mem)
				return u
			}
		}

	case JMP:
		u.kind = uJmp
		if in.Target == head {
			u.tgt = -1 // back edge
		} else {
			u.tgt = int32(in.Target)
		}
		return u

	case JE, JNE, JL, JLE, JG, JGE, JB, JAE, JA, JBE:
		u.kind = uJE + uint8(in.Op-JE)
		// Taken: a side exit to the target — except the trace-final back
		// edge, which continues the next pass. Not taken: fall through in
		// the trace — except at the trace end, where it is the exit that
		// leaves the loop.
		u.tgt, u.fall = int32(in.Target), -1
		if last {
			u.fall = int32(self + 1)
			if in.Target == head {
				u.tgt = -1
			}
		}
		return u

	case PUSH:
		if srcFields(&u, in.Src) {
			u.kind = uPush
			return u
		}

	case CALL:
		u.kind, u.imm2, u.tgt = uCall, uint32(self+1), int32(in.Target)
		return u

	case RET:
		u.kind = uRet
		return u

	case POP:
		if in.Dst.Kind == KindReg {
			u.kind, u.dst = uPop, uint8(in.Dst.Reg)&15
			return u
		}
	}

	// Everything else (MOVSR, MOVRS, BOUND, unfused compares, narrow
	// memory operands, odd operand shapes) runs its generic predecoded
	// closure with machine state written back around it; the closure
	// maintains m.ip itself, so the run loop treats any ip other than
	// self+1 as a side exit.
	u.gen = compileInstr(in)
	return u
}

// flush reconciles the bulk-accounted counters for `passes` complete
// passes plus `partial` instructions of the current pass.
func (sb *superblock) flush(m *Machine, passes uint64, partial int) {
	n := uint64(sb.n)
	retired := passes*n + uint64(partial)
	m.stats.Instructions += retired
	m.cycles += passes*sb.cost[sb.n] + sb.cost[partial]
	m.stats.SWChecks += passes*sb.sw[sb.n] + sb.sw[partial]
	m.stats.LoopIters += passes*sb.li[sb.n] + sb.li[partial]
	m.stats.SpilledIters += passes*sb.si[sb.n] + sb.si[partial]
	m.sbRetired += retired
}

// segWindows is the per-segment fast-path state the run loop keeps in a
// host-stack struct: thresholds that fold the segment limit check and
// the dense-arena bounds check into one unsigned compare per access.
// Recomputed at superblock entry and after every generic micro-op — the
// only points at which a segment register or the machine's memory mode
// can change under a trace. Every threshold is zero on non-plain
// machines, so the fused paths never bypass paging or tracing; they are
// also conservative (4-byte thresholds guard smaller accesses), and any
// access they decline takes the exact architectural path instead.
type segWindows struct {
	base  [8]uint32 // segment base
	ldt   [8]bool   // references count as hardware bound checks
	loR   [8]uint32 // ea < loR: read limit ok and base+ea inside the lo arena
	wOK   [8]uint32 // ea < wOK: write limit ok (the store still checks the arena)
	hiDel [8]uint32 // ea-hiDel < hiLen: read limit ok and inside the hi arena
	hiLen [8]uint32
}

func (m *Machine) sbWindows() (w segWindows) {
	if !m.plain {
		return
	}
	_, _, lo4, hiBase, hi4 := m.memory.DenseWindows()
	for s := 0; s < x86seg.NumSegRegs; s++ {
		base, qr, qw, ldt := m.mmu.QuickState(x86seg.SegReg(s))
		w.base[s] = base
		w.ldt[s] = ldt
		if qw > 0xffffffff {
			qw = 0xffffffff
		}
		w.wOK[s] = uint32(qw)
		if base < lo4 {
			if lim := uint64(lo4 - base); qr < lim {
				w.loR[s] = uint32(qr)
			} else {
				w.loR[s] = lo4 - base
			}
		}
		// The hi (stack) window is only fused for base-0 non-LDT segments
		// wholly under the read limit, so the fused path never needs a
		// hardware-check count or a partial-window edge case.
		if base == 0 && !ldt && hi4 > 0 && uint64(hiBase)+uint64(hi4) <= qr {
			w.hiDel[s] = hiBase
			w.hiLen[s] = hi4
		}
	}
	return
}

// run interprets the superblock's micro-ops from its head. The caller
// guarantees m.ip == sb.head and that one whole pass fits under
// m.nextStop; a looping trace keeps iterating while further passes fit,
// so the step-limit and cancellation boundaries are always reached by
// the interpreter, never mid-block.
//
// Machine state lives in host locals for the duration: the register
// file (r, with uZero..15 pinned to zero), the compare flags, the LDT
// hardware-check tally and the stack window's low-water dirty mark
// (hid) for stores written straight into the window. Every exit path
// writes them back before flushing the prefix-summed counters. Generic
// micro-ops (uGen) and fault construction see fully reconciled machine
// state.
func (sb *superblock) run(m *Machine) error {
	var (
		r      [16]uint32
		eq     bool
		lt     bool
		below  bool
		taken  bool
		hw     uint64
		passes uint64
		k      int
		err    error
		u      *uop
		op     uint8
	)
	m.sbEntries++
	budget := m.nextStop - m.stats.Instructions
	n := uint64(sb.n)
	head := sb.head
	sbt := m.sbt
	mmu := m.mmu
	memv := m.memory
	plain := m.plain
	uops := sb.uops
	low, hiw, _, _, _ := memv.DenseWindows()
	hid := uint32(len(hiw))
	if g := mmu.Gen(); g != m.sbwGen {
		m.sbw = m.sbWindows()
		m.sbwGen = g
	}
	w := &m.sbw
	var mix *uopMix
	if SBStatsEnabled {
		mix = m.uopMix()
	}
	copy(r[:NumRegs], m.regs[:])
	eq, lt, below = m.eq, m.lt, m.below

	for {
		k = 0
		for k < len(uops) {
			u = &uops[k]
			op = u.kind
		dispatch:
			if SBStatsEnabled {
				mix.dispatched[op]++
			}
			switch op {
			case uMov:
				r[u.dst&15] = r[u.src&15] + u.imm2

			case uLea:
				r[u.dst&15] = r[u.base&15] + r[u.idx&15]*u.scale + u.imm

			case uLoad4:
				ea := r[u.base&15] + r[u.idx&15]*u.scale + u.imm
				s := u.seg & 7
				if d := ea - w.hiDel[s]; d < w.hiLen[s] {
					r[u.dst&15] = binary.LittleEndian.Uint32(hiw[d:])
				} else if ea < w.loR[s] {
					if w.ldt[s] {
						hw++
					}
					r[u.dst&15] = binary.LittleEndian.Uint32(low[w.base[s]+ea:])
				} else {
					lin, ldt, qok := mmu.QuickRef(x86seg.SegReg(u.seg), ea, 2, false)
					if ldt {
						hw++
					}
					if !qok || !plain {
						m.ip = head + k
						if lin, err = m.translate(x86seg.SegReg(u.seg), ea, 4, false); err != nil {
							goto deopt
						}
					}
					r[u.dst&15] = memv.Read32(lin)
				}

			case uLoad1:
				ea := r[u.base&15] + r[u.idx&15]*u.scale + u.imm
				s := u.seg & 7
				if d := ea - w.hiDel[s]; d < w.hiLen[s] {
					r[u.dst&15] = uint32(hiw[d])
				} else if ea < w.loR[s] {
					if w.ldt[s] {
						hw++
					}
					r[u.dst&15] = uint32(low[w.base[s]+ea])
				} else {
					lin, ldt, qok := mmu.QuickRef(x86seg.SegReg(u.seg), ea, 0, false)
					if ldt {
						hw++
					}
					if !qok || !plain {
						m.ip = head + k
						if lin, err = m.translate(x86seg.SegReg(u.seg), ea, 1, false); err != nil {
							goto deopt
						}
					}
					r[u.dst&15] = uint32(memv.Read8(lin))
				}

			case uStore4:
				ea := r[u.base&15] + r[u.idx&15]*u.scale + u.imm
				s := u.seg & 7
				if d := ea - w.hiDel[s]; d < w.hiLen[s] && ea < w.wOK[s] {
					binary.LittleEndian.PutUint32(hiw[d:], r[u.src&15]+u.imm2)
					if d < hid {
						hid = d
					}
				} else if ea < w.wOK[s] {
					if w.ldt[s] {
						hw++
					}
					lin := w.base[s] + ea
					if !memv.Write32Fast(lin, r[u.src&15]+u.imm2) {
						memv.Write32(lin, r[u.src&15]+u.imm2)
					}
				} else {
					lin, ldt, qok := mmu.QuickRef(x86seg.SegReg(u.seg), ea, 2, true)
					if ldt {
						hw++
					}
					if !qok || !plain {
						m.ip = head + k
						if lin, err = m.translate(x86seg.SegReg(u.seg), ea, 4, true); err != nil {
							goto deopt
						}
					}
					if !memv.Write32Fast(lin, r[u.src&15]+u.imm2) {
						memv.Write32(lin, r[u.src&15]+u.imm2)
					}
				}

			case uStore1:
				ea := r[u.base&15] + r[u.idx&15]*u.scale + u.imm
				s := u.seg & 7
				if ea < w.wOK[s] {
					if w.ldt[s] {
						hw++
					}
					lin := w.base[s] + ea
					if !memv.Write8Fast(lin, uint8(r[u.src&15]+u.imm2)) {
						memv.Write8(lin, uint8(r[u.src&15]+u.imm2))
					}
				} else {
					lin, ldt, qok := mmu.QuickRef(x86seg.SegReg(u.seg), ea, 0, true)
					if ldt {
						hw++
					}
					if !qok || !plain {
						m.ip = head + k
						if lin, err = m.translate(x86seg.SegReg(u.seg), ea, 1, true); err != nil {
							goto deopt
						}
					}
					if !memv.Write8Fast(lin, uint8(r[u.src&15]+u.imm2)) {
						memv.Write8(lin, uint8(r[u.src&15]+u.imm2))
					}
				}

			case uAdd:
				r[u.dst&15] += r[u.src&15] + u.imm2

			case uSub:
				r[u.dst&15] -= r[u.src&15] + u.imm2

			case uMul:
				r[u.dst&15] = uint32(int32(r[u.dst&15]) * int32(r[u.src&15]+u.imm2))

			case uAnd:
				r[u.dst&15] &= r[u.src&15] + u.imm2

			case uOr:
				r[u.dst&15] |= r[u.src&15] + u.imm2

			case uXor:
				r[u.dst&15] ^= r[u.src&15] + u.imm2

			case uShl:
				r[u.dst&15] <<= (r[u.src&15] + u.imm2) & 31

			case uSar:
				r[u.dst&15] = uint32(int32(r[u.dst&15]) >> ((r[u.src&15] + u.imm2) & 31))

			case uAddM, uSubM, uMulM:
				ea := r[u.base&15] + r[u.idx&15]*u.scale + u.imm
				s := u.seg & 7
				var b uint32
				if d := ea - w.hiDel[s]; d < w.hiLen[s] {
					b = binary.LittleEndian.Uint32(hiw[d:])
				} else if ea < w.loR[s] {
					if w.ldt[s] {
						hw++
					}
					b = binary.LittleEndian.Uint32(low[w.base[s]+ea:])
				} else {
					lin, ldt, qok := mmu.QuickRef(x86seg.SegReg(u.seg), ea, 2, false)
					if ldt {
						hw++
					}
					if !qok || !plain {
						m.ip = head + k
						if lin, err = m.translate(x86seg.SegReg(u.seg), ea, 4, false); err != nil {
							goto deopt
						}
					}
					b = memv.Read32(lin)
				}
				switch op {
				case uAddM:
					r[u.dst&15] += b
				case uSubM:
					r[u.dst&15] -= b
				default: // uMulM
					r[u.dst&15] = uint32(int32(r[u.dst&15]) * int32(b))
				}

			case uAluRMW, uAddRMW:
				ea := r[u.base&15] + r[u.idx&15]*u.scale + u.imm
				s := u.seg & 7
				if d := ea - w.hiDel[s]; d < w.hiLen[s] && ea < w.wOK[s] {
					// hi windows are never LDT, so no hardware-check counts.
					a, b := binary.LittleEndian.Uint32(hiw[d:]), r[u.src&15]+u.imm2
					v := a + b
					if op == uAluRMW {
						v = u.fn(a, b)
					}
					binary.LittleEndian.PutUint32(hiw[d:], v)
					if d < hid {
						hid = d
					}
				} else if ea < w.loR[s] && ea < w.wOK[s] {
					if w.ldt[s] {
						hw += 2 // read translation, then write translation
					}
					lin := w.base[s] + ea
					a, b := binary.LittleEndian.Uint32(low[lin:]), r[u.src&15]+u.imm2
					v := a + b
					if op == uAluRMW {
						v = u.fn(a, b)
					}
					if !memv.Write32Fast(lin, v) {
						memv.Write32(lin, v)
					}
				} else {
					lin, ldt, qok := mmu.QuickRef(x86seg.SegReg(u.seg), ea, 2, false)
					if ldt {
						hw++
					}
					if !qok || !plain {
						m.ip = head + k
						if lin, err = m.translate(x86seg.SegReg(u.seg), ea, 4, false); err != nil {
							goto deopt
						}
					}
					a := memv.Read32(lin)
					lin2, ldt2, qok2 := mmu.QuickRef(x86seg.SegReg(u.seg), ea, 2, true)
					if ldt2 {
						hw++
					}
					if !qok2 || !plain {
						m.ip = head + k
						if lin2, err = m.translate(x86seg.SegReg(u.seg), ea, 4, true); err != nil {
							goto deopt
						}
					}
					b := r[u.src&15] + u.imm2
					v := a + b
					if op == uAluRMW {
						v = u.fn(a, b)
					}
					memv.Write32(lin2, v)
				}

			case uDiv, uMod:
				b := r[u.src&15] + u.imm2
				if b == 0 {
					m.ip = head + k
					err = m.fault(FaultDivide, nil)
					goto deopt
				}
				if op == uMod {
					r[u.dst&15] = uint32(int32(r[u.dst&15]) % int32(b))
				} else {
					r[u.dst&15] = uint32(int32(r[u.dst&15]) / int32(b))
				}

			case uNeg:
				r[u.dst&15] = -r[u.dst&15]

			case uCmpJ:
				// Fused compare-and-branch: the flags are still published
				// to the locals (later micro-ops may reread them), but the
				// following conditional-jump micro-op is consumed here,
				// saving one dispatch round per compare/branch pair.
				a, b := r[u.dst&15], r[u.src&15]+u.imm2
				eq = a == b
				lt = int32(a) < int32(b)
				below = a < b
				k++
				u = &uops[k]
				goto cond

			case uCmpRMJ:
				ea := r[u.base&15] + r[u.idx&15]*u.scale + u.imm
				s := u.seg & 7
				var b uint32
				if d := ea - w.hiDel[s]; d < w.hiLen[s] {
					b = binary.LittleEndian.Uint32(hiw[d:])
				} else if ea < w.loR[s] {
					if w.ldt[s] {
						hw++
					}
					b = binary.LittleEndian.Uint32(low[w.base[s]+ea:])
				} else {
					lin, ldt, qok := mmu.QuickRef(x86seg.SegReg(u.seg), ea, 2, false)
					if ldt {
						hw++
					}
					if !qok || !plain {
						m.ip = head + k
						if lin, err = m.translate(x86seg.SegReg(u.seg), ea, 4, false); err != nil {
							goto deopt
						}
					}
					b = memv.Read32(lin)
				}
				a := r[u.dst&15]
				eq = a == b
				lt = int32(a) < int32(b)
				below = a < b
				k++
				u = &uops[k]
				goto cond

			case uJmp:
				taken = true
				goto branch

			case uJE, uJNE, uJL, uJLE, uJG, uJGE, uJB, uJAE, uJA, uJBE:
				goto cond

			case uPush, uCall:
				// Matches Machine.push: the value is read first, and ESP
				// moves before the translation, so a faulting push leaves
				// it decremented. A CALL pushes its return address.
				v := r[u.src&15] + u.imm2
				r[ESP] -= 4
				ea := r[ESP]
				if d := ea - w.hiDel[x86seg.DS]; d < w.hiLen[x86seg.DS] && ea < w.wOK[x86seg.DS] {
					binary.LittleEndian.PutUint32(hiw[d:], v)
					if d < hid {
						hid = d
					}
				} else if ea < w.wOK[x86seg.DS] {
					if w.ldt[x86seg.DS] {
						hw++
					}
					lin := w.base[x86seg.DS] + ea
					if !memv.Write32Fast(lin, v) {
						memv.Write32(lin, v)
					}
				} else {
					lin, ldt, qok := mmu.QuickRef(x86seg.DS, ea, 2, true)
					if ldt {
						hw++
					}
					if !qok || !plain {
						m.ip = head + k
						if lin, err = m.translate(x86seg.DS, ea, 4, true); err != nil {
							goto deopt
						}
					}
					if !memv.Write32Fast(lin, v) {
						memv.Write32(lin, v)
					}
				}
				if op == uCall {
					m.ip = int(u.tgt)
					goto exit
				}

			case uPop, uRet:
				// Matches Machine.pop: ESP moves only after a successful
				// translation. A RET exits to the popped address.
				ea := r[ESP]
				var v uint32
				if d := ea - w.hiDel[x86seg.DS]; d < w.hiLen[x86seg.DS] {
					r[ESP] = ea + 4
					v = binary.LittleEndian.Uint32(hiw[d:])
				} else {
					lin, ldt, qok := mmu.QuickRef(x86seg.DS, ea, 2, false)
					if ldt {
						hw++
					}
					if !qok || !plain {
						m.ip = head + k
						if lin, err = m.translate(x86seg.DS, ea, 4, false); err != nil {
							goto deopt
						}
					}
					r[ESP] += 4
					if fv, fok := memv.Read32Fast(lin); fok {
						v = fv
					} else {
						v = memv.Read32(lin)
					}
				}
				if op == uRet {
					m.ip = int(v)
					goto exit
				}
				r[u.dst&15] = v

			case uPostInc, uPostIncJ:
				ea := r[EBP] + u.imm
				s := u.seg & 7
				if d := ea - w.hiDel[s]; d < w.hiLen[s] && ea < w.wOK[s] {
					r[u.dst&15] = binary.LittleEndian.Uint32(hiw[d:])
					c := &uops[k+1]
					r[c.dst&15] = r[c.src&15] + c.imm2
					c = &uops[k+2]
					r[c.dst&15] += r[c.src&15] + c.imm2
					c = &uops[k+3]
					binary.LittleEndian.PutUint32(hiw[d:], r[c.src&15]+c.imm2)
					if d < hid {
						hid = d
					}
					if SBStatsEnabled {
						mix.fired[op]++
					}
					if op == uPostInc {
						k += 3
						break
					}
					k += 4
					u = &uops[k]
					taken = true
					goto branch
				}
				op = u.orig
				goto dispatch

			case uLdCmpJ:
				ea := r[EBP] + u.imm
				s := u.seg & 7
				if d := ea - w.hiDel[s]; d < w.hiLen[s] {
					r[u.dst&15] = binary.LittleEndian.Uint32(hiw[d:])
					c := &uops[k+1]
					a, b := r[c.dst&15], r[c.src&15]+c.imm2
					eq = a == b
					lt = int32(a) < int32(b)
					below = a < b
					if SBStatsEnabled {
						mix.fired[op]++
					}
					k += 2
					u = &uops[k]
					goto cond
				}
				op = u.orig
				goto dispatch

			case uLdCmpRMJ:
				c := &uops[k+1]
				ea, eb := r[EBP]+u.imm, r[EBP]+c.imm
				s, t := u.seg&7, c.seg&7
				if d, e := ea-w.hiDel[s], eb-w.hiDel[t]; d < w.hiLen[s] && e < w.hiLen[t] {
					r[u.dst&15] = binary.LittleEndian.Uint32(hiw[d:])
					a, b := r[c.dst&15], binary.LittleEndian.Uint32(hiw[e:])
					eq = a == b
					lt = int32(a) < int32(b)
					below = a < b
					if SBStatsEnabled {
						mix.fired[op]++
					}
					k += 2
					u = &uops[k]
					goto cond
				}
				op = u.orig
				goto dispatch

			case uMovCmpJ:
				r[u.dst&15] = r[u.src&15] + u.imm2
				c := &uops[k+1]
				a, b := r[c.dst&15], r[c.src&15]+c.imm2
				eq = a == b
				lt = int32(a) < int32(b)
				below = a < b
				if SBStatsEnabled {
					mix.fired[op]++
				}
				k += 2
				u = &uops[k]
				goto cond

			case uPushLd:
				c := &uops[k+1]
				pa, ea := r[ESP]-4, r[EBP]+c.imm
				s := c.seg & 7
				if d, e := pa-w.hiDel[x86seg.DS], ea-w.hiDel[s]; d < w.hiLen[x86seg.DS] && pa < w.wOK[x86seg.DS] && e < w.hiLen[s] {
					binary.LittleEndian.PutUint32(hiw[d:], r[u.src&15]+u.imm2)
					r[ESP] = pa
					if d < hid {
						hid = d
					}
					r[c.dst&15] = binary.LittleEndian.Uint32(hiw[e:])
					if SBStatsEnabled {
						mix.fired[op]++
					}
					k++
					break
				}
				op = u.orig
				goto dispatch

			case uPopMul:
				ea := r[ESP]
				if d := ea - w.hiDel[x86seg.DS]; d < w.hiLen[x86seg.DS] {
					r[ESP] = ea + 4
					r[u.dst&15] = binary.LittleEndian.Uint32(hiw[d:])
					c := &uops[k+1]
					r[c.dst&15] = uint32(int32(r[c.dst&15]) * int32(r[c.src&15]+c.imm2))
					if SBStatsEnabled {
						mix.fired[op]++
					}
					k++
					break
				}
				op = u.orig
				goto dispatch

			case uAddMShl:
				ea := r[EBP] + u.imm
				s := u.seg & 7
				if d := ea - w.hiDel[s]; d < w.hiLen[s] {
					r[u.dst&15] += binary.LittleEndian.Uint32(hiw[d:])
					c := &uops[k+1]
					r[c.dst&15] <<= (r[c.src&15] + c.imm2) & 31
					if SBStatsEnabled {
						mix.fired[op]++
					}
					k++
					break
				}
				op = u.orig
				goto dispatch

			case uMulMAddM:
				c := &uops[k+1]
				ea, eb := r[EBP]+u.imm, r[EBP]+c.imm
				s, t := u.seg&7, c.seg&7
				if d, e := ea-w.hiDel[s], eb-w.hiDel[t]; d < w.hiLen[s] && e < w.hiLen[t] {
					r[u.dst&15] = uint32(int32(r[u.dst&15]) * int32(binary.LittleEndian.Uint32(hiw[d:])))
					r[c.dst&15] += binary.LittleEndian.Uint32(hiw[e:])
					if SBStatsEnabled {
						mix.fired[op]++
					}
					k++
					break
				}
				op = u.orig
				goto dispatch

			case uRMWLd:
				ea := r[EBP] + u.imm
				s := u.seg & 7
				if d := ea - w.hiDel[s]; d < w.hiLen[s] && ea < w.wOK[s] {
					v := binary.LittleEndian.Uint32(hiw[d:]) + r[u.src&15] + u.imm2
					binary.LittleEndian.PutUint32(hiw[d:], v)
					if d < hid {
						hid = d
					}
					r[uops[k+1].dst&15] = v
					if SBStatsEnabled {
						mix.fired[op]++
					}
					k++
					break
				}
				op = u.orig
				goto dispatch

			default: // uGen
				copy(m.regs[:], r[:NumRegs])
				m.eq, m.lt, m.below = eq, lt, below
				m.stats.HWChecks += hw
				hw = 0
				memv.LowerHiDirty(hid)
				m.ip = head + k
				if err = u.gen(m); err != nil {
					// The closure mutated machine state directly; it is
					// already authoritative — flush counters only.
					sb.flush(m, passes, k+1)
					m.sbDeopts++
					return err
				}
				copy(r[:NumRegs], m.regs[:])
				eq, lt, below = m.eq, m.lt, m.below
				if g := mmu.Gen(); g != m.sbwGen {
					m.sbw = m.sbWindows()
					m.sbwGen = g
				}
				if m.ip != head+k+1 {
					goto exit
				}
			}
			k++
			continue

		cond: // u is a conditional jump micro-op and the flags are current
			switch u.kind {
			case uJE:
				taken = eq
			case uJNE:
				taken = !eq
			case uJL:
				taken = lt
			case uJLE:
				taken = lt || eq
			case uJG:
				taken = !lt && !eq
			case uJGE:
				taken = !lt
			case uJB:
				taken = below
			case uJAE:
				taken = !below
			case uJA:
				taken = !below && !eq
			default: // uJBE
				taken = below || eq
			}

		branch:
			if taken {
				if u.tgt >= 0 {
					m.ip = int(u.tgt)
					goto exit
				}
				goto backedge
			}
			if u.fall >= 0 {
				m.ip = int(u.fall)
				goto exit
			}
			k++
		}
		// Fell off the end of a straight-line trace.
		passes++
		m.ip = head + sb.n
		goto done

	backedge:
		passes++
		if budget-passes*n >= n {
			continue
		}
		if m.pollEarly(m.stats.Instructions+passes*n, n) {
			budget = m.nextStop - m.stats.Instructions
			continue
		}
		m.ip = head
		goto done

	done: // a whole number of passes completed; m.ip set above
		sb.flush(m, passes, 0)
		goto link

	exit: // side exit after step k; m.ip set by the branch logic
		sb.flush(m, passes, k+1)

	link:
		// Trace linking: when the exit lands on another superblock's head
		// and a whole pass of it still fits under nextStop, switch traces
		// here — the register file, flags and hardware-check tally stay
		// in host locals instead of round-tripping through the machine
		// and the dispatch loop.
		if ip := m.ip; uint(ip) < uint(len(sbt.heads)) {
			if nsb := sbt.heads[ip]; nsb != nil && m.nextStop-m.stats.Instructions >= uint64(nsb.n) {
				sb = nsb
				m.sbEntries++
				head, n, uops = sb.head, uint64(sb.n), sb.uops
				budget = m.nextStop - m.stats.Instructions
				passes = 0
				continue
			}
		}
		copy(m.regs[:], r[:NumRegs])
		m.eq, m.lt, m.below = eq, lt, below
		m.stats.HWChecks += hw
		memv.LowerHiDirty(hid)
		return nil
	}

deopt: // fault at step k; m.ip set at the fault site, err holds the fault
	copy(m.regs[:], r[:NumRegs])
	m.eq, m.lt, m.below = eq, lt, below
	m.stats.HWChecks += hw
	memv.LowerHiDirty(hid)
	sb.flush(m, passes, k+1)
	m.sbDeopts++
	return err
}

// DumpSuperblocks renders the program's compiled superblocks — the
// tier-2 analogue of Disassemble, pinned by tests and printed by
// `cashrun -dump-superblocks`. A trace is a loop, a straight-line trace,
// or one that ends in a call or a return; each superop head names its
// idiom.
func (p *Program) DumpSuperblocks() string {
	t := p.superblocks()
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%s mode): %d superblocks\n", p.Name, p.Mode, len(t.list))
	for _, sb := range t.list {
		kind := "trace"
		switch last := sb.uops[sb.n-1].kind; {
		case sb.looping:
			kind = "loop"
		case last == uCall:
			kind = "call"
		case last == uRet:
			kind = "ret"
		}
		fmt.Fprintf(&b, "superblock %s @%d..%d (%s, %d instrs)\n",
			sb.name, sb.head, sb.head+sb.n-1, kind, sb.n)
		for k, u := range sb.uops {
			idiom := ""
			if isSuperop(u.kind) {
				idiom = "\t# " + uopNames[u.kind]
			}
			fmt.Fprintf(&b, "%5d %s%s\n", sb.head+k, p.Instrs[sb.head+k].String(), idiom)
		}
	}
	return b.String()
}

// SBStats reports one tier-2 run's superblock activity (Result.SB).
type SBStats struct {
	Compiled      uint64 // superblocks compiled for the program
	Entries       uint64 // superblock entries
	Deopts        uint64 // exits through a fault back to the interpreter
	InstrsRetired uint64 // instructions retired inside superblocks
}

// sb cache on Program, mirroring the predecode cache.
type sbCache struct {
	once sync.Once
	t    *sbTable
}
