package vm

import (
	"fmt"

	"cash/internal/obs"
	"cash/internal/x86seg"
)

// This file is the predecoded execution engine. Each Instr is compiled
// once per Program into a closure (execFn) with its operand kinds
// resolved, its effective-address shape specialised and its access size
// fixed, so the interpreter's hot loop performs no per-access switching
// on Operand.Kind or size. The closures capture only immutable decoded
// state and take the Machine as a parameter, so one compiled program is
// shared by any number of machines (and goroutines) running it.
//
// The engine is a host-speed optimisation only: instruction semantics,
// fault behaviour, cycle charges and every Stats counter are identical
// to the reference interpreter it replaced.

// execFn executes one predecoded instruction. It must either return an
// error (leaving m.ip at the faulting instruction) or advance m.ip.
type execFn func(m *Machine) error

// loadFn reads one predecoded operand.
type loadFn func(m *Machine) (uint32, error)

// storeFn writes one predecoded operand.
type storeFn func(m *Machine, v uint32) error

// compiled is the predecoded form of a program: per-instruction closures
// plus the flat cost/note metadata the run loop charges before dispatch.
type compiled struct {
	exec []execFn
	cost []uint8
	note []Note
}

// compiledProgram returns the predecoded form, compiling it on first use.
// The sync.Once makes concurrent machines running the same Program safe.
func (p *Program) compiledProgram() *compiled {
	p.pre.once.Do(func() {
		c := &compiled{
			exec: make([]execFn, len(p.Instrs)),
			cost: make([]uint8, len(p.Instrs)),
			note: make([]Note, len(p.Instrs)),
		}
		for i := range p.Instrs {
			in := &p.Instrs[i]
			c.exec[i] = compileInstr(in)
			c.cost[i] = uint8(in.baseCost())
			c.note[i] = in.Note
		}
		p.pre.c = c
	})
	return p.pre.c
}

// memOp is the predecoded form of a MemRef: register numbers resolved to
// indices (-1 when absent) and the displacement widened, so the
// effective-address computation is branch-light and copy-free.
type memOp struct {
	seg   x86seg.SegReg
	base  int16 // register index, -1 = none
	index int16
	scale uint32
	disp  uint32
}

func compileMem(r MemRef) memOp {
	mo := memOp{seg: r.Seg, base: -1, index: -1, disp: uint32(r.Disp)}
	if r.HasBase {
		mo.base = int16(r.Base)
	}
	if r.HasIndex {
		mo.index = int16(r.Index)
		mo.scale = uint32(r.Scale)
		if mo.scale == 0 {
			mo.scale = 1
		}
	}
	return mo
}

// ea computes the effective (segment-relative) address of the operand.
func (mo *memOp) ea(m *Machine) uint32 {
	a := mo.disp
	if mo.base >= 0 {
		a += m.regs[mo.base]
	}
	if mo.index >= 0 {
		a += m.regs[mo.index] * mo.scale
	}
	return a
}

// memPhys maps a predecoded memory operand to a physical address,
// applying the segment limit check and (if enabled) the page walk.
// References through a segment register holding an LDT selector are
// counted as hardware bound checks — those are exactly Cash's per-array
// segments.
func (m *Machine) memPhys(mo *memOp, size uint32, write bool) (uint32, error) {
	if m.mmu.IsLDT(mo.seg) {
		m.stats.HWChecks++
	}
	return m.translate(mo.seg, mo.ea(m), size, write)
}

// translate is the architectural translation of seg:ea: the segment
// limit check, then (if enabled) the page walk and the trace hook. It
// counts no hardware check; memPhys and the fused micro-ops, which
// reach it when their inline fast path declines, count their own. The
// flat-segment fast path skips the descriptor decode for the simulated
// Linux DS/SS/ES without changing any architectural outcome. A fused
// caller sets m.ip to the accessing instruction first so a fault
// renders the right identity.
func (m *Machine) translate(seg x86seg.SegReg, ea, size uint32, write bool) (uint32, error) {
	lin, ok := m.mmu.FlatLinear(seg, ea, size)
	if !ok {
		var err error
		lin, err = m.mmu.Translate(seg, ea, size, write)
		if err != nil {
			return 0, m.fault(FaultSegmentation, err)
		}
	}
	if m.plain {
		return lin, nil
	}
	return m.translateSlow(seg, ea, lin, write)
}

// translateSlow is the non-plain tail of translate: the page walk and
// the trace hook, kept out of the hot path (m.plain is precomputed at
// construction).
func (m *Machine) translateSlow(seg x86seg.SegReg, ea, lin uint32, write bool) (uint32, error) {
	phys := lin
	if m.pages != nil {
		var err error
		phys, err = m.pages.Translate(lin, write)
		if err != nil {
			return 0, m.fault(FaultPage, err)
		}
		m.stats.PageWalks++
	}
	if m.trace != nil {
		m.trace(TraceEntry{
			Seg: seg, Selector: m.mmu.Selector(seg),
			Offset: ea, Linear: lin, Physical: phys, Write: write,
		})
	}
	return phys, nil
}

// compileLoad builds the operand reader for one operand at a fixed
// access size. Register and immediate reads ignore size, exactly like
// the reference interpreter.
func compileLoad(o Operand, size uint32) loadFn {
	switch o.Kind {
	case KindReg:
		r := o.Reg
		return func(m *Machine) (uint32, error) { return m.regs[r], nil }
	case KindImm:
		v := uint32(o.Imm)
		return func(m *Machine) (uint32, error) { return v, nil }
	case KindSReg:
		s := o.SReg
		return func(m *Machine) (uint32, error) { return uint32(m.mmu.Selector(s)), nil }
	case KindMem:
		mo := compileMem(o.Mem)
		switch size {
		case 1:
			return func(m *Machine) (uint32, error) {
				phys, err := m.memPhys(&mo, 1, false)
				if err != nil {
					return 0, err
				}
				return uint32(m.memory.Read8(phys)), nil
			}
		case 2:
			return func(m *Machine) (uint32, error) {
				phys, err := m.memPhys(&mo, 2, false)
				if err != nil {
					return 0, err
				}
				return uint32(m.memory.Read16(phys)), nil
			}
		default:
			return func(m *Machine) (uint32, error) {
				phys, err := m.memPhys(&mo, 4, false)
				if err != nil {
					return 0, err
				}
				return m.memory.Read32(phys), nil
			}
		}
	default:
		return func(m *Machine) (uint32, error) {
			return 0, m.fault(FaultInvalid, fmt.Errorf("read of empty operand"))
		}
	}
}

// compileStore builds the operand writer for one operand at a fixed
// access size.
func compileStore(o Operand, size uint32) storeFn {
	switch o.Kind {
	case KindReg:
		r := o.Reg
		return func(m *Machine, v uint32) error {
			m.regs[r] = v
			return nil
		}
	case KindMem:
		mo := compileMem(o.Mem)
		switch size {
		case 1:
			return func(m *Machine, v uint32) error {
				phys, err := m.memPhys(&mo, 1, true)
				if err != nil {
					return err
				}
				m.memory.Write8(phys, uint8(v))
				return nil
			}
		case 2:
			return func(m *Machine, v uint32) error {
				phys, err := m.memPhys(&mo, 2, true)
				if err != nil {
					return err
				}
				m.memory.Write16(phys, uint16(v))
				return nil
			}
		default:
			return func(m *Machine, v uint32) error {
				phys, err := m.memPhys(&mo, 4, true)
				if err != nil {
					return err
				}
				m.memory.Write32(phys, v)
				return nil
			}
		}
	default:
		kind := o.Kind
		return func(m *Machine, v uint32) error {
			return m.fault(FaultInvalid, fmt.Errorf("write to %v operand", kind))
		}
	}
}

// aluFn returns the pure combining function for a two-operand ALU op.
// IDIV and IMOD are excluded (they fault on zero divisors).
func aluFn(op Op) func(a, b uint32) uint32 {
	switch op {
	case ADD:
		return func(a, b uint32) uint32 { return a + b }
	case SUB:
		return func(a, b uint32) uint32 { return a - b }
	case IMUL:
		return func(a, b uint32) uint32 { return uint32(int32(a) * int32(b)) }
	case AND:
		return func(a, b uint32) uint32 { return a & b }
	case OR:
		return func(a, b uint32) uint32 { return a | b }
	case XOR:
		return func(a, b uint32) uint32 { return a ^ b }
	case SHL:
		return func(a, b uint32) uint32 { return a << (b & 31) }
	case SHR:
		return func(a, b uint32) uint32 { return a >> (b & 31) }
	default: // SAR
		return func(a, b uint32) uint32 { return uint32(int32(a) >> (b & 31)) }
	}
}

// predicate returns the flag test for a conditional jump.
func predicate(op Op) func(m *Machine) bool {
	switch op {
	case JE:
		return func(m *Machine) bool { return m.eq }
	case JNE:
		return func(m *Machine) bool { return !m.eq }
	case JL:
		return func(m *Machine) bool { return m.lt }
	case JLE:
		return func(m *Machine) bool { return m.lt || m.eq }
	case JG:
		return func(m *Machine) bool { return !m.lt && !m.eq }
	case JGE:
		return func(m *Machine) bool { return !m.lt }
	case JB:
		return func(m *Machine) bool { return m.below }
	case JAE:
		return func(m *Machine) bool { return !m.below }
	case JA:
		return func(m *Machine) bool { return !m.below && !m.eq }
	case JBE:
		return func(m *Machine) bool { return m.below || m.eq }
	default:
		return func(m *Machine) bool { return false }
	}
}

// compileInstr builds the execution closure for one instruction.
func compileInstr(in *Instr) execFn {
	size := uint32(in.Size)
	if size == 0 {
		size = 4
	}

	switch in.Op {
	case NOP:
		return func(m *Machine) error { m.ip++; return nil }

	case MOV:
		getS := compileLoad(in.Src, size)
		setD := compileStore(in.Dst, size)
		return func(m *Machine) error {
			v, err := getS(m)
			if err != nil {
				return err
			}
			if err := setD(m, v); err != nil {
				return err
			}
			m.ip++
			return nil
		}

	case LEA:
		if in.Src.Kind != KindMem {
			return func(m *Machine) error {
				return m.fault(FaultInvalid, fmt.Errorf("lea needs memory source"))
			}
		}
		mo := compileMem(in.Src.Mem)
		setD := compileStore(in.Dst, 4)
		return func(m *Machine) error {
			if err := setD(m, mo.ea(m)); err != nil {
				return err
			}
			m.ip++
			return nil
		}

	case ADD, SUB, IMUL, AND, OR, XOR, SHL, SHR, SAR:
		getD := compileLoad(in.Dst, size)
		getS := compileLoad(in.Src, size)
		setD := compileStore(in.Dst, size)
		op := aluFn(in.Op)
		return func(m *Machine) error {
			a, err := getD(m)
			if err != nil {
				return err
			}
			b, err := getS(m)
			if err != nil {
				return err
			}
			if err := setD(m, op(a, b)); err != nil {
				return err
			}
			m.ip++
			return nil
		}

	case IDIV, IMOD:
		getD := compileLoad(in.Dst, size)
		getS := compileLoad(in.Src, size)
		setD := compileStore(in.Dst, size)
		mod := in.Op == IMOD
		return func(m *Machine) error {
			a, err := getD(m)
			if err != nil {
				return err
			}
			b, err := getS(m)
			if err != nil {
				return err
			}
			if b == 0 {
				return m.fault(FaultDivide, nil)
			}
			var v uint32
			if mod {
				v = uint32(int32(a) % int32(b))
			} else {
				v = uint32(int32(a) / int32(b))
			}
			if err := setD(m, v); err != nil {
				return err
			}
			m.ip++
			return nil
		}

	case NEG, NOT:
		getD := compileLoad(in.Dst, size)
		setD := compileStore(in.Dst, size)
		not := in.Op == NOT
		return func(m *Machine) error {
			a, err := getD(m)
			if err != nil {
				return err
			}
			v := -a
			if not {
				v = ^a
			}
			if err := setD(m, v); err != nil {
				return err
			}
			m.ip++
			return nil
		}

	case CMP:
		getD := compileLoad(in.Dst, size)
		getS := compileLoad(in.Src, size)
		return func(m *Machine) error {
			a, err := getD(m)
			if err != nil {
				return err
			}
			b, err := getS(m)
			if err != nil {
				return err
			}
			m.eq = a == b
			m.lt = int32(a) < int32(b)
			m.below = a < b
			m.ip++
			return nil
		}

	case TEST:
		getD := compileLoad(in.Dst, size)
		getS := compileLoad(in.Src, size)
		return func(m *Machine) error {
			a, err := getD(m)
			if err != nil {
				return err
			}
			b, err := getS(m)
			if err != nil {
				return err
			}
			m.eq = a&b == 0
			m.lt = int32(a&b) < 0
			m.below = false
			m.ip++
			return nil
		}

	case JMP:
		target := in.Target
		return func(m *Machine) error { m.ip = target; return nil }

	case JE, JNE, JL, JLE, JG, JGE, JB, JAE, JA, JBE:
		pred := predicate(in.Op)
		target := in.Target
		return func(m *Machine) error {
			if pred(m) {
				m.ip = target
			} else {
				m.ip++
			}
			return nil
		}

	case PUSH:
		getS := compileLoad(in.Src, 4)
		return func(m *Machine) error {
			v, err := getS(m)
			if err != nil {
				return err
			}
			if err := m.push(v); err != nil {
				return err
			}
			m.ip++
			return nil
		}

	case POP:
		setD := compileStore(in.Dst, 4)
		return func(m *Machine) error {
			v, err := m.pop()
			if err != nil {
				return err
			}
			if err := setD(m, v); err != nil {
				return err
			}
			m.ip++
			return nil
		}

	case CALL:
		target := in.Target
		return func(m *Machine) error {
			if err := m.push(uint32(m.ip + 1)); err != nil {
				return err
			}
			m.ip = target
			return nil
		}

	case RET:
		return func(m *Machine) error {
			v, err := m.pop()
			if err != nil {
				return err
			}
			m.ip = int(v)
			return nil
		}

	case MOVSR:
		getS := compileLoad(in.Src, 2)
		dst := in.Dst.SReg
		return func(m *Machine) error {
			v, err := getS(m)
			if err != nil {
				return err
			}
			if err := m.mmu.Load(dst, x86seg.Selector(v)); err != nil {
				return m.fault(FaultSegmentation, err)
			}
			m.stats.SegRegLoads++
			if m.etrace.Enabled() {
				m.etrace.Emit(obs.EvSegRegLoad, uint64(dst), uint64(v),
					dst.String()+" <- "+x86seg.Selector(v).String())
			}
			m.ip++
			return nil
		}

	case MOVRS:
		setD := compileStore(in.Dst, 4)
		src := in.Src.SReg
		return func(m *Machine) error {
			if err := setD(m, uint32(m.mmu.Selector(src))); err != nil {
				return err
			}
			m.ip++
			return nil
		}

	case BOUND:
		getD := compileLoad(in.Dst, 4)
		srcIsMem := in.Src.Kind == KindMem
		var loMem, hiMem memOp
		if srcIsMem {
			loMem = compileMem(in.Src.Mem)
			upperRef := in.Src.Mem
			upperRef.Disp += 4
			hiMem = compileMem(upperRef)
		}
		return func(m *Machine) error {
			m.stats.BoundInstrs++
			m.stats.SWChecks++
			idx, err := getD(m)
			if err != nil {
				return err
			}
			if !srcIsMem {
				return m.fault(FaultInvalid, fmt.Errorf("bound needs memory bounds"))
			}
			lower, err := m.loadWord(&loMem)
			if err != nil {
				return err
			}
			upper, err := m.loadWord(&hiMem)
			if err != nil {
				return err
			}
			if idx < lower || idx >= upper {
				return m.fault(FaultSoftwareCheck,
					fmt.Errorf("bound: %#x outside [%#x,%#x)", idx, lower, upper))
			}
			m.ip++
			return nil
		}

	case BNDCL:
		// Lower-bound check of an MPX pair. Like BOUND, the closure does
		// its own statistics so tier-2 superblock execution counts
		// identically; the pair is counted once, here.
		getD := compileLoad(in.Dst, 4)
		getS := compileLoad(in.Src, 4)
		return func(m *Machine) error {
			m.stats.SWChecks++
			m.stats.BndChecks++
			addr, err := getD(m)
			if err != nil {
				return err
			}
			lower, err := getS(m)
			if err != nil {
				return err
			}
			if addr < lower {
				return m.fault(FaultSoftwareCheck,
					fmt.Errorf("bndcl: %#x below lower bound %#x", addr, lower))
			}
			m.ip++
			return nil
		}

	case BNDCU:
		// Upper-bound check. The repo's bounds are half-open, so the trap
		// condition is addr >= upper (real bndcu compares against an
		// inclusive upper; the convention difference is absorbed at
		// lowering).
		getD := compileLoad(in.Dst, 4)
		getS := compileLoad(in.Src, 4)
		return func(m *Machine) error {
			addr, err := getD(m)
			if err != nil {
				return err
			}
			upper, err := getS(m)
			if err != nil {
				return err
			}
			if addr >= upper {
				return m.fault(FaultSoftwareCheck,
					fmt.Errorf("bndcu: %#x at or above upper bound %#x", addr, upper))
			}
			m.ip++
			return nil
		}

	case BNDLDX:
		// Bounds-table load: the effective address of the memory operand
		// keys the shadow table; the entry's lower/upper land in EDX/ECX.
		// A missing entry is the unbounded INIT pair (0, 0xffffffff),
		// matching MPX's lazily populated Bounds Tables. The table walk
		// cost is charged via baseCost.
		if in.Src.Kind != KindMem {
			return func(m *Machine) error {
				return m.fault(FaultInvalid, fmt.Errorf("bndldx needs memory source"))
			}
		}
		mo := compileMem(in.Src.Mem)
		return func(m *Machine) error {
			m.stats.BndLoads++
			lo, hi := uint32(0), uint32(0xffffffff)
			if e, ok := m.bnd[mo.ea(m)]; ok {
				lo, hi = e[0], e[1]
			}
			m.regs[EDX] = lo
			m.regs[ECX] = hi
			m.ip++
			return nil
		}

	case BNDSTX:
		// Bounds-table store for the slot addressed by Dst: Src=$1 records
		// the pair held in EDX/ECX, Src=$0 resets the slot to INIT
		// (unbounded) without touching registers.
		if in.Dst.Kind != KindMem {
			return func(m *Machine) error {
				return m.fault(FaultInvalid, fmt.Errorf("bndstx needs memory destination"))
			}
		}
		mo := compileMem(in.Dst.Mem)
		init := in.Src.Kind == KindImm && in.Src.Imm == 0
		return func(m *Machine) error {
			m.stats.BndStores++
			if m.bnd == nil {
				m.bnd = make(map[uint32][2]uint32)
			}
			if init {
				delete(m.bnd, mo.ea(m))
			} else {
				m.bnd[mo.ea(m)] = [2]uint32{m.regs[EDX], m.regs[ECX]}
			}
			m.ip++
			return nil
		}

	case TRAP:
		sym := in.Sym
		return func(m *Machine) error {
			return m.fault(FaultSoftwareCheck, fmt.Errorf("%s", sym))
		}

	case INT:
		return func(m *Machine) error {
			if err := m.syscall(); err != nil {
				return err
			}
			m.ip++
			return nil
		}

	case LCALL:
		return func(m *Machine) error {
			if err := m.gateCall(); err != nil {
				return err
			}
			m.ip++
			return nil
		}

	case HCALL:
		svc := in.Src.Imm
		return func(m *Machine) error {
			if err := m.hostCall(svc); err != nil {
				return err
			}
			m.ip++
			return nil
		}

	case HLT:
		return func(m *Machine) error {
			m.halted = true
			m.ip++
			return nil
		}

	default:
		op := in.Op
		return func(m *Machine) error {
			return m.fault(FaultInvalid, fmt.Errorf("unknown opcode %v", op))
		}
	}
}

// loadWord reads a 32-bit value through a predecoded memory operand (the
// BOUND bounds-pair reads).
func (m *Machine) loadWord(mo *memOp) (uint32, error) {
	phys, err := m.memPhys(mo, 4, false)
	if err != nil {
		return 0, err
	}
	return m.memory.Read32(phys), nil
}
