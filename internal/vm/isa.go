// Package vm implements the simulated execution substrate for the Cash
// reproduction: an x86-flavoured 32-bit register machine whose every data
// reference is translated and limit-checked by the segmentation model in
// internal/x86seg (optionally followed by the paging model in
// internal/paging), with a per-instruction cycle cost model calibrated to
// the Pentium-III constants reported in the paper.
//
// The three compiler back ends (internal/codegen) target this ISA; the
// benchmark harness compares their simulated cycle counts, which is the
// quantity the paper reports.
package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"cash/internal/x86seg"
)

// Reg names a general-purpose 32-bit register.
type Reg uint8

// General-purpose registers.
const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
	NumRegs
)

var regNames = [NumRegs]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

func (r Reg) String() string {
	if r < NumRegs {
		return "%" + regNames[r]
	}
	return fmt.Sprintf("%%r(%d)", uint8(r))
}

// Op is an instruction opcode.
type Op uint8

// Opcodes. The set is the subset of IA-32 the Cash code generators emit,
// plus three "system" entries: INT (system call), LCALL (call gate) and
// HCALL (host/libc services such as malloc that the paper links in as
// recompiled library code).
const (
	NOP Op = iota
	MOV
	LEA
	ADD
	SUB
	IMUL
	IDIV
	IMOD
	AND
	OR
	XOR
	SHL
	SHR
	SAR
	NEG
	NOT
	CMP
	TEST
	JMP
	JE
	JNE
	JL
	JLE
	JG
	JGE
	JB
	JAE
	JA
	JBE
	PUSH
	POP
	CALL
	RET
	MOVSR // MOV to segment register: 4 cycles (§3.3)
	MOVRS // MOV from segment register
	BOUND // IA-32 bound instruction: 7 cycles (§2)
	TRAP  // software bound-check failure (UD2-style)
	INT   // system call (int 0x80)
	LCALL // call gate entry (lcall $0x7,$0x0 -> cash_modify_ldt)
	HCALL // host/libc service
	HLT
	// MPX-style bounds instructions, for the "mpx" checking strategy: a
	// lower/upper check pair against register or immediate bounds, and a
	// shadow bounds-table load/store keyed by the address of the pointer
	// slot (modelling bndldx/bndstx's two-level Bounds Directory walk).
	BNDCL  // trap if Dst register < Src (lower bound)
	BNDCU  // trap if Dst register >= Src (exclusive upper bound)
	BNDLDX // load bounds for the slot at Src's address into EDX/ECX
	BNDSTX // store EDX/ECX (Src=$1) or INIT bounds (Src=$0) for Dst's slot
	numOps
)

var opNames = [numOps]string{
	"nop", "mov", "lea", "add", "sub", "imul", "idiv", "imod",
	"and", "or", "xor", "shl", "shr", "sar", "neg", "not",
	"cmp", "test",
	"jmp", "je", "jne", "jl", "jle", "jg", "jge", "jb", "jae", "ja", "jbe",
	"push", "pop", "call", "ret",
	"movsr", "movrs", "bound", "trap", "int", "lcall", "hcall", "hlt",
	"bndcl", "bndcu", "bndldx", "bndstx",
}

func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OperandKind distinguishes operand flavours.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg
	KindImm
	KindMem
	KindSReg
)

// MemRef is an IA-32 addressing-mode memory operand:
//
//	seg:[base + index*scale + disp]
//
// Seg is the segment register the reference is checked through; the
// default data segment is DS. Cash's instrumented array references use ES,
// FS, GS (and optionally SS).
type MemRef struct {
	Seg      x86seg.SegReg
	Base     Reg
	HasBase  bool
	Index    Reg
	HasIndex bool
	Scale    uint8 // 1, 2, 4 or 8
	Disp     int32
}

func (m MemRef) String() string {
	var b strings.Builder
	// DS is the default data segment; SS is the default for EBP/ESP
	// bases — neither needs an override prefix in listings.
	implicitSS := m.Seg == x86seg.SS && m.HasBase && (m.Base == EBP || m.Base == ESP)
	if m.Seg != x86seg.DS && !implicitSS {
		b.WriteString("%" + strings.ToLower(m.Seg.String()) + ":")
	}
	if m.Disp != 0 || (!m.HasBase && !m.HasIndex) {
		fmt.Fprintf(&b, "%d", m.Disp)
	}
	if m.HasBase || m.HasIndex {
		b.WriteByte('(')
		if m.HasBase {
			b.WriteString(m.Base.String())
		}
		if m.HasIndex {
			fmt.Fprintf(&b, ",%s,%d", m.Index.String(), m.Scale)
		}
		b.WriteByte(')')
	}
	return b.String()
}

// Operand is one instruction operand.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	SReg x86seg.SegReg
	Imm  int32
	Mem  MemRef
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// I returns an immediate operand.
func I(v int32) Operand { return Operand{Kind: KindImm, Imm: v} }

// M returns a memory operand.
func M(m MemRef) Operand { return Operand{Kind: KindMem, Mem: m} }

// SR returns a segment-register operand.
func SR(s x86seg.SegReg) Operand { return Operand{Kind: KindSReg, SReg: s} }

func (o Operand) String() string {
	switch o.Kind {
	case KindReg:
		return o.Reg.String()
	case KindImm:
		return fmt.Sprintf("$%d", o.Imm)
	case KindMem:
		return o.Mem.String()
	case KindSReg:
		return "%" + strings.ToLower(o.SReg.String())
	default:
		return ""
	}
}

// Note annotates an instruction for the statistics the paper reports.
type Note uint8

// Instruction annotations.
const (
	NoteNone Note = iota
	// NoteSWCheck marks the first instruction of a software bound-check
	// sequence; executing it counts one software check (BCC, or Cash's
	// spill fall-back).
	NoteSWCheck
	// NoteSegSetup marks per-array-use segment set-up code that a
	// standard optimiser hoists out of the loop (§3.3).
	NoteSegSetup
	// NoteLoopBackedge marks a loop's back-edge jump; executing it
	// counts one loop iteration.
	NoteLoopBackedge
	// NoteSpilledBackedge marks the back-edge of a loop that uses more
	// distinct arrays than there are segment registers — the "spilled
	// loop" iterations the paper's Tables 4 and 7 report in parentheses.
	NoteSpilledBackedge
)

// Instr is one machine instruction. The byte-wide fields come first so
// they share one word instead of each padding out its own (TestInstrLayout
// pins the size).
type Instr struct {
	Op     Op
	Size   uint8 // access size for MOV: 1, 2 or 4 bytes (0 = 4)
	Note   Note
	Dst    Operand
	Src    Operand
	Target int // resolved instruction index for jumps/calls
	Sym    string
	Label  string // label attached at this instruction, for listings
}

func (in Instr) String() string {
	var b strings.Builder
	if in.Label != "" {
		fmt.Fprintf(&b, "%s:\n", in.Label)
	}
	b.WriteString("\t")
	op := in.Op.String()
	if in.Op == MOV {
		switch in.Size {
		case 1:
			op = "movb"
		case 2:
			op = "movw"
		default:
			op = "movl"
		}
	}
	b.WriteString(op)
	switch in.Op {
	case JMP, JE, JNE, JL, JLE, JG, JGE, JB, JAE, JA, JBE, CALL:
		if in.Sym != "" {
			fmt.Fprintf(&b, "\t%s", in.Sym)
		} else {
			fmt.Fprintf(&b, "\t@%d", in.Target)
		}
	case INT, LCALL, HCALL:
		fmt.Fprintf(&b, "\t$%d", in.Src.Imm)
	default:
		// AT&T order: op src, dst.
		if in.Src.Kind != KindNone {
			b.WriteString("\t" + in.Src.String())
			if in.Dst.Kind != KindNone {
				b.WriteString(", " + in.Dst.String())
			}
		} else if in.Dst.Kind != KindNone {
			b.WriteString("\t" + in.Dst.String())
		}
	}
	return b.String()
}

// Program is an executable image: code, an initial data image, and entry
// point metadata produced by the code generators.
type Program struct {
	Name     string
	Instrs   []Instr
	Entry    int               // instruction index of the entry point
	Funcs    map[string]int    // function name -> entry instruction
	Globals  map[string]Global // global array name -> its place in the data image
	Data     []DataRun         // the data image's nonzero runs (SetData); nil for no image
	DataSize uint32            // length of the initial data image
	DataBase uint32            // linear address the data image loads at
	HeapBase uint32            // first heap address (after data)
	StackTop uint32            // initial ESP
	Mode     string            // producing compiler mode, for listings
	Stats    map[string]uint64 // static code-gen statistics

	// Sites is the overflow oracle's site table (see oracle.go): every
	// compiled program carries one. A machine reads it only when
	// WithOracle asks it to run under the oracle.
	Sites *SiteTable

	// pre caches the predecoded execution form (see predecode.go), built
	// lazily on first Run and shared by every Machine executing this
	// program. Programs must not be copied by value once running.
	pre struct {
		once sync.Once
		c    *compiled
	}

	// sb caches the compiled superblock table (see superblock.go) the
	// same way, built lazily on the first tier-2 machine.
	sb sbCache
}

// DataRun is a maximal run of nonzero bytes in a program's initial data
// image, Off bytes past DataBase. The image is zero outside its runs.
type DataRun struct {
	Off   uint32
	Bytes []byte
}

// SetData sets the program's initial data image to img (nil for none):
// its size and its maximal runs of nonzero bytes, in address order. The
// runs are copies that share one allocation of just the nonzero bytes,
// so img is not kept alive.
func (p *Program) SetData(img []byte) {
	p.DataSize = uint32(len(img))
	if img == nil {
		p.Data = nil
		return
	}
	// Each run first points into img; once buf has stopped growing, it
	// is re-pointed at its copy there.
	p.Data = []DataRun{}
	var buf []byte
	for i := skipZeros(img, 0); i < len(img); i = skipZeros(img, i) {
		j := len(img)
		if k := bytes.IndexByte(img[i:], 0); k >= 0 {
			j = i + k
		}
		p.Data = append(p.Data, DataRun{Off: uint32(i), Bytes: img[i:j]})
		buf = append(buf, img[i:j]...)
		i = j
	}
	for k, at := 0, 0; k < len(p.Data); k++ {
		n := len(p.Data[k].Bytes)
		p.Data[k].Bytes = buf[at : at+n : at+n]
		at += n
	}
}

// skipZeros returns the index of the first nonzero byte of b at or
// after i, or len(b). Data images are almost all zeros, so it steps a
// word at a time.
func skipZeros(b []byte, i int) int {
	for i+8 <= len(b) && binary.LittleEndian.Uint64(b[i:]) == 0 {
		i += 8
	}
	for i < len(b) && b[i] == 0 {
		i++
	}
	return i
}

// Global is where a global array lives in the data image: Size bytes
// from linear address Addr.
type Global struct {
	Addr uint32
	Size uint32
}

// Disassemble renders the program as an AT&T-style listing.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%s mode), %d instructions\n", p.Name, p.Mode, len(p.Instrs))
	for i, in := range p.Instrs {
		fmt.Fprintf(&b, "%5d %s\n", i, in.String())
	}
	return b.String()
}
