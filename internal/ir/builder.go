package ir

import "cash/internal/vm"

// Builder constructs a Module incrementally. Its emission surface
// (Emit/Op/Op1/Label/Func/Jump/Call/Len/Instr) mirrors vm.Builder
// exactly, so a code generator written against vm.Builder lowers to IR
// with the same call sequence; on top of that it structures the stream
// into fragments, basic blocks and a loop tree, and stamps check ids
// and memory tags onto instructions for the passes.
type Builder struct {
	mod    *Module
	frag   *Fragment
	cur    *Block
	sealed *Block // most recently completed block (latch candidate)
	flat   []flatRef
	open   []*Loop // open-loop stack of the current fragment
	check  int     // current check id (0 = none)
	memTag any     // sticky tag for subsequent memory-using instructions
}

type flatRef struct {
	blk *Block
	idx int
}

// NewBuilder returns an empty builder. Emission must start with
// BeginFragment or Func.
func NewBuilder() *Builder {
	return &Builder{mod: &Module{}}
}

// Module returns the module under construction.
func (b *Builder) Module() *Module { return b.mod }

// BeginFragment starts a new anonymous code fragment (trap sink,
// startup). Loops and sticky tags do not span fragments.
func (b *Builder) BeginFragment(name string) {
	b.sealCurrent()
	b.frag = &Fragment{Name: name}
	b.mod.Frags = append(b.mod.Frags, b.frag)
	b.open = nil
	b.memTag = nil
}

// Func starts a function fragment and binds its fn_<name> entry label,
// like vm.Builder.Func.
func (b *Builder) Func(name string) {
	b.BeginFragment(name)
	b.frag.IsFunc = true
	b.Label("fn_" + name)
}

// CurrentFragment returns the fragment being built.
func (b *Builder) CurrentFragment() *Fragment { return b.frag }

// block returns the open block, opening one if the previous was sealed.
func (b *Builder) block() *Block {
	if b.cur == nil {
		blk := &Block{}
		b.frag.Blocks = append(b.frag.Blocks, blk)
		for _, l := range b.open {
			l.Blocks = append(l.Blocks, blk)
		}
		b.cur = blk
	}
	return b.cur
}

func (b *Builder) sealCurrent() {
	if b.cur != nil {
		b.sealed = b.cur
		b.cur = nil
	}
}

// Label binds a label at the current point. A label starts a new basic
// block when instructions have already been emitted into the open one;
// consecutive labels accumulate on the same block in binding order.
func (b *Builder) Label(name string) {
	if b.cur != nil && len(b.cur.Instrs) > 0 {
		b.sealCurrent()
	}
	blk := b.block()
	blk.Labels = append(blk.Labels, name)
}

// Emit appends one instruction and returns its flat index (the same
// index vm.Builder would return). Jumps and non-returning instructions
// seal the block.
func (b *Builder) Emit(in vm.Instr) int {
	blk := b.block()
	ii := Instr{Instr: in, CheckID: b.check}
	if b.memTag != nil && (in.Dst.Kind == vm.KindMem || in.Src.Kind == vm.KindMem) {
		ii.Tag = b.memTag
	}
	idx := len(b.flat)
	blk.Instrs = append(blk.Instrs, ii)
	b.flat = append(b.flat, flatRef{blk, len(blk.Instrs) - 1})
	if EndsBlock(in.Op) {
		b.sealCurrent()
	}
	return idx
}

// Op emits a two-operand instruction.
func (b *Builder) Op(op vm.Op, dst, src vm.Operand) int {
	return b.Emit(vm.Instr{Op: op, Dst: dst, Src: src})
}

// Op1 emits a one-operand instruction (PUSH uses Src, POP/NEG/NOT use
// Dst — the same convention as vm.Builder.Op1).
func (b *Builder) Op1(op vm.Op, o vm.Operand) int {
	if op == vm.PUSH {
		return b.Emit(vm.Instr{Op: op, Src: o})
	}
	return b.Emit(vm.Instr{Op: op, Dst: o})
}

// Jump emits a jump to a label, recording the symbolic target for
// emission-time fixup.
func (b *Builder) Jump(op vm.Op, label string) int {
	blk := b.block()
	ii := Instr{Instr: vm.Instr{Op: op, Sym: label}, FixupLabel: label, CheckID: b.check}
	idx := len(b.flat)
	blk.Instrs = append(blk.Instrs, ii)
	b.flat = append(b.flat, flatRef{blk, len(blk.Instrs) - 1})
	b.sealCurrent()
	return idx
}

// Call emits a call to a named function.
func (b *Builder) Call(name string) int {
	blk := b.block()
	ii := Instr{Instr: vm.Instr{Op: vm.CALL, Sym: name}, FixupLabel: "fn_" + name, CheckID: b.check}
	idx := len(b.flat)
	blk.Instrs = append(blk.Instrs, ii)
	b.flat = append(b.flat, flatRef{blk, len(blk.Instrs) - 1})
	return idx
}

// Len returns the number of instructions emitted so far, matching the
// index vm.Builder.Len would report at the same point of lowering.
func (b *Builder) Len() int { return len(b.flat) }

// Instr returns a pointer to instruction i of the flat stream for
// back-patching (Note annotations). Pointers stay valid while lowering
// proceeds: instructions are only appended, never moved, until the
// passes run.
func (b *Builder) Instr(i int) *vm.Instr {
	r := b.flat[i]
	return &r.blk.Instrs[r.idx].Instr
}

// BeginLoop opens a loop nested in the innermost open loop. Blocks
// created while it is open become members. The caller marks the header
// with SetLoopHeader after binding the condition label.
func (b *Builder) BeginLoop() *Loop {
	l := &Loop{}
	if n := len(b.open); n > 0 {
		l.Parent = b.open[n-1]
	}
	b.open = append(b.open, l)
	b.frag.Loops = append(b.frag.Loops, l)
	return l
}

// SetLoopHeader records the current block as the loop's header. The
// block may predate BeginLoop (an empty block opened before the loop
// that the header label then reuses), so membership is ensured here
// rather than assumed from creation order.
func (b *Builder) SetLoopHeader(l *Loop) {
	blk := b.block()
	if !l.Contains(blk) {
		l.Blocks = append(l.Blocks, blk)
	}
	l.Header = blk
}

// EndLoop closes the innermost loop; the block sealed by the back-edge
// jump becomes its latch (made a member for the same reason as the
// header).
func (b *Builder) EndLoop() {
	n := len(b.open)
	l := b.open[n-1]
	b.open = b.open[:n-1]
	if b.sealed != nil && !l.Contains(b.sealed) {
		l.Blocks = append(l.Blocks, b.sealed)
	}
	l.Latch = b.sealed
}

// SetCheck makes subsequent instructions members of check id; 0 ends
// the group. It returns the previous id so nested check scopes restore
// correctly.
func (b *Builder) SetCheck(id int) int {
	prev := b.check
	b.check = id
	return prev
}

// CurCheck returns the check id in effect.
func (b *Builder) CurCheck() int { return b.check }

// TagMem attaches tag to subsequent memory-using instructions until the
// next TagMem call. The code generator calls it when handing out a
// memory operand, so the loads/stores built from that operand carry the
// referenced object.
func (b *Builder) TagMem(tag any) { b.memTag = tag }

// Detour redirects emission into a detached scratch fragment, runs fn,
// and returns the blocks it produced (possibly a trailing label-only
// block). The passes use it to synthesize code — e.g. hoisted range
// checks — with the compiler's ordinary emission helpers, then splice
// the blocks wherever they belong. Loop state does not leak in either
// direction.
func (b *Builder) Detour(fn func()) []*Block {
	savedFrag, savedCur, savedSealed := b.frag, b.cur, b.sealed
	savedOpen, savedTag := b.open, b.memTag
	b.frag = &Fragment{Name: "(detour)"}
	b.cur = nil
	b.open = nil
	b.memTag = nil
	fn()
	blocks := b.frag.Blocks
	b.frag, b.cur, b.sealed = savedFrag, savedCur, savedSealed
	b.open, b.memTag = savedOpen, savedTag
	return blocks
}
