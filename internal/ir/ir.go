// Package ir is the compiler's intermediate representation: the typed
// instruction stream of one program, structured into basic blocks with an
// explicit control-flow graph and a loop tree, carrying enough
// provenance (check identity, reference tags) for optimization passes to
// transform bound checks soundly.
//
// The representation deliberately stays one-to-one with the target ISA:
// an ir.Instr wraps a vm.Instr, blocks record the exact label-binding
// order, and Module.EmitTo replays everything through a vm.Builder. A
// module that no pass has touched therefore assembles to the
// byte-identical vm.Program the old direct-emission back end produced —
// the property the golden tests pin.
package ir

import "cash/internal/vm"

// Instr is one IR instruction: the target-machine instruction plus the
// provenance the passes need.
type Instr struct {
	vm.Instr
	// FixupLabel is the symbolic branch/call target, resolved to an
	// instruction index at emission ("fn_"-prefixed for calls). Empty
	// for non-control instructions.
	FixupLabel string
	// CheckID groups the instructions of one software bound-check
	// sequence, including its metadata load. Zero means the instruction
	// is not part of a check. A pass that removes a check must remove
	// every instruction carrying its id.
	CheckID int
	// Tag is an opaque annotation the lowering attaches to memory-using
	// instructions (the code generator uses it to mark which object a
	// store goes through). Passes treat a missing tag conservatively.
	Tag any
}

// IsBranch reports whether the instruction transfers control to a label
// (conditional or unconditional jump, or call).
func (in *Instr) IsBranch() bool {
	switch in.Op {
	case vm.JMP, vm.JE, vm.JNE, vm.JL, vm.JLE, vm.JG, vm.JGE,
		vm.JB, vm.JAE, vm.JA, vm.JBE, vm.CALL:
		return true
	}
	return false
}

// EndsBlock reports whether the instruction terminates a basic block:
// any jump (control leaves or may leave the straight line) or an
// instruction execution never falls out of (RET, HLT, TRAP). CALL does
// not end a block — control returns.
func EndsBlock(op vm.Op) bool {
	switch op {
	case vm.JMP, vm.JE, vm.JNE, vm.JL, vm.JLE, vm.JG, vm.JGE,
		vm.JB, vm.JAE, vm.JA, vm.JBE, vm.RET, vm.HLT, vm.TRAP:
		return true
	}
	return false
}

// IsUncondExit reports whether control never falls through the
// instruction to the next one in layout.
func IsUncondExit(op vm.Op) bool {
	switch op {
	case vm.JMP, vm.RET, vm.HLT, vm.TRAP:
		return true
	}
	return false
}

// IsCondJump reports whether op is a conditional jump.
func IsCondJump(op vm.Op) bool {
	switch op {
	case vm.JE, vm.JNE, vm.JL, vm.JLE, vm.JG, vm.JGE,
		vm.JB, vm.JAE, vm.JA, vm.JBE:
		return true
	}
	return false
}

// Block is one basic block: the labels bound to its first instruction
// (in binding order — the vm.Builder attaches only the first to the
// emitted instruction, so order matters for byte-identity) and the
// instructions. Control enters only at the top and leaves only at the
// bottom.
type Block struct {
	Labels []string
	Instrs []Instr
}

// Loop is one node of a fragment's loop tree, built during lowering.
type Loop struct {
	// Parent is the enclosing loop, nil for outermost loops.
	Parent *Loop
	// Header is the block the back edge targets (the condition block).
	Header *Block
	// Latch is the block holding the back-edge jump.
	Latch *Block
	// Blocks are the member blocks in creation order; the header is a
	// member, the preheader is not.
	Blocks []*Block
}

// Contains reports whether b is a member of the loop.
func (l *Loop) Contains(b *Block) bool {
	for _, m := range l.Blocks {
		if m == b {
			return true
		}
	}
	return false
}

// Fragment is one linear code region of the module: a function, or one
// of the anonymous runtime stubs (trap sink, startup). Blocks are in
// layout order; a block without a terminating instruction falls through
// to the next block in the slice.
type Fragment struct {
	Name   string
	IsFunc bool
	Blocks []*Block
	// Loops lists every loop lowered in this fragment, outermost first
	// within each nest.
	Loops []*Loop
}

// InsertBefore splices blocks into the layout immediately before the
// marker block. It reports whether the marker was found.
func (f *Fragment) InsertBefore(marker *Block, blocks []*Block) bool {
	if len(blocks) == 0 {
		return true
	}
	for i, b := range f.Blocks {
		if b == marker {
			out := make([]*Block, 0, len(f.Blocks)+len(blocks))
			out = append(out, f.Blocks[:i]...)
			out = append(out, blocks...)
			out = append(out, f.Blocks[i:]...)
			f.Blocks = out
			return true
		}
	}
	return false
}

// InsertPreheader splices blocks into the layout immediately before
// the loop's header and makes them members of every loop enclosing it:
// they run once per entry to the loop, inside its parents.
func (f *Fragment) InsertPreheader(l *Loop, blocks []*Block) {
	f.InsertBefore(l.Header, blocks)
	for p := l.Parent; p != nil; p = p.Parent {
		p.Blocks = append(p.Blocks, blocks...)
	}
}

// Compact removes blocks that have neither instructions nor labels
// (left behind when a pass deletes a block's whole contents), from the
// layout and from every loop.
func (f *Fragment) Compact() {
	keep := f.Blocks[:0]
	dead := make(map[*Block]bool)
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 && len(b.Labels) == 0 {
			dead[b] = true
			continue
		}
		keep = append(keep, b)
	}
	f.Blocks = keep
	if len(dead) == 0 {
		return
	}
	for _, l := range f.Loops {
		kept := l.Blocks[:0]
		for _, b := range l.Blocks {
			if !dead[b] {
				kept = append(kept, b)
			}
		}
		l.Blocks = kept
	}
}

// Module is a whole lowered program: fragments in emission order.
type Module struct {
	Frags []*Fragment
}

// Fragment finds a fragment by name, or nil.
func (m *Module) Fragment(name string) *Fragment {
	for _, f := range m.Frags {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// EmitTo replays the module through a vm.Builder, reproducing the exact
// emission a direct code generator would perform: labels bind in order,
// functions register through Builder.Func, and branch targets re-enter
// the builder's fixup machinery. It returns the instruction index at
// which the fragment named entryFrag begins (-1 if absent).
func (m *Module) EmitTo(vb *vm.Builder, entryFrag string) int {
	entry := -1
	for _, f := range m.Frags {
		if f.Name == entryFrag {
			entry = vb.Len()
		}
		fnLabel := "fn_" + f.Name
		first := true
		for _, blk := range f.Blocks {
			for _, l := range blk.Labels {
				if f.IsFunc && first && l == fnLabel {
					// Builder.Func registers the function and binds
					// fn_<name> itself.
					vb.Func(f.Name)
					continue
				}
				vb.Label(l)
			}
			first = false
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				idx := vb.Emit(in.Instr)
				if in.FixupLabel != "" {
					vb.Fixup(idx, in.FixupLabel)
				}
			}
		}
	}
	return entry
}
