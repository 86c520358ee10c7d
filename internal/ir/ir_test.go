package ir

import (
	"strings"
	"testing"

	"cash/internal/vm"
	"cash/internal/x86seg"
)

// buildLinear assembles a tiny straight-line fragment ending in HLT.
func buildLinear(t *testing.T) *Module {
	t.Helper()
	b := NewBuilder()
	b.BeginFragment("(main)")
	b.Label("start")
	b.Op(vm.MOV, vm.R(vm.EAX), vm.I(1))
	b.Op(vm.ADD, vm.R(vm.EAX), vm.I(2))
	b.Emit(vm.Instr{Op: vm.HLT})
	m := b.Module()
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func TestEmitToMatchesDirectBuilder(t *testing.T) {
	// The same instruction stream emitted through the IR (with blocks,
	// labels and a branch) and directly into a vm.Builder must produce
	// identical programs.
	b := NewBuilder()
	b.BeginFragment("(main)")
	b.Label("entry")
	b.Op(vm.MOV, vm.R(vm.EAX), vm.I(0))
	b.Label("loop")
	b.Op(vm.ADD, vm.R(vm.EAX), vm.I(1))
	b.Op(vm.CMP, vm.R(vm.EAX), vm.I(10))
	b.Jump(vm.JL, "loop")
	b.Emit(vm.Instr{Op: vm.HLT})
	m := b.Module()
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}

	vb := vm.NewBuilder()
	entry := m.EmitTo(vb, "(main)")
	if entry != 0 {
		t.Fatalf("entry = %d, want 0", entry)
	}
	got, err := vb.Finish("ir")
	if err != nil {
		t.Fatal(err)
	}

	db := vm.NewBuilder()
	db.Label("entry")
	db.Op(vm.MOV, vm.R(vm.EAX), vm.I(0))
	db.Label("loop")
	db.Op(vm.ADD, vm.R(vm.EAX), vm.I(1))
	db.Op(vm.CMP, vm.R(vm.EAX), vm.I(10))
	db.Jump(vm.JL, "loop")
	db.Emit(vm.Instr{Op: vm.HLT})
	want, err := db.Finish("direct")
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Instrs) != len(want.Instrs) {
		t.Fatalf("instr count %d vs %d", len(got.Instrs), len(want.Instrs))
	}
	for i := range got.Instrs {
		g, w := got.Instrs[i], want.Instrs[i]
		if g.Op != w.Op || g.Dst != w.Dst || g.Src != w.Src {
			t.Fatalf("instr %d differs: %+v vs %+v", i, g, w)
		}
	}
}

func TestBuilderSealsOnTerminators(t *testing.T) {
	b := NewBuilder()
	b.BeginFragment("f")
	b.Label("a")
	b.Op(vm.MOV, vm.R(vm.EAX), vm.I(1))
	b.Jump(vm.JMP, "b")
	b.Label("b")
	b.Emit(vm.Instr{Op: vm.RET})
	m := b.Module()
	f := m.Frags[0]
	if len(f.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2 (JMP must seal)", len(f.Blocks))
	}
	if len(f.Blocks[0].Instrs) != 2 || f.Blocks[0].Instrs[1].Op != vm.JMP {
		t.Fatalf("block 0 should end with the JMP: %+v", f.Blocks[0].Instrs)
	}
}

func TestVerifyRejectsMalformed(t *testing.T) {
	// Branch without a fixup label.
	b := NewBuilder()
	b.BeginFragment("f")
	b.Label("x")
	b.Emit(vm.Instr{Op: vm.JMP})
	b.Emit(vm.Instr{Op: vm.HLT})
	m := b.Module()
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "symbolic target") {
		t.Fatalf("want missing-target error, got %v", err)
	}

	// Duplicate label across fragments.
	b = NewBuilder()
	b.BeginFragment("f")
	b.Label("dup")
	b.Emit(vm.Instr{Op: vm.HLT})
	b.BeginFragment("g")
	b.Label("dup")
	b.Emit(vm.Instr{Op: vm.HLT})
	m = b.Module()
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "dup") {
		t.Fatalf("want duplicate-label error, got %v", err)
	}

	// Unresolved branch target.
	b = NewBuilder()
	b.BeginFragment("f")
	b.Label("x")
	b.Jump(vm.JMP, "nowhere")
	b.Emit(vm.Instr{Op: vm.HLT})
	m = b.Module()
	if err := Verify(m); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("want unresolved-target error, got %v", err)
	}

	// Fragment not ending in an unconditional exit.
	b = NewBuilder()
	b.BeginFragment("f")
	b.Label("x")
	b.Op(vm.MOV, vm.R(vm.EAX), vm.I(1))
	m = b.Module()
	if err := Verify(m); err == nil {
		t.Fatal("want missing-exit error, got nil")
	}
}

func TestCFGAndDominators(t *testing.T) {
	// Diamond: entry -> (then | else) -> join.
	b := NewBuilder()
	b.BeginFragment("f")
	b.Label("entry")
	b.Op(vm.CMP, vm.R(vm.EAX), vm.I(0))
	b.Jump(vm.JE, "else")
	b.Op(vm.MOV, vm.R(vm.EBX), vm.I(1))
	b.Jump(vm.JMP, "join")
	b.Label("else")
	b.Op(vm.MOV, vm.R(vm.EBX), vm.I(2))
	b.Label("join")
	b.Emit(vm.Instr{Op: vm.RET})
	m := b.Module()
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
	f := m.Frags[0]
	g := f.BuildCFG()
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
	entry, then, els, join := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if len(g.Succs[entry]) != 2 {
		t.Fatalf("entry succs = %d, want 2", len(g.Succs[entry]))
	}
	if len(g.Preds[join]) != 2 {
		t.Fatalf("join preds = %d, want 2", len(g.Preds[join]))
	}
	dom := g.Dominators()
	if !dom[join][entry] {
		t.Error("entry must dominate join")
	}
	if dom[join][then] || dom[join][els] {
		t.Error("neither branch arm may dominate the join")
	}
	if !dom[then][then] {
		t.Error("every block dominates itself")
	}
}

func TestLoopTreeAndMembership(t *testing.T) {
	b := NewBuilder()
	b.BeginFragment("f")
	b.Label("pre")
	b.Op(vm.MOV, vm.R(vm.EAX), vm.I(0))
	outer := b.BeginLoop()
	b.Label("outer")
	b.SetLoopHeader(outer)
	b.Op(vm.CMP, vm.R(vm.EAX), vm.I(10))
	b.Jump(vm.JGE, "done")
	inner := b.BeginLoop()
	b.Label("inner")
	b.SetLoopHeader(inner)
	b.Op(vm.ADD, vm.R(vm.EAX), vm.I(1))
	b.Op(vm.CMP, vm.R(vm.EAX), vm.I(5))
	b.Jump(vm.JL, "inner")
	b.EndLoop()
	b.Jump(vm.JMP, "outer")
	b.EndLoop()
	b.Label("done")
	b.Emit(vm.Instr{Op: vm.RET})
	m := b.Module()
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	f := m.Frags[0]
	if len(f.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(f.Loops))
	}
	if f.Loops[1].Parent != f.Loops[0] {
		t.Error("inner loop's parent must be the outer loop")
	}
	for _, l := range f.Loops {
		if l.Header == nil || l.Latch == nil {
			t.Fatalf("loop missing header/latch")
		}
		if !l.Contains(l.Header) || !l.Contains(l.Latch) {
			t.Error("header and latch must be members")
		}
	}
}

func TestInsertBeforeAndCompact(t *testing.T) {
	b := NewBuilder()
	b.BeginFragment("f")
	b.Label("a")
	b.Op(vm.MOV, vm.R(vm.EAX), vm.I(1))
	lp := b.BeginLoop()
	b.Label("h")
	b.SetLoopHeader(lp)
	b.Op(vm.ADD, vm.R(vm.EAX), vm.I(1))
	b.Op(vm.CMP, vm.R(vm.EAX), vm.I(3))
	b.Jump(vm.JL, "h")
	b.EndLoop()
	b.Emit(vm.Instr{Op: vm.HLT})
	m := b.Module()
	f := m.Frags[0]

	pre := &Block{Instrs: []Instr{{Instr: vm.Instr{Op: vm.MOV, Dst: vm.R(vm.EBX), Src: vm.I(7)}}}}
	if !f.InsertBefore(lp.Header, []*Block{pre}) {
		t.Fatal("InsertBefore failed to find the header")
	}
	if err := Verify(m); err != nil {
		t.Fatalf("verify after insert: %v", err)
	}
	// The preheader must execute before the loop: it precedes the header
	// in layout.
	var preIdx, headIdx int = -1, -1
	for i, blk := range f.Blocks {
		if blk == pre {
			preIdx = i
		}
		if blk == lp.Header {
			headIdx = i
		}
	}
	if preIdx == -1 || headIdx != preIdx+1 {
		t.Fatalf("preheader at %d, header at %d; want adjacent", preIdx, headIdx)
	}

	// Deleting a block's instructions and compacting removes it.
	pre.Instrs = nil
	before := len(f.Blocks)
	f.Compact()
	if len(f.Blocks) != before-1 {
		t.Fatalf("Compact kept the empty block: %d -> %d", before, len(f.Blocks))
	}
	if err := Verify(m); err != nil {
		t.Fatalf("verify after compact: %v", err)
	}
}

func TestInsertPreheaderJoinsEnclosingLoops(t *testing.T) {
	b := NewBuilder()
	b.BeginFragment("f")
	outer := b.BeginLoop()
	b.Label("oh")
	b.SetLoopHeader(outer)
	b.Op(vm.MOV, vm.R(vm.EAX), vm.I(0))
	inner := b.BeginLoop()
	b.Label("ih")
	b.SetLoopHeader(inner)
	b.Op(vm.ADD, vm.R(vm.EAX), vm.I(1))
	b.Op(vm.CMP, vm.R(vm.EAX), vm.I(3))
	b.Jump(vm.JL, "ih")
	b.EndLoop()
	b.Jump(vm.JMP, "oh")
	b.EndLoop()
	b.Emit(vm.Instr{Op: vm.HLT})
	m := b.Module()
	f := m.Frags[0]

	pre := &Block{Instrs: []Instr{{Instr: vm.Instr{Op: vm.MOV, Dst: vm.R(vm.EBX), Src: vm.I(7)}}}}
	f.InsertPreheader(inner, []*Block{pre})
	if err := Verify(m); err != nil {
		t.Fatalf("verify after insert: %v", err)
	}
	for i, blk := range f.Blocks {
		if blk == pre && (i+1 >= len(f.Blocks) || f.Blocks[i+1] != inner.Header) {
			t.Fatalf("preheader at %d is not right before the inner header", i)
		}
	}
	if !outer.Contains(pre) || inner.Contains(pre) {
		t.Fatalf("preheader membership: outer %v inner %v, want true false", outer.Contains(pre), inner.Contains(pre))
	}
}

func TestEmitToResolvesSegments(t *testing.T) {
	// Memory operands with segment overrides survive the replay.
	b := NewBuilder()
	b.BeginFragment("(main)")
	b.Label("s")
	b.Op(vm.MOV, vm.R(vm.EAX), vm.M(vm.MemRef{Seg: x86seg.ES, Base: vm.EBX, HasBase: true}))
	b.Emit(vm.Instr{Op: vm.HLT})
	m := buildModuleOK(t, b)
	vb := vm.NewBuilder()
	m.EmitTo(vb, "(main)")
	p, err := vb.Finish("t")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Src.Mem.Seg != x86seg.ES {
		t.Fatalf("segment override lost: %+v", p.Instrs[0])
	}
}

func buildModuleOK(t *testing.T, b *Builder) *Module {
	t.Helper()
	m := b.Module()
	if err := Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLinearModule(t *testing.T) {
	m := buildLinear(t)
	vb := vm.NewBuilder()
	if at := m.EmitTo(vb, "(main)"); at != 0 {
		t.Fatalf("entry = %d", at)
	}
	if _, err := vb.Finish("t"); err != nil {
		t.Fatal(err)
	}
}
