package codegen

import (
	"fmt"

	"cash/internal/ir"
	"cash/internal/minic"
	"cash/internal/vm"
	"cash/internal/x86seg"
)

// The back end is a three-stage pipeline:
//
//	lower     AST -> ir.Module     (strategy-parameterised, strategy.go)
//	passes    ir.Module -> ir.Module (optional, rce.go / hoist.go)
//	emit      ir.Module -> vm.Program (ir.Module.EmitTo replay)
//
// ir.Verify runs after lowering and after every pass. With no passes
// configured the emission replay is byte-identical to the historical
// direct-emission back end, which the golden tests pin.

// Pass is one optional IR-to-IR optimization pass. Passes run in the
// fixed registry order (rce before hoist before affine) regardless of
// the order names appear in Config.Passes.
type Pass interface {
	Name() string
	run(c *compiler, m *ir.Module) error
}

// passRegistry lists every available pass in canonical execution order.
var passRegistry = []Pass{rcePass{}, hoistPass{}, affinePass{}, chopPass{}}

// PassNames returns the valid Config.Passes entries in canonical order.
func PassNames() []string {
	names := make([]string, len(passRegistry))
	for i, p := range passRegistry {
		names[i] = p.Name()
	}
	return names
}

// validate resolves and checks the configuration: mode known, segment
// register budget well-formed (no duplicates, only array-capable
// registers, SS — which forces the stack-addressing rewrite — last so
// the budget order matches FCFS assignment), pass names known and not
// repeated. A bad budget used to miscompile silently; now it errors.
func (cfg Config) validate() ([]x86seg.SegReg, []Pass, error) {
	if cfg.Mode == 0 {
		return nil, nil, fmt.Errorf("codegen: config missing mode")
	}
	if _, ok := strategies[cfg.Mode]; !ok {
		return nil, nil, fmt.Errorf("codegen: unknown mode %d", cfg.Mode)
	}
	segRegs := cfg.SegRegs
	if segRegs == nil {
		segRegs = DefaultSegRegs
	}
	seen := make(map[x86seg.SegReg]bool, len(segRegs))
	for i, r := range segRegs {
		switch r {
		case x86seg.ES, x86seg.FS, x86seg.GS:
		case x86seg.SS:
			if i != len(segRegs)-1 {
				return nil, nil, fmt.Errorf("codegen: SS must be the last segment register in the budget (got position %d)", i)
			}
		default:
			return nil, nil, fmt.Errorf("codegen: segment register %v cannot hold array segments", r)
		}
		if seen[r] {
			return nil, nil, fmt.Errorf("codegen: duplicate segment register %v in budget", r)
		}
		seen[r] = true
	}
	want := make(map[string]bool, len(cfg.Passes))
	for _, name := range cfg.Passes {
		known := false
		for _, p := range passRegistry {
			if p.Name() == name {
				known = true
				break
			}
		}
		if !known {
			return nil, nil, fmt.Errorf("codegen: unknown pass %q (have %v)", name, PassNames())
		}
		if want[name] {
			return nil, nil, fmt.Errorf("codegen: duplicate pass %q", name)
		}
		want[name] = true
	}
	var passes []Pass
	for _, p := range passRegistry {
		if want[p.Name()] {
			passes = append(passes, p)
		}
	}
	return segRegs, passes, nil
}

// Compile type-checks nothing: the caller must run minic.Check first.
// It returns a runnable vm.Program.
func Compile(prog *minic.Program, cfg Config) (*vm.Program, error) {
	p, _, err := CompileIR(prog, cfg)
	return p, err
}

// CompileIR compiles like Compile but also returns the optimized IR
// module (for -dump-ir and the tests).
func CompileIR(prog *minic.Program, cfg Config) (*vm.Program, *ir.Module, error) {
	segRegs, passes, err := cfg.validate()
	if err != nil {
		return nil, nil, err
	}
	stackSeg := x86seg.SS
	for _, r := range segRegs {
		if r == x86seg.SS {
			stackSeg = x86seg.DS
		}
	}
	wantHoist, wantAffine, wantChop := false, false, false
	for _, p := range passes {
		switch p.Name() {
		case "hoist":
			wantHoist = true
		case "affine":
			wantAffine = true
		case "chop":
			wantChop = true
		}
	}
	c := &compiler{
		cfg:        cfg,
		strat:      strategies[cfg.Mode],
		segRegs:    segRegs,
		stackSeg:   stackSeg,
		src:        prog,
		b:          ir.NewBuilder(),
		boundsPool: make(map[[2]uint32]uint32),
		gInfo:      make(map[*minic.VarDecl]uint32),
		localInfo:  make(map[*minic.VarDecl]int32),
		checks:     make(map[int]*checkRec),
		deadChecks: make(map[int]bool),
		declID:     make(map[*minic.VarDecl]int),
		wantHoist:  wantHoist,
		wantAffine: wantAffine,
		wantChop:   wantChop,
		stats:      make(map[string]uint64),
	}
	if err := c.layoutGlobals(); err != nil {
		return nil, nil, err
	}
	for _, fn := range prog.Funcs {
		if err := c.genFunc(fn); err != nil {
			return nil, nil, fmt.Errorf("function %s: %w", fn.Name, err)
		}
	}
	c.genTrap()
	c.genStartup()
	mod := c.b.Module()
	if err := ir.Verify(mod); err != nil {
		return nil, nil, fmt.Errorf("codegen: after lowering: %w", err)
	}
	for _, pass := range passes {
		if err := pass.run(c, mod); err != nil {
			return nil, nil, fmt.Errorf("codegen: pass %s: %w", pass.Name(), err)
		}
		if err := ir.Verify(mod); err != nil {
			return nil, nil, fmt.Errorf("codegen: after pass %s: %w", pass.Name(), err)
		}
	}
	vb := vm.NewBuilder()
	entry := mod.EmitTo(vb, startupFragment)
	p, err := vb.Finish("program")
	if err != nil {
		return nil, nil, err
	}
	p.Entry = entry
	p.Mode = cfg.Mode.String()
	p.Data = c.data
	p.DataBase = DataBase
	heap := (DataBase + uint32(len(c.data)) + 0xfff) &^ 0xfff
	p.HeapBase = heap + 0x1000
	p.StackTop = StackTop
	for k, v := range c.stats {
		p.Stats[k] = v
	}
	// Superblock hints for tier-2 execution: advisory loop spans in the
	// exact offsets the EmitTo replay above assigned. Attached for every
	// build — a machine uses them unless pinned to the step interpreter
	// (Options.StepOnly).
	p.Regions = mod.SuperblockHints()
	if cfg.Oracle {
		if p.Sites, err = c.siteTable(mod, len(p.Instrs)); err != nil {
			return nil, nil, err
		}
	}
	return p, mod, nil
}

// ---------------------------------------------------------------------
// Check provenance. Every emitted software check carries a fresh check
// id (stamped onto its instructions via ir.Builder.SetCheck); declared-
// object references additionally record a canonical (object, index) key
// and the scalar variables it reads, which is what the redundancy
// analysis reasons over.

// checkRec describes one emitted software check.
type checkRec struct {
	id   int
	decl *minic.VarDecl // checked object; nil for computed references
	// key canonically renders "object + scaled index". Empty means the
	// check is not eligible for redundancy elimination (impure index,
	// register-metadata check, synthesized preheader check).
	key  string
	vars []*minic.VarDecl // scalar variables the key reads
}

func (c *compiler) newCheck() int {
	c.checkSeq++
	return c.checkSeq
}

// checkedDeclRef emits the mode's software check for a declared-object
// reference whose address is in addr, recording provenance for the
// passes: check id, redundancy key, and hoist candidacy.
func (c *compiler) checkedDeclRef(addr vm.Reg, d *minic.VarDecl, idx minic.Expr, idxConst int32, idxReg bool) {
	id := c.newCheck()
	rec := &checkRec{id: id, decl: d}
	rec.key, rec.vars = c.indexKey(d, idx, idxConst, idxReg)
	c.checks[id] = rec
	c.noteHoistRef(d, idx, idxConst, idxReg, id)
	c.noteAffineRef(d, idx, idxConst, idxReg, id)
	c.noteChopRef(d, idx, idxConst, idxReg, id)
	prev := c.b.SetCheck(id)
	c.strat.emitCheckForDecl(c, addr, d)
	c.b.SetCheck(prev)
}

// emitCheckForDecl emits the mode's software check without provenance
// beyond an anonymous id (used by the hoist pass for its synthesized
// range checks).
func (c *compiler) emitCheckForDecl(addr vm.Reg, d *minic.VarDecl) {
	id := c.newCheck()
	c.checks[id] = &checkRec{id: id, decl: d}
	prev := c.b.SetCheck(id)
	c.strat.emitCheckForDecl(c, addr, d)
	c.b.SetCheck(prev)
}

// declKey assigns per-function ordinals to declarations so canonical
// keys are deterministic.
func (c *compiler) declKey(d *minic.VarDecl) int {
	id, ok := c.declID[d]
	if !ok {
		id = len(c.declID) + 1
		c.declID[d] = id
	}
	return id
}

// indexKey renders the reference's scaled index canonically. Constant
// indices fold into idxConst; otherwise the index expression must be a
// pure scalar computation (no memory reads beyond named int/char
// scalars, no side effects) — anything else returns an empty key, which
// marks the check ineligible for elimination. Purity matters: a key may
// only stop matching through stores the dataflow can see (scalar slots,
// tracked object slots), so an index like a[b[i]] must not form a key.
func (c *compiler) indexKey(d *minic.VarDecl, idx minic.Expr, idxConst int32, idxReg bool) (string, []*minic.VarDecl) {
	base := fmt.Sprintf("d%d:%d|", c.declKey(d), idxConst)
	if idx == nil || !idxReg {
		return base, nil
	}
	var vars []*minic.VarDecl
	s, ok := c.canonExpr(idx, &vars)
	if !ok {
		return "", nil
	}
	return base + s, vars
}

// canonExpr renders a pure scalar expression canonically, accumulating
// the scalar variables it reads. Returns ok=false for anything impure.
func (c *compiler) canonExpr(e minic.Expr, vars *[]*minic.VarDecl) (string, bool) {
	switch e := e.(type) {
	case *minic.NumberLit:
		return fmt.Sprintf("#%d", e.Value), true
	case *minic.VarRef:
		d := e.Decl
		if d == nil || (d.Type != minic.Int && d.Type != minic.Char) {
			return "", false
		}
		*vars = append(*vars, d)
		return fmt.Sprintf("v%d", c.declKey(d)), true
	case *minic.Unary:
		switch e.Op {
		case "-", "~", "!":
		default:
			return "", false
		}
		x, ok := c.canonExpr(e.X, vars)
		if !ok {
			return "", false
		}
		return e.Op + x, true
	case *minic.Binary:
		switch e.Op {
		case "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
			"==", "!=", "<", "<=", ">", ">=", "&&", "||":
		default:
			return "", false
		}
		x, ok := c.canonExpr(e.X, vars)
		if !ok {
			return "", false
		}
		y, ok := c.canonExpr(e.Y, vars)
		if !ok {
			return "", false
		}
		return "(" + x + e.Op + y + ")", true
	case *minic.Cast:
		if e.To.Kind == minic.TypePointer {
			return "", false
		}
		return c.canonExpr(e.X, vars)
	default:
		return "", false
	}
}

// refTag annotates the memory operands a reference hands out; the
// passes use it to judge what a store through the operand can touch.
type refTag struct {
	decl *minic.VarDecl
	// exact means the access was bound-checked against the declared
	// array's true storage (software check on a direct array, or a
	// segment-checked direct array), so an in-flight store cannot land
	// on scalar or pointer slots. Unchecked, pointer-mediated and
	// computed accesses are inexact: their store can hit anything.
	exact bool
}

// exactRef reports whether an instruction's tag marks an exact
// reference, in either tag form (refTag, or an oracle build's siteTag).
func exactRef(tag any) bool {
	switch t := tag.(type) {
	case refTag:
		return t.exact
	case *siteTag:
		return t.exact
	}
	return false
}

// condEnter / condExit bracket conditionally-executed code (if branches,
// nested loops, short-circuit right operands) for the active hoist
// candidates: a reference qualifies for hoisting only when it executes
// unconditionally in every iteration of the candidate loop.
func (c *compiler) condEnter() {
	for _, h := range c.hoistCands {
		h.depth++
	}
}

func (c *compiler) condExit() {
	for _, h := range c.hoistCands {
		h.depth--
	}
}

// fnState snapshots the per-function context the passes need after
// lowering has moved on to the next function.
type fnState struct {
	fn       *minic.FuncDecl
	frag     *ir.Fragment
	frameOff map[*minic.VarDecl]int32
	temps    map[int32]bool // EBP offsets of compiler-internal hoist slots
	hoists   []*hoistCand
	// affineRefs are the candidate computed-index references recorded
	// for the affine pass (affine.go), in lowering order.
	affineRefs []*affineRef
	// chopRefs maps check ids to the direct-array reference shapes the
	// chop pass can consolidate (chop.go).
	chopRefs map[int]*chopRef
}
