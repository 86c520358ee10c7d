// Package core is the heart of the Cash reproduction: it ties the mini-C
// front end, the registered checking strategies and the simulated machine
// together into the workflow the paper evaluates — compile a program
// under each strategy (unchecked gcc, software-checked bcc,
// segmentation-checked cash, MPX-style mpx), run it, and compare cycle
// counts, check counts, code sizes and detection behaviour.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cash/internal/codegen"
	"cash/internal/ir"
	"cash/internal/ldt"
	"cash/internal/minic"
	"cash/internal/obs"
	"cash/internal/vm"
	"cash/internal/x86seg"
)

// Workflow-level metrics in the shared observability registry: how many
// artifacts were built per mode, how many executed, and the two
// coverage-loss signals the paper cares about (spilled loop iterations,
// §3.7, and flat-segment fallbacks on LDT exhaustion, §3.4).
var (
	mBuildsGCC  = obs.Default().Counter("core.builds.gcc")
	mBuildsBCC  = obs.Default().Counter("core.builds.bcc")
	mBuildsCash = obs.Default().Counter("core.builds.cash")
	mRuns       = obs.Default().Counter("core.runs")
	mViolations = obs.Default().Counter("core.violations")
	mSpilled    = obs.Default().Counter("core.segment_spilled_iters")
	mFlatFalls  = obs.Default().Counter("core.flat_fallbacks")
)

// mBuildsOther counts builds of strategies beyond the classic three
// (Mode -> *atomic.Uint64). Deliberately NOT in the obs registry: the
// registry's metric set is static per process — the metrics-delta
// goldens and the parallel-determinism diff depend on that — so a
// strategy registered after those goldens were pinned must not add a
// registry line. BuildsOf exposes the counts to tests.
var mBuildsOther sync.Map

func countBuild(mode Mode) {
	switch mode {
	case ModeGCC:
		mBuildsGCC.Inc()
	case ModeBCC:
		mBuildsBCC.Inc()
	case ModeCash:
		mBuildsCash.Inc()
	default:
		c, ok := mBuildsOther.Load(mode)
		if !ok {
			c, _ = mBuildsOther.LoadOrStore(mode, new(atomic.Uint64))
		}
		c.(*atomic.Uint64).Add(1)
	}
}

// BuildsOf reports how many builds (including cached ones, see
// NoteCachedBuild) this process requested under the given strategy.
// For the classic three the count is also published as the
// core.builds.* metric.
func BuildsOf(mode Mode) uint64 {
	switch mode {
	case ModeGCC:
		return mBuildsGCC.Value()
	case ModeBCC:
		return mBuildsBCC.Value()
	case ModeCash:
		return mBuildsCash.Value()
	}
	if c, ok := mBuildsOther.Load(mode); ok {
		return c.(*atomic.Uint64).Load()
	}
	return 0
}

// NoteCachedBuild records a logical build that was satisfied without
// compiling — an artifact-cache hit or a coalesced concurrent build in
// the serving engine. The core.builds.* counters thereby keep counting
// requests, not compiles, so their values are independent of cache
// state; the engine's own serve.cache.* counters carry the hit/miss
// split.
func NoteCachedBuild(mode Mode) { countBuild(mode) }

// Mode names a checking strategy from the codegen registry ("gcc",
// "bcc", "cash", "mpx" — see Strategies). It used to be a closed enum
// aliasing the vm execution mode; it is now the strategy name itself,
// so the constants below compare equal to their plain string
// spellings and any registered strategy can be requested by name.
type Mode string

// The registered checking strategies. The list is open-ended; these
// constants cover the built-in strategies.
const (
	ModeGCC  Mode = "gcc"
	ModeBCC  Mode = "bcc"
	ModeCash Mode = "cash"
	ModeMPX  Mode = "mpx"
)

// String returns the strategy name. Mode used to be an integer enum
// whose String method rendered these same names; keeping the method
// preserves %v formatting and callers that stringify modes explicitly.
func (m Mode) String() string { return string(m) }

// StrategyInfo describes one registered checking strategy.
type StrategyInfo = codegen.StrategyInfo

// Strategy kinds (StrategyInfo.Kind).
const (
	KindLowering = codegen.KindLowering
	KindHardware = codegen.KindHardware
)

// Strategies lists every registered checking strategy in registration
// order.
func Strategies() []StrategyInfo { return codegen.Strategies() }

// StrategyNames lists the registered strategy names in registration
// order — the valid Mode values.
func StrategyNames() []string { return codegen.StrategyNames() }

// resolve maps the strategy name to its registry entry, with the
// canonical unknown-name error (which lists the valid names).
func (m Mode) resolve() (StrategyInfo, error) {
	info, ok := codegen.StrategyByName(string(m))
	if !ok {
		return StrategyInfo{}, codegen.UnknownStrategyError(string(m))
	}
	return info, nil
}

// Options tunes a build.
type Options struct {
	// SegRegs is the Cash segment-register budget (2, 3 or 4 registers);
	// 0 means the prototype default of 3 (ES, FS, GS). 4 adds SS (§3.7).
	SegRegs int
	// SkipReadChecks enables the §3.8 security-only variant.
	SkipReadChecks bool
	// UseBoundInstr makes software checks use the IA-32 bound
	// instruction (7 cycles) instead of the 6-instruction sequence —
	// the §2 ablation explaining why bound lost.
	UseBoundInstr bool
	// WithoutCallGate runs without the Cash kernel patch: segment
	// allocations pay the stock modify_ldt cost (§3.6 ablation).
	WithoutCallGate bool
	// ElectricFence replaces malloc with the guard-page debugger of the
	// paper's related work (§2): heap objects end at a page boundary
	// followed by an unmapped page. Enables paging. Detects heap
	// overruns only, at a two-pages-per-allocation space cost.
	ElectricFence bool
	// Passes names the IR optimization passes to run in the back end
	// (see codegen.PassNames): "rce" eliminates redundant software
	// checks, "hoist" moves loop-invariant checks into a preheader,
	// "affine" replaces checks on affine computed indices (i*c1 + j*c2
	// + c3 over counted-loop nests) with convex-hull endpoint checks.
	// Order and duplicates are normalised away; empty keeps the output
	// byte-identical to the historical direct back end.
	Passes []string
	// StepLimit bounds execution; 0 means the VM default.
	StepLimit uint64
	// StepOnly pins execution to the step interpreter. By default the
	// compiler's loop regions run as superblocks (tier 2): fused into
	// single closures with bulk counter accounting, deopting to the step
	// interpreter at precise instruction boundaries on any fault or side
	// exit. Simulated output, counters and violation verdicts are
	// identical either way; only host speed changes, so this is the off
	// switch for the differential lanes that compare the two.
	StepOnly bool
	// Oracle builds the program with the overflow oracle's site table
	// (codegen.Config.Oracle): the artifact's machines run step-only and
	// stop at the first array reference that leaves its object after the
	// strategy's own check let it through, with a
	// vm.FaultUncaughtOverflow naming the reference. The emitted code is
	// unchanged. The detector table's probes set it; everything else
	// leaves it off, and oracle artifacts are never persisted.
	Oracle bool
	// EventTrace, when non-nil, receives structured machine events
	// (segment-register loads, descriptor installs/evicts, faults, LDT
	// traffic) from every machine the artifact creates. Nil — the
	// default — keeps event emission entirely off the hot paths.
	EventTrace *obs.Trace
}

func (o Options) segRegs() ([]x86seg.SegReg, error) {
	switch o.SegRegs {
	case 0, 3:
		return codegen.DefaultSegRegs, nil
	case 2:
		return codegen.DefaultSegRegs[:2], nil
	case 4:
		return codegen.SegRegsWithSS, nil
	default:
		return nil, fmt.Errorf("core: unsupported segment register budget %d", o.SegRegs)
	}
}

// NormalizePasses canonicalises a pass list: known names only, each at
// most once, in the registry's execution order. The serving layer hashes
// the result into artifact content addresses, so "hoist,rce" and
// ["rce","hoist"] share one cache entry.
func NormalizePasses(passes []string) ([]string, error) {
	want := make(map[string]bool, len(passes))
	for _, name := range passes {
		known := false
		for _, p := range codegen.PassNames() {
			if p == name {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("core: unknown pass %q (have %v)", name, codegen.PassNames())
		}
		want[name] = true
	}
	var out []string
	for _, p := range codegen.PassNames() {
		if want[p] {
			out = append(out, p)
		}
	}
	return out, nil
}

// Artifact is a compiled program for one checking strategy.
type Artifact struct {
	Mode    Mode
	Program *vm.Program
	AST     *minic.Program
	ir      *ir.Module
	vmMode  vm.Mode
	opts    Options
}

// Build parses, checks and compiles source for the named strategy.
func Build(source string, mode Mode, opts Options) (*Artifact, error) {
	info, err := mode.resolve()
	if err != nil {
		return nil, err
	}
	ast, err := minic.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if err := minic.Check(ast); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	regs, err := opts.segRegs()
	if err != nil {
		return nil, err
	}
	passes, err := NormalizePasses(opts.Passes)
	if err != nil {
		return nil, err
	}
	opts.Passes = passes
	prog, mod, err := codegen.CompileIR(ast, codegen.Config{
		Mode:           info.Mode,
		SegRegs:        regs,
		SkipReadChecks: opts.SkipReadChecks,
		UseBoundInstr:  opts.UseBoundInstr,
		Passes:         passes,
		Oracle:         opts.Oracle,
	})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	countBuild(mode)
	return &Artifact{Mode: mode, Program: prog, AST: ast, ir: mod, vmMode: info.Mode, opts: opts}, nil
}

// CodeSize returns the estimated binary text size in bytes.
func (a *Artifact) CodeSize() int { return a.Program.CodeSize() }

// Options returns the build options the artifact was compiled with.
func (a *Artifact) Options() Options { return a.opts }

// WithEventTrace returns a shallow copy of the artifact whose machines
// emit into tr (the compiled Program is shared — predecoding happens
// once). The serving engine uses it to attach a request's trace to a
// cached, trace-free artifact.
func (a *Artifact) WithEventTrace(tr *obs.Trace) *Artifact {
	clone := *a
	clone.opts.EventTrace = tr
	return &clone
}

// StaticStats exposes the code generator's static counters.
func (a *Artifact) StaticStats() map[string]uint64 { return a.Program.Stats }

// DumpIR renders the optimized IR module the program was emitted from.
// Artifacts decoded from the disk store or served by an Engine carry no
// IR and render as the empty string.
func (a *Artifact) DumpIR() string {
	if a.ir == nil {
		return ""
	}
	return a.ir.Dump()
}

// DropIR releases the optimized IR module, which only DumpIR reads and
// which outweighs the compiled Program. Callers that retain artifacts
// (the serving engine's cache) drop it before publishing the artifact;
// DumpIR then returns "".
func (a *Artifact) DropIR() { a.ir = nil }

// DumpSuperblocks renders the tier-2 superblocks compiled from the
// program's region hints (compiling them if no machine has yet).
func (a *Artifact) DumpSuperblocks() string { return a.Program.DumpSuperblocks() }

// Disassemble renders the generated code.
func (a *Artifact) Disassemble() string { return a.Program.Disassemble() }

// NewMachine prepares a machine for the artifact; release it with
// Machine.Release after its last use.
func (a *Artifact) NewMachine(extra ...vm.Option) (*vm.Machine, error) {
	opts := make([]vm.Option, 0, 4+len(extra))
	if a.opts.StepLimit > 0 {
		opts = append(opts, vm.WithStepLimit(a.opts.StepLimit))
	}
	if a.opts.EventTrace != nil {
		opts = append(opts, vm.WithEventTrace(a.opts.EventTrace))
	}
	if a.opts.WithoutCallGate {
		opts = append(opts, vm.WithoutCallGate())
	}
	if a.opts.ElectricFence {
		opts = append(opts, vm.WithPaging(64<<20), vm.WithElectricFence())
	}
	if a.opts.StepOnly {
		opts = append(opts, vm.WithoutTier2())
	}
	opts = append(opts, extra...)
	return vm.New(a.Program, a.vmMode, opts...)
}

// RunResult is the outcome of executing an artifact once.
type RunResult struct {
	*vm.Result
	// Violation is non-nil when execution stopped on a detected array
	// bound violation (hardware #GP, software check, or — under
	// ElectricFence — a guard-page fault).
	Violation *vm.Fault
	// HeapSpan is the heap address space the run consumed.
	HeapSpan uint32
}

// Run executes the artifact on a new machine. Detected bound violations
// are reported in the result, not as an error; any other fault is an
// error. The machine is released after the run, so its parts are
// recycled into the next one (reset first, so each run still observes
// fresh-machine semantics).
func (a *Artifact) Run(extra ...vm.Option) (*RunResult, error) {
	m, err := a.NewMachine(extra...)
	if err != nil {
		return nil, err
	}
	defer m.Release()
	return a.RunOn(m)
}

// RunOn executes the artifact on a machine the caller already prepared
// (via NewMachine) and classifies the outcome exactly as Run does. The
// caller keeps ownership of the machine and releases it.
func (a *Artifact) RunOn(m *vm.Machine) (*RunResult, error) {
	res, runErr := m.Run()
	out := &RunResult{Result: res, HeapSpan: m.HeapSpan()}
	mRuns.Inc()
	if res != nil {
		mSpilled.Add(res.Stats.SpilledIters)
		mFlatFalls.Add(res.Stats.FlatFallbacks)
	}
	if runErr != nil {
		f, ok := runErr.(*vm.Fault)
		if ok && (f.IsBoundViolation() || m.IsGuardFault(f)) {
			out.Violation = f
			mViolations.Inc()
			return out, nil
		}
		return out, runErr
	}
	return out, nil
}

// ModeReport captures one mode's measurements for a comparison.
type ModeReport struct {
	Mode     Mode
	Cycles   uint64
	CodeSize int
	Output   []int32
	Stats    vm.Stats
	LDTStats ldt.Stats
	StaticHW uint64
	StaticSW uint64
}

// Comparison is a multi-strategy evaluation of one program — one row of
// the paper's tables. Reports holds one entry per compared strategy in
// request order; the first is the baseline. The GCC, BCC and Cash fields
// mirror the classic three-mode comparison and are filled whenever the
// corresponding strategy was among those compared.
type Comparison struct {
	Name    string
	Reports []ModeReport
	GCC     ModeReport
	BCC     ModeReport
	Cash    ModeReport
}

// Report returns the report for the named strategy, if it was compared.
func (c *Comparison) Report(strategy string) (ModeReport, bool) {
	for _, r := range c.Reports {
		if string(r.Mode) == strategy {
			return r, true
		}
	}
	return ModeReport{}, false
}

// OverheadPct returns the named strategy's execution-time overhead over
// the comparison baseline (the first compared strategy) in percent, or 0
// if the strategy was not compared.
func (c *Comparison) OverheadPct(strategy string) float64 {
	r, ok := c.Report(strategy)
	if !ok || len(c.Reports) == 0 {
		return 0
	}
	return overheadPct(r.Cycles, c.Reports[0].Cycles)
}

// SizeOverheadPct returns the named strategy's binary-size overhead over
// the comparison baseline in percent, or 0 if it was not compared.
func (c *Comparison) SizeOverheadPct(strategy string) float64 {
	r, ok := c.Report(strategy)
	if !ok || len(c.Reports) == 0 {
		return 0
	}
	return overheadPct(uint64(r.CodeSize), uint64(c.Reports[0].CodeSize))
}

// CashOverheadPct returns Cash's execution-time overhead over GCC in
// percent.
func (c *Comparison) CashOverheadPct() float64 {
	return overheadPct(c.Cash.Cycles, c.GCC.Cycles)
}

// BCCOverheadPct returns BCC's execution-time overhead over GCC in
// percent.
func (c *Comparison) BCCOverheadPct() float64 {
	return overheadPct(c.BCC.Cycles, c.GCC.Cycles)
}

// CashSizeOverheadPct and BCCSizeOverheadPct return binary-size overheads
// in percent (Tables 2 and 6).
func (c *Comparison) CashSizeOverheadPct() float64 {
	return overheadPct(uint64(c.Cash.CodeSize), uint64(c.GCC.CodeSize))
}

// BCCSizeOverheadPct returns BCC's binary-size overhead in percent.
func (c *Comparison) BCCSizeOverheadPct() float64 {
	return overheadPct(uint64(c.BCC.CodeSize), uint64(c.GCC.CodeSize))
}

func overheadPct(v, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return (float64(v) - float64(base)) / float64(base) * 100
}

// Runner abstracts how a comparison obtains and executes artifacts, so
// the same three-mode workflow can run either directly (build and run
// from scratch, the Compare default) or through a serving engine that
// caches artifacts and pools machines.
type Runner interface {
	BuildArtifact(source string, mode Mode, opts Options) (*Artifact, error)
	RunArtifact(art *Artifact) (*RunResult, error)
}

// directRunner is the Runner Compare uses: no caching, fresh machines.
type directRunner struct{}

func (directRunner) BuildArtifact(source string, mode Mode, opts Options) (*Artifact, error) {
	return Build(source, mode, opts)
}

func (directRunner) RunArtifact(art *Artifact) (*RunResult, error) { return art.Run() }

// CompareConfig configures a multi-strategy comparison.
type CompareConfig struct {
	// Strategies names the checking strategies to compare, in order. The
	// first is the baseline: every other strategy's output must match it,
	// and overhead percentages are relative to it. Empty means the
	// classic gcc, bcc, cash trio.
	Strategies []string
	// Options tunes every build in the comparison.
	Options Options
}

// DefaultCompareStrategies is the strategy set an empty
// CompareConfig.Strategies compares — the paper's three-column tables.
var DefaultCompareStrategies = []string{string(ModeGCC), string(ModeBCC), string(ModeCash)}

// CompareStrategies builds and runs source under every named strategy and
// checks that all executions produce output identical to the baseline
// (they must, for a bound-respecting program).
func CompareStrategies(name, source string, cfg CompareConfig) (*Comparison, error) {
	return CompareStrategiesUsing(directRunner{}, name, source, cfg)
}

// CompareStrategiesUsing is CompareStrategies with the build/run steps
// delegated to r.
func CompareStrategiesUsing(r Runner, name, source string, cfg CompareConfig) (*Comparison, error) {
	strategies := cfg.Strategies
	if len(strategies) == 0 {
		strategies = DefaultCompareStrategies
	}
	cmp := &Comparison{Name: name}
	for _, s := range strategies {
		mode := Mode(s)
		if _, err := mode.resolve(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		art, err := r.BuildArtifact(source, mode, cfg.Options)
		if err != nil {
			return nil, fmt.Errorf("%s [%v]: %w", name, mode, err)
		}
		res, err := r.RunArtifact(art)
		if err != nil {
			return nil, fmt.Errorf("%s [%v]: run: %w", name, mode, err)
		}
		if res.Violation != nil {
			return nil, fmt.Errorf("%s [%v]: unexpected bound violation: %v", name, mode, res.Violation)
		}
		report := ModeReport{
			Mode:     mode,
			Cycles:   res.Cycles,
			CodeSize: art.CodeSize(),
			Output:   res.Output,
			Stats:    res.Stats,
			LDTStats: res.LDTStats,
			StaticHW: art.Program.Stats[codegen.StatHWChecks],
			StaticSW: art.Program.Stats[codegen.StatSWChecks],
		}
		cmp.Reports = append(cmp.Reports, report)
		switch mode {
		case ModeGCC:
			cmp.GCC = report
		case ModeBCC:
			cmp.BCC = report
		case ModeCash:
			cmp.Cash = report
		}
	}
	base := cmp.Reports[0]
	for _, rep := range cmp.Reports[1:] {
		if err := sameOutput(base.Output, rep.Output); err != nil {
			return nil, fmt.Errorf("%s: %s output differs from %s: %w",
				name, rep.Mode, base.Mode, err)
		}
	}
	return cmp, nil
}

// Compare builds and runs source under the classic three modes and checks
// that the three executions produce identical program output.
//
// Deprecated: Use CompareStrategies, which accepts any registered
// strategy set. This wrapper keeps working and compares gcc, bcc, cash.
func Compare(name, source string, opts Options) (*Comparison, error) {
	return CompareStrategies(name, source, CompareConfig{Options: opts})
}

func sameOutput(a, b []int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("element %d: %d vs %d", i, a[i], b[i])
		}
	}
	return nil
}

// LoopCharacteristics reports the static loop statistics of a program for
// the paper's Tables 4 and 7: total array-using loops and loops that use
// more than budget distinct arrays ("spilled loops").
type LoopCharacteristics struct {
	Lines           int
	ArrayUsingLoops int
	SpilledLoops    int
}

// Characterize computes the static characteristics of a mini-C source
// with the given segment-register budget (3 in the paper's tables).
func Characterize(source string, budget int) (LoopCharacteristics, error) {
	ast, err := minic.Parse(source)
	if err != nil {
		return LoopCharacteristics{}, err
	}
	if err := minic.Check(ast); err != nil {
		return LoopCharacteristics{}, err
	}
	st := codegen.AnalyzeLoopStats(ast, budget)
	return LoopCharacteristics{
		Lines:           minic.LineCount(source),
		ArrayUsingLoops: st.ArrayUsingLoops,
		SpilledLoops:    st.SpilledLoops,
	}, nil
}
