// Package cash is a complete reproduction of "Checking Array Bound
// Violation Using Segmentation Hardware" (Lam & Chiueh, DSN 2005) as a
// Go library.
//
// Cash performs array bound checking for free by giving every array its
// own x86 segment: the segment-limit check the virtual-memory hardware
// applies to each memory reference *is* the bound check. Because the
// hardware feature (32-bit segmentation) is unusable from Go and dead on
// modern CPUs, this library contains a faithful software model of the
// whole stack: the segmentation and paging hardware (GDT/LDT,
// selectors, shadow registers, the granularity bit), a cycle-modelled
// x86-flavoured machine, the OS support (modify_ldt, the cash_modify_ldt
// call gate, the user-space free list and 3-entry segment cache), a
// mini-C compiler with a registry of checking strategies (unchecked
// "gcc", software-checked "bcc", segment-checked "cash", MPX-style
// "mpx" — see Strategies), and the paper's entire benchmark suite.
//
// Quick start — build under a named strategy and run:
//
//	art, err := cash.Build(src, cash.ModeCash, cash.Options{})
//	res, err := art.Run()
//	if res.Violation != nil { /* overflow caught by segment hardware */ }
//
// A Mode is simply a strategy name; any name listed by Strategies works:
//
//	art, err := cash.Build(src, "mpx", cash.Options{})
//
// Compare strategies on one program (empty Strategies means the paper's
// gcc/bcc/cash trio):
//
//	cmp, err := cash.CompareStrategies("kernel", src,
//		cash.CompareConfig{Strategies: []string{"gcc", "bcc", "cash", "mpx"}})
//	fmt.Printf("Cash +%.1f%%, MPX +%.1f%%\n",
//		cmp.OverheadPct("cash"), cmp.OverheadPct("mpx"))
//
// Serve many requests through one Engine — compiled artifacts are
// cached under a content hash, deterministic executions are served
// from a run cache, machines are recycled, and admission control bounds
// in-flight work:
//
//	eng := cash.NewEngine(cash.EngineConfig{})
//	defer eng.Close()
//	art, err := eng.BuildContext(ctx, src, cash.ModeCash, cash.Options{})
//	res, err := eng.RunContext(ctx, art)
//
// Regenerate a paper table through a Suite on that Engine (a Suite also
// carries the passes, tier and strategy filter the tables run under):
//
//	tab, err := cash.Suite{Engine: eng}.Table(ctx, "table1", 0)
//	fmt.Print(tab.Format())
package cash

import (
	"context"

	"cash/internal/bench"
	"cash/internal/chaos"
	"cash/internal/codegen"
	"cash/internal/core"
	"cash/internal/netsim"
	"cash/internal/obs"
	"cash/internal/serve"
	"cash/internal/vm"
	"cash/internal/workload"
)

// Default chaos-plane parameters for Suite.Table("resilience");
// cmd/cashbench overrides them with -chaos-seed and -chaos-rate.
const (
	DefaultChaosSeed uint64  = chaos.DefaultSeed
	DefaultChaosRate float64 = chaos.DefaultRate
)

// Mode names a checking strategy from the registry (see Strategies).
// It is the strategy name itself, so any registered strategy can be
// requested with a plain string; the constants below name the built-in
// strategies and remain valid everywhere a Mode is accepted.
type Mode = core.Mode

// The built-in checking strategies.
const (
	// ModeGCC compiles without bound checks (the baseline).
	ModeGCC = core.ModeGCC
	// ModeBCC compiles with software bound checks: 3-word fat pointers
	// and the 6-instruction check sequence per reference.
	ModeBCC = core.ModeBCC
	// ModeCash compiles with segmentation-hardware bound checks: one
	// segment per array, 2-word pointers, loop-hoisted segment loads.
	ModeCash = core.ModeCash
	// ModeMPX compiles with MPX-style bound checks: thin 1-word
	// pointers, a shadow bounds table keyed by pointer location, and
	// 1-cycle bndcl/bndcu checks with 10-cycle table loads/stores.
	ModeMPX = core.ModeMPX
)

// StrategySpec describes one registered checking strategy.
type StrategySpec struct {
	// Name is the registry name — a valid Mode value ("gcc", "bcc",
	// "cash", "mpx").
	Name string
	// Description is a one-line summary of the lowering.
	Description string
	// Kind is "lowering" for pure instruction lowerings (gcc, bcc) and
	// "hardware-modeled" for strategies backed by a simulated hardware
	// checking feature (cash's segmentation, mpx's bounds registers).
	Kind string
}

// Strategies lists every registered checking strategy in registration
// order. The names are the valid Mode values.
func Strategies() []StrategySpec {
	infos := core.Strategies()
	out := make([]StrategySpec, len(infos))
	for i, in := range infos {
		out[i] = StrategySpec{Name: in.Name, Description: in.Description, Kind: string(in.Kind)}
	}
	return out
}

// StrategyNames lists the registered strategy names in registration
// order.
func StrategyNames() []string { return core.StrategyNames() }

// Options tunes a build (its build part) and the machines that run it
// (its run part; see core.Options); the zero value reproduces the
// paper's default prototype (3 segment registers, read and write
// checks, call gate).
type Options = core.Options

// Artifact is a compiled program.
type Artifact = core.Artifact

// RunResult is the outcome of one execution, including any detected
// bound violation.
type RunResult = core.RunResult

// Comparison holds a multi-strategy evaluation of one program.
type Comparison = core.Comparison

// CompareConfig configures a multi-strategy comparison: which strategies
// to compare (the first is the baseline; empty means gcc, bcc, cash) and
// the build options shared by every column.
type CompareConfig = core.CompareConfig

// LoopCharacteristics are the static per-program loop statistics of the
// paper's characteristics tables.
type LoopCharacteristics = core.LoopCharacteristics

// OverheadConstants are the §4.1 fixed costs of the Cash mechanism.
type OverheadConstants = core.OverheadConstants

// Violation is a detected array bound violation (a segmentation #GP or a
// failed software check). Returned inside RunResult.
type Violation = vm.Fault

// Workload is one program of the paper's benchmark suite.
type Workload = workload.Workload

// ResultTable is a formatted experiment result.
type ResultTable = bench.Table

// AppReport is one network application's Table 8 measurement.
type AppReport = netsim.AppReport

// ResilienceReport is one network application's availability and latency
// accounting under deterministic fault injection.
type ResilienceReport = netsim.ResilienceReport

// ModeResilience is one compiler mode's slice of a ResilienceReport.
type ModeResilience = netsim.ModeResilience

// Build parses, type-checks and compiles mini-C source for the named
// checking strategy. Unknown strategy names yield an error listing the
// valid names.
func Build(source string, mode Mode, opts Options) (*Artifact, error) {
	return core.Build(source, mode, opts)
}

// DumpIR compiles source like Build and renders the optimized IR the
// program is emitted from; artifacts do not keep it.
func DumpIR(source string, mode Mode, opts Options) (string, error) {
	return core.DumpIR(source, mode, opts)
}

// ParseMode resolves a strategy name; empty means cash, and an unknown
// name yields an error listing the valid names.
func ParseMode(name string) (Mode, error) { return core.ParseMode(name) }

// PassNames lists the IR optimization passes Options.Passes accepts, in
// execution order: "rce" (redundant-check elimination), "hoist"
// (loop-invariant check hoisting), "affine" (convex-hull endpoint checks
// for affine indices) and "chop" (straight-line consolidation of nearby
// checks into one hull check). With no passes the back end's output is
// byte-identical to the historical direct emitter.
func PassNames() []string { return codegen.PassNames() }

// StatKeys lists every static codegen counter an Artifact's StaticStats
// may carry, in the deterministic order tools print them.
func StatKeys() []string { return codegen.StatKeys() }

// CompareStrategies builds and runs source under every strategy named in
// cfg and reports cycles, check counts and code sizes. It fails if any
// strategy's output differs from the baseline (the first strategy) or a
// bound violation occurs.
func CompareStrategies(name, source string, cfg CompareConfig) (*Comparison, error) {
	return core.CompareStrategies(name, source, cfg)
}

// Characterize computes the static loop/array statistics of a program
// under the given segment-register budget.
func Characterize(source string, segRegBudget int) (LoopCharacteristics, error) {
	return core.Characterize(source, segRegBudget)
}

// MeasureOverheadConstants measures the per-program, per-array and
// per-array-use costs (§4.1) on the simulated machine.
func MeasureOverheadConstants() (OverheadConstants, error) {
	return core.MeasureOverheadConstants()
}

// EngineConfig tunes a serving Engine. The zero value gives the
// defaults: a 64 MiB artifact/run cache, in-flight admission bounded by
// the parallelism budget, GOMAXPROCS parallelism, and no disk store.
type EngineConfig = serve.EngineConfig

// Engine is the serving runtime: it owns every piece of cross-request
// state — a content-addressed artifact cache (builds of identical
// source/mode/options are compiled once, concurrent duplicates
// coalesced), a run cache for deterministic executions, and admission
// control bounding in-flight work with a FIFO
// waiter queue. All methods are safe for concurrent use; every
// operation takes a context and honors cancellation between simulated
// basic blocks.
//
// Simulated machines are recycled process-wide (reset on reuse,
// indistinguishable from fresh). Engines are otherwise independent: each
// owns its own cache and admission state, so a misbehaving tenant cannot
// evict another Engine's artifacts. The paper's tables are served
// through an Engine by a Suite. The package-level Build and
// CompareStrategies use no Engine at all.
type Engine struct {
	eng *serve.Engine
}

// NewEngine builds a serving Engine from cfg and panics where
// OpenEngine would return an error; use OpenEngine for a cfg with a
// StoreDir.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{eng: serve.NewEngine(cfg)}
}

// OpenEngine builds a serving Engine from cfg. It reports an unusable
// EngineConfig.StoreDir or a negative CacheBytes as an error.
func OpenEngine(cfg EngineConfig) (*Engine, error) {
	eng, err := serve.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng}, nil
}

// ErrEngineClosed is returned by every Engine method after Close: the
// engine rejects new work instead of queuing it forever.
var ErrEngineClosed = serve.ErrEngineClosed

// Close shuts the Engine down: new work is rejected with
// ErrEngineClosed, queued requests fail immediately, and Close blocks
// until in-flight requests have drained. It is idempotent.
func (e *Engine) Close() error { return e.eng.Close() }

// BuildContext is Build through the Engine: the compiled artifact is
// cached under a content hash of (source, mode, options), concurrent
// identical builds are coalesced into one compile, and ctx cancels the
// wait for an in-flight build.
func (e *Engine) BuildContext(ctx context.Context, source string, mode Mode, opts Options) (*Artifact, error) {
	return e.eng.BuildContext(ctx, source, mode, opts)
}

// RunContext executes an artifact on a recycled machine under admission
// control. Deterministic executions are served from the run cache,
// keyed by the program and machine options rather than the build
// request, so builds that compile to the same program share one
// simulation; ctx cancels a queued request and interrupts a running
// simulation between basic blocks, returning ctx.Err().
func (e *Engine) RunContext(ctx context.Context, art *Artifact) (*RunResult, error) {
	return e.eng.RunContext(ctx, art)
}

// CompareStrategiesContext is CompareStrategies through the Engine:
// every strategy's build and run is cached and admission-controlled
// like any other request.
func (e *Engine) CompareStrategiesContext(ctx context.Context, name, source string, cfg CompareConfig) (*Comparison, error) {
	return e.eng.CompareStrategiesContext(ctx, name, source, cfg)
}

// MeasureNetworkApp runs the paper's §4.4 experiment for one network
// application through the Engine: process-per-request latency,
// throughput and space penalties of Cash over the unchecked baseline.
func (e *Engine) MeasureNetworkApp(ctx context.Context, w Workload, requests int, opts Options) (*AppReport, error) {
	return netsim.MeasureContext(ctx, e.eng, w, requests, opts)
}

// MeasureResilience runs one network application's resilient server
// through the Engine under deterministic fault injection: requests
// picked by a PRNG seeded with (cfg.Seed, request index) suffer one of
// seven injected faults — transient modify_ldt failures, LDT
// exhaustion, descriptor or shadow free-list corruption, page-table
// unmap races, malformed requests, runaway handlers — and the server
// retries, sheds, degrades to flat segments (§3.4) or detects, but
// never crashes. Identical configs reproduce the report exactly.
func (e *Engine) MeasureResilience(ctx context.Context, w Workload, requests int, opts Options, cfg ResilienceConfig) (*ResilienceReport, error) {
	return netsim.MeasureResilienceContext(ctx, e.eng, w, requests, opts,
		chaos.NewPlan(chaos.Config{Seed: cfg.Seed, Rate: cfg.Rate}))
}

// Workloads returns the paper's full benchmark suite: 6 kernels
// (Table 1), 6 macro applications (Tables 4-6), 6 network applications
// (Tables 7-8), and the libc corpus.
func Workloads() []Workload { return workload.All() }

// WorkloadByName finds one benchmark program.
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// ResilienceConfig parameterises the deterministic chaos plane of the
// resilience experiment. The zero value injects nothing (rate 0); use
// DefaultResilienceConfig for the golden-table parameters.
type ResilienceConfig struct {
	// Seed keys every injection draw; identical seeds reproduce the
	// fault schedule exactly.
	Seed uint64
	// Rate is the per-request injection probability in [0, 1].
	Rate float64
}

// DefaultResilienceConfig returns the chaos parameters of the checked-in
// resilience golden (seed 1, rate 5%).
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{Seed: DefaultChaosSeed, Rate: DefaultChaosRate}
}

// TableSpec describes one registered table of the paper's evaluation.
// The registry (Tables) is the single source of truth for table ids:
// Suite.Table, TableIDs, Suite.AllTablesTimed ordering, `cashbench
// -list` and the unknown-id error all derive from it.
type TableSpec struct {
	// ID is the stable identifier accepted by Suite.Table (e.g.
	// "table1").
	ID string
	// Caption is a one-line description for listings.
	Caption string
	// InAll reports whether Suite.AllTablesTimed regenerates this
	// table. The resilience table is excluded: the paper's tables are
	// chaos-free.
	InAll bool
}

// Tables returns every registered table spec, in paper order. The
// slice is freshly allocated; callers may reorder or filter it.
func Tables() []TableSpec {
	specs := bench.Specs()
	out := make([]TableSpec, len(specs))
	for i, sp := range specs {
		out[i] = TableSpec{ID: sp.ID, Caption: sp.Caption, InAll: sp.InAll}
	}
	return out
}

// TableIDs lists the ids accepted by Suite.Table, in paper order.
func TableIDs() []string { return bench.TableIDs() }

// TableTiming is the host-side cost of producing one table: wall-clock
// nanoseconds plus the simulated instructions and cycles run on its
// behalf.
type TableTiming = bench.Timing

// Suite is one configuration of the paper's evaluation: the Engine the
// tables are served through plus the settings they compile and run
// under. It is a plain value, so differently configured suites can share
// one process — and one Engine — concurrently. Every method validates
// the suite before any work starts: a nil Engine or an unknown strategy
// name is an error.
type Suite struct {
	// Engine serves every build and run. Required.
	Engine *Engine
	// Passes are the IR optimization passes every table compiles with
	// (see PassNames); nil is the exact-replication default of none.
	// `cashbench -passes rce,hoist` sets it; the checked-in goldens pin
	// both settings.
	Passes []string
	// StepOnly pins every run to the step interpreter (`cashbench
	// -step`) instead of the default tier-2 superblock engine. The two
	// are output-identical, so the goldens must not change.
	StepOnly bool
	// Strategies restricts the strategy-matrix table to the named
	// checking strategies (`cashbench -strategy mpx`); nil sweeps the
	// whole registry (see Strategies).
	Strategies []string
}

func (s Suite) benchSuite() bench.Suite {
	b := bench.Suite{Passes: s.Passes, StepOnly: s.StepOnly, Strategies: s.Strategies}
	if s.Engine != nil {
		b.Engine = s.Engine.eng
	}
	return b
}

// Table regenerates one registered table by id (see TableIDs). requests
// sets the client workload of the network experiments (0 means the
// paper's 2000); the other tables ignore it. An unknown id yields an
// error listing every valid id.
func (s Suite) Table(ctx context.Context, id string, requests int) (*ResultTable, error) {
	return s.benchSuite().Table(ctx, id, requests)
}

// AllTablesTimed regenerates every table that `cashbench -all` prints,
// with per-table host timings. Tables are produced one at a time; the
// independent experiments inside each (its rows) run concurrently up to
// the Engine's EngineConfig.Parallelism, with identical results at any
// setting. Repeated calls on one Engine serve builds from the artifact
// cache and repeated deterministic executions from the run cache,
// producing byte-identical tables at a fraction of the cold cost.
func (s Suite) AllTablesTimed(ctx context.Context, requests int) ([]*ResultTable, []TableTiming, error) {
	return s.benchSuite().AllTablesTimed(ctx, requests)
}

// Figure1Trace renders the Figure 1 address-translation pipeline
// (segmentation then paging) for a small traced program. The build is
// cached; the traced execution always re-simulates, because attaching a
// trace makes the run observably different.
func (s Suite) Figure1Trace(ctx context.Context) (string, error) {
	return s.benchSuite().Figure1Trace(ctx)
}

// ResilienceTable renders the resilience experiment for every network
// application under cfg's chaos parameters, with the Engine's worker
// budget (see cmd/cashbench -table resilience). The measurement itself
// runs on a fresh private Engine, so the metrics it publishes depend
// only on (requests, cfg).
func (s Suite) ResilienceTable(ctx context.Context, requests int, cfg ResilienceConfig) (*ResultTable, error) {
	return s.benchSuite().ResilienceTable(ctx, requests, cfg.Seed, cfg.Rate)
}

// MetricsSnapshot is a point-in-time copy of the process-wide metrics
// registry: named counters and gauges plus latency histograms. Snapshots
// are plain data — subtract two with Delta to isolate one experiment's
// contribution, render with Format (deterministic text) or JSON.
type MetricsSnapshot = obs.Snapshot

// Metrics snapshots the process-wide observability registry that the
// simulator's layers (vm, paging, ldt, core, netsim) publish into. Take
// a snapshot before and after an experiment and Delta them; because
// every published metric is commutative across goroutines, the delta is
// identical at any parallelism budget.
func Metrics() MetricsSnapshot { return obs.Default().Snapshot() }

// EventTrace is a bounded ring buffer of structured machine events:
// segment-register loads, descriptor installs and evictions, faults
// and LDT allocation traffic. A nil *EventTrace is valid everywhere and
// disables emission; tracing is strictly opt-in.
type EventTrace = obs.Trace

// TraceEvent is one structured EventTrace record.
type TraceEvent = obs.Event

// NewEventTrace returns a trace retaining up to capacity events
// (0 means the default capacity). The trace belongs to a run, not to a
// build: pass WithEvents(trace) to Artifact.Run or Artifact.NewMachine,
// and the trace records exactly those machines. The artifact stays the
// same value, cacheable as any other.
func NewEventTrace(capacity int) *EventTrace { return obs.NewTrace(capacity) }

// WithEvents is the run option that attaches tr to a machine:
// art.Run(WithEvents(tr)). The simulated numbers are identical with and
// without it.
func WithEvents(tr *EventTrace) vm.Option { return vm.WithEvents(tr) }
