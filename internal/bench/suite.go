package bench

import (
	"context"
	"errors"
	"time"

	"cash/internal/codegen"
	"cash/internal/core"
	"cash/internal/netsim"
	"cash/internal/serve"
	"cash/internal/vm"
)

// Suite is one configuration of the paper's evaluation: the Engine the
// experiments are served through, plus the three settings every table
// compiles and runs under. A Suite is a plain value, so differently
// configured suites — `cashbench -passes rce,hoist` next to `-step` —
// can share one process and even one Engine concurrently.
type Suite struct {
	// Engine serves every build and run. Required.
	Engine *serve.Engine
	// Passes are the IR optimization passes every experiment compiles
	// with; nil is the exact-replication default of none. The pass
	// ablations keep their own fixed pipelines.
	Passes []string
	// StepOnly pins every run to the step interpreter instead of the
	// tier-2 superblock engine. The two are output-identical, so the
	// tables must not change.
	StepOnly bool
	// Strategies restricts the strategy-matrix sweep to the named
	// checking strategies; nil sweeps the whole registry.
	Strategies []string
}

// opt stamps the suite's pass and tier configuration onto one
// experiment's build options.
func (s Suite) opt(o core.Options) core.Options {
	if len(s.Passes) > 0 && o.Passes == nil {
		o.Passes = s.Passes
	}
	if s.StepOnly {
		o.StepOnly = true
	}
	return o
}

// validate rejects an unusable suite before any work starts: a missing
// Engine, or a strategy name the registry does not know (the error
// lists the valid ones).
func (s Suite) validate() error {
	if s.Engine == nil {
		return errors.New("bench: Suite has no Engine")
	}
	for _, n := range s.Strategies {
		if _, ok := codegen.StrategyByName(n); !ok {
			return codegen.UnknownStrategyError(n)
		}
	}
	return nil
}

// Table regenerates one registered table by id, with the given request
// count for the network experiments (0 means the paper's 2000).
func (s Suite) Table(ctx context.Context, id string, requests int) (*Table, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	sp, ok := SpecByID(id)
	if !ok {
		return nil, UnknownTableError(id)
	}
	if requests <= 0 {
		requests = netsim.DefaultRequests
	}
	return sp.Generate(ctx, s, requests)
}

// Timing records the host-side cost of producing one table: wall-clock
// time plus the simulated instructions and cycles executed on its behalf.
// The simulated counts are exact when one suite runs in the process at
// a time: tables run one after another (only their rows fan out), so
// the process-wide counter deltas belong entirely to the table being
// produced.
type Timing struct {
	ID              string
	HostNS          int64
	SimInstructions uint64
	SimCycles       uint64
}

// InstrPerSec returns the simulated-instruction throughput achieved while
// producing the table, in instructions per host second.
func (tm Timing) InstrPerSec() float64 {
	if tm.HostNS <= 0 {
		return 0
	}
	return float64(tm.SimInstructions) / (float64(tm.HostNS) / 1e9)
}

// AllTablesTimed regenerates every InAll table of the Specs registry
// (not the trace) in paper order, with per-table host timings. Within
// each table, independent rows run concurrently up to the Engine's
// worker budget; the tables themselves run one after another. Repeated
// calls on one Engine serve every build from the artifact cache and
// every repeated deterministic execution from the run cache, so a warm
// pass costs a fraction of a cold one — and attributes near-zero
// simulated work to its tables — while producing byte-identical tables.
func (s Suite) AllTablesTimed(ctx context.Context, requests int) ([]*Table, []Timing, error) {
	if err := s.validate(); err != nil {
		return nil, nil, err
	}
	specs := Specs()
	tables := make([]*Table, 0, len(specs))
	timings := make([]Timing, 0, len(specs))
	for _, sp := range specs {
		if !sp.InAll {
			continue
		}
		startInstr, startCycles := vm.SimCounters()
		start := time.Now()
		t, err := sp.Generate(ctx, s, requests)
		if err != nil {
			return nil, nil, err
		}
		endInstr, endCycles := vm.SimCounters()
		tables = append(tables, t)
		timings = append(timings, Timing{
			ID:              t.ID,
			HostNS:          time.Since(start).Nanoseconds(),
			SimInstructions: endInstr - startInstr,
			SimCycles:       endCycles - startCycles,
		})
	}
	return tables, timings, nil
}

// TableByID is Suite{Engine: eng}.Table. It stays only for the
// benchmark harness (perfbench), which calls it by this name.
func TableByID(ctx context.Context, eng *serve.Engine, id string, requests int) (*Table, error) {
	return Suite{Engine: eng}.Table(ctx, id, requests)
}

// AllTablesTimedContext is Suite{Engine: eng}.AllTablesTimed. It stays
// only for the benchmark harness (perfbench), which calls it by this
// name.
func AllTablesTimedContext(ctx context.Context, eng *serve.Engine, requests int) ([]*Table, []Timing, error) {
	return Suite{Engine: eng}.AllTablesTimed(ctx, requests)
}

// Figure1TraceContext is Suite{Engine: eng}.Figure1Trace. It stays
// only for the benchmark harness (perfbench), which calls it by this
// name.
func Figure1TraceContext(ctx context.Context, eng *serve.Engine) (string, error) {
	return Suite{Engine: eng}.Figure1Trace(ctx)
}
