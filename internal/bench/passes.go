package bench

import (
	"context"
	"fmt"
	"sync"

	"cash/internal/core"
	"cash/internal/serve"
	"cash/internal/workload"
)

// The harness-wide pass configuration. Every experiment in this package
// compiles through opt(), so `cashbench -passes rce,hoist` regenerates
// the entire suite under the optimizing back end. Configure before
// generating tables — the tables themselves read it concurrently.
var (
	passMu        sync.RWMutex
	harnessPasses []string
	harnessStep   bool
)

// SetPasses configures the IR optimization passes every experiment in
// this package compiles with (nil restores the exact-replication
// default of no passes). It returns the previous setting.
func SetPasses(passes []string) []string {
	passMu.Lock()
	defer passMu.Unlock()
	prev := harnessPasses
	harnessPasses = append([]string(nil), passes...)
	return prev
}

// Passes returns the harness-wide pass configuration.
func Passes() []string {
	passMu.RLock()
	defer passMu.RUnlock()
	return append([]string(nil), harnessPasses...)
}

// SetStep configures whether every experiment in this package is pinned
// to the step interpreter (`cashbench -step`) instead of the default
// tier-2 superblock engine. The two are output-identical, so the tables
// must not change — the CI step lane diffs the suite against the same
// goldens to prove it. Returns the previous setting.
func SetStep(on bool) bool {
	passMu.Lock()
	defer passMu.Unlock()
	prev := harnessStep
	harnessStep = on
	return prev
}

// Step returns the harness-wide step-interpreter setting.
func Step() bool {
	passMu.RLock()
	defer passMu.RUnlock()
	return harnessStep
}

// opt stamps the harness-wide pass and tier configuration onto one
// experiment's build options.
func opt(o core.Options) core.Options {
	passMu.RLock()
	defer passMu.RUnlock()
	if len(harnessPasses) > 0 && o.Passes == nil {
		o.Passes = harnessPasses
	}
	if harnessStep {
		o.StepOnly = true
	}
	return o
}

// AblationPasses measures what the optional IR passes buy on the six
// numerical kernels under BCC (the mode where every check is software,
// so eliminated checks translate directly into cycles): static and
// dynamic software-check counts and cycles, with passes off versus
// rce+hoist.
func AblationPasses() (*Table, error) {
	return ablationPasses(context.Background(), serve.Default())
}

func ablationPasses(ctx context.Context, eng *serve.Engine) (*Table, error) {
	t := &Table{
		ID:      "ablation-passes",
		Title:   "IR optimization pass ablation (BCC; off vs rce+hoist)",
		Columns: []string{"Program", "Static SW", "Dynamic SW", "Cycles", "Δ Cycles"},
		Notes: []string{
			"rce deletes checks already performed on every path; hoist replaces counted-loop checks with two preheader range checks",
			"columns show off -> on; Δ is the cycle reduction of the optimized build",
		},
	}
	ws := workload.Kernels()
	t.Rows = make([][]string, len(ws))
	err := eng.Do(len(ws), func(i int) error {
		w := ws[i]
		off, err := measurePasses(ctx, eng, w, nil)
		if err != nil {
			return fmt.Errorf("%s off: %w", w.Name, err)
		}
		on, err := measurePasses(ctx, eng, w, []string{"rce", "hoist"})
		if err != nil {
			return fmt.Errorf("%s on: %w", w.Name, err)
		}
		t.Rows[i] = []string{
			w.Paper,
			fmt.Sprintf("%d -> %d", off.staticSW, on.staticSW),
			fmt.Sprintf("%d -> %d", off.dynSW, on.dynSW),
			fmt.Sprintf("%d -> %d", off.cycles, on.cycles),
			pct(100 * (float64(off.cycles) - float64(on.cycles)) / float64(off.cycles)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// passMeasurement is one build+run of a kernel under a pass setting.
type passMeasurement struct {
	staticSW uint64
	dynSW    uint64
	cycles   uint64
	affine   uint64 // checks the affine pass replaced (0 unless it ran)
}

func measurePasses(ctx context.Context, eng *serve.Engine, w workload.Workload, passes []string) (passMeasurement, error) {
	var m passMeasurement
	// Deliberately not opt(): the ablation's off-arm must stay pass-free
	// even under `cashbench -passes`. The tier setting still applies —
	// it is execution strategy, not code shape.
	art, err := eng.BuildContext(ctx, w.Source, core.ModeBCC, core.Options{Passes: passes, StepOnly: Step()})
	if err != nil {
		return m, err
	}
	res, err := eng.RunContext(ctx, art)
	if err != nil {
		return m, err
	}
	if res.Violation != nil {
		return m, fmt.Errorf("spurious violation: %v", res.Violation)
	}
	m.staticSW = art.StaticStats()["sw_checks_static"]
	m.dynSW = res.Stats.SWChecks
	m.cycles = res.Cycles
	m.affine = art.StaticStats()["sw_checks_affine"]
	return m, nil
}
