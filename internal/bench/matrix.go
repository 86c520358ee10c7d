package bench

import (
	"context"
	"fmt"
	"strings"

	"cash/internal/codegen"
	"cash/internal/core"
	"cash/internal/serve"
	"cash/internal/workload"
)

// The strategy filter (`cashbench -strategy mpx`) restricts the
// strategy-matrix sweep to the named strategies; nil means the full
// registry. Shares passMu with the other harness-wide settings.
var harnessStrategies []string

// SetStrategyFilter restricts the strategy matrix to the named checking
// strategies (nil restores the full-registry sweep). Unknown names are
// rejected with the registry's error listing the valid ones. Returns
// the previous filter.
func SetStrategyFilter(names []string) ([]string, error) {
	for _, n := range names {
		if _, ok := codegen.StrategyByName(n); !ok {
			return nil, codegen.UnknownStrategyError(n)
		}
	}
	passMu.Lock()
	defer passMu.Unlock()
	prev := harnessStrategies
	harnessStrategies = append([]string(nil), names...)
	return prev, nil
}

// StrategyFilter returns the harness-wide strategy filter (nil when the
// matrix sweeps the whole registry).
func StrategyFilter() []string {
	passMu.RLock()
	defer passMu.RUnlock()
	return append([]string(nil), harnessStrategies...)
}

// matrixPassCombos are the pass-pipeline prefixes the strategy matrix
// sweeps: each combo adds the next registered pass, so the columns read
// as an incremental ablation. (Pass lists are normalised into registry
// order, so prefixes are the canonical combinations.)
var matrixPassCombos = []struct {
	label  string
	passes []string
}{
	{"none", nil},
	{"rce", []string{"rce"}},
	{"+hoist", []string{"rce", "hoist"}},
	{"+affine", []string{"rce", "hoist", "affine"}},
	{"+chop", []string{"rce", "hoist", "affine", "chop"}},
}

// StrategyMatrix measures every registered checking strategy against
// every pass combination on the Table 1 kernels plus the range kernels:
// one row per (program, strategy), one column per pass pipeline, each
// cell cycles/dynamic-software-checks. Every cell's program output is
// verified against the unchecked gcc baseline, so the table doubles as
// a differential gate over the full strategy x pass space.
func StrategyMatrix() (*Table, error) {
	return strategyMatrix(context.Background(), serve.Default())
}

func strategyMatrix(ctx context.Context, eng *serve.Engine) (*Table, error) {
	strategies := StrategyFilter()
	if len(strategies) == 0 {
		strategies = core.StrategyNames()
	}
	t := &Table{
		ID:    "strategy-matrix",
		Title: "strategy x pass matrix (cycles / dynamic software checks)",
		Notes: []string{
			"strategies: " + strings.Join(strategies, ", ") + " (see cashc -list-strategies)",
			"pass columns are pipeline prefixes in registry order; every cell's output is verified against unchecked gcc",
		},
	}
	t.Columns = append([]string{"Program", "Strategy"}, func() []string {
		cols := make([]string, len(matrixPassCombos))
		for i, c := range matrixPassCombos {
			cols[i] = c.label
		}
		return cols
	}()...)

	ws := append(workload.Kernels(), workload.RangeKernels()...)
	t.Rows = make([][]string, len(ws)*len(strategies))
	err := eng.Do(len(ws), func(wi int) error {
		w := ws[wi]
		// The differential baseline: unchecked gcc with no passes.
		ref, err := matrixCell(ctx, eng, w, core.ModeGCC, nil)
		if err != nil {
			return fmt.Errorf("%s gcc baseline: %w", w.Name, err)
		}
		for si, s := range strategies {
			row := []string{w.Name, s}
			for _, combo := range matrixPassCombos {
				cell, err := matrixCell(ctx, eng, w, core.Mode(s), combo.passes)
				if err != nil {
					return fmt.Errorf("%s %s %s: %w", w.Name, s, combo.label, err)
				}
				if !outputEqual(cell.output, ref.output) {
					return fmt.Errorf("%s %s %s: output diverged from gcc", w.Name, s, combo.label)
				}
				row = append(row, fmt.Sprintf("%d/%d", cell.cycles, cell.dynSW))
			}
			t.Rows[wi*len(strategies)+si] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// matrixMeasurement is one strategy-matrix cell.
type matrixMeasurement struct {
	cycles uint64
	dynSW  uint64
	output []int32
}

func matrixCell(ctx context.Context, eng *serve.Engine, w workload.Workload, mode core.Mode, passes []string) (matrixMeasurement, error) {
	var m matrixMeasurement
	art, err := eng.BuildContext(ctx, w.Source, mode, core.Options{Passes: passes, StepOnly: Step()})
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
	m.cycles = res.Cycles
	m.dynSW = res.Stats.SWChecks
	m.output = res.Output
	return m, nil
}

func outputEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
