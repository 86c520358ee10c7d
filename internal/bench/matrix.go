package bench

import (
	"context"
	"fmt"
	"strings"

	"cash/internal/core"
	"cash/internal/workload"
)

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

// strategyMatrix measures every registered checking strategy against
// every pass combination on the Table 1 kernels plus the range kernels:
// one row per (program, strategy), one column per pass pipeline, each
// cell cycles/dynamic-software-checks. Every cell's program output is
// verified against the unchecked gcc baseline, so the table doubles as
// a differential gate over the full strategy x pass space.
func (s Suite) strategyMatrix(ctx context.Context) (*Table, error) {
	strategies := s.Strategies
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
	err := s.Engine.Do(len(ws), func(wi int) error {
		w := ws[wi]
		// The differential baseline: unchecked gcc with no passes.
		ref, err := s.matrixCell(ctx, w, core.ModeGCC, nil)
		if err != nil {
			return fmt.Errorf("%s gcc baseline: %w", w.Name, err)
		}
		for si, name := range strategies {
			row := []string{w.Name, name}
			for _, combo := range matrixPassCombos {
				cell, err := s.matrixCell(ctx, w, core.Mode(name), combo.passes)
				if err != nil {
					return fmt.Errorf("%s %s %s: %w", w.Name, name, combo.label, err)
				}
				if !outputEqual(cell.output, ref.output) {
					return fmt.Errorf("%s %s %s: output diverged from gcc", w.Name, name, combo.label)
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

func (s Suite) matrixCell(ctx context.Context, w workload.Workload, mode core.Mode, passes []string) (matrixMeasurement, error) {
	var m matrixMeasurement
	art, err := s.Engine.BuildContext(ctx, w.Source, mode, core.Options{Passes: passes, StepOnly: s.StepOnly})
	if err != nil {
		return m, err
	}
	res, err := s.Engine.RunContext(ctx, art)
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
