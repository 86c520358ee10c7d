package bench

import (
	"context"
	"fmt"

	"cash/internal/core"
	"cash/internal/workload"
)

// ablationPasses measures what the optional IR passes buy on the six
// numerical kernels under BCC (the mode where every check is software,
// so eliminated checks translate directly into cycles): static and
// dynamic software-check counts and cycles, with passes off versus
// rce+hoist.
func (s Suite) ablationPasses(ctx context.Context) (*Table, error) {
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
	err := s.Engine.Do(len(ws), func(i int) error {
		w := ws[i]
		off, err := s.measurePasses(ctx, w, nil)
		if err != nil {
			return fmt.Errorf("%s off: %w", w.Name, err)
		}
		on, err := s.measurePasses(ctx, w, []string{"rce", "hoist"})
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

func (s Suite) measurePasses(ctx context.Context, w workload.Workload, passes []string) (passMeasurement, error) {
	var m passMeasurement
	// Deliberately not s.opt(): the ablation's off-arm must stay pass-free
	// even under `cashbench -passes`. The tier setting still applies —
	// it is execution strategy, not code shape.
	art, err := s.Engine.BuildContext(ctx, w.Source, core.ModeBCC, core.Options{Passes: passes, StepOnly: s.StepOnly})
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
	m.staticSW = art.StaticStats()["sw_checks_static"]
	m.dynSW = res.Stats.SWChecks
	m.cycles = res.Cycles
	m.affine = art.StaticStats()["sw_checks_affine"]
	return m, nil
}
