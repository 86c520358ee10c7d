package bench

import (
	"context"
	"fmt"

	"cash/internal/workload"
)

// ablationAffine measures what the affine symbolic-range pass buys on
// top of rce+hoist: the Table 1 kernels plus the four range kernels,
// under BCC, with the baseline pipeline versus the full one. The
// computed-index references (i*n+j and friends) are exactly the checks
// rce and hoist cannot touch.
func (s Suite) ablationAffine(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "ablation-affine",
		Title:   "affine range-analysis ablation (BCC; rce+hoist vs rce+hoist+affine)",
		Columns: []string{"Program", "Static SW", "Dynamic SW", "Cycles", "Δ Cycles", "Affine"},
		Notes: []string{
			"affine replaces checks on affine computed indices (i*c1 + j*c2 + c3 over counted-loop nests) with convex-hull endpoint checks in the preheader",
			"columns show rce+hoist -> rce+hoist+affine; Affine counts the per-iteration checks the pass replaced; gather is the control the pass must not touch",
		},
	}
	ws := append(workload.Kernels(), workload.RangeKernels()...)
	t.Rows = make([][]string, len(ws))
	err := s.Engine.Do(len(ws), func(i int) error {
		w := ws[i]
		base, err := s.measurePasses(ctx, w, []string{"rce", "hoist"})
		if err != nil {
			return fmt.Errorf("%s base: %w", w.Name, err)
		}
		full, err := s.measurePasses(ctx, w, []string{"rce", "hoist", "affine"})
		if err != nil {
			return fmt.Errorf("%s full: %w", w.Name, err)
		}
		t.Rows[i] = []string{
			w.Name,
			fmt.Sprintf("%d -> %d", base.staticSW, full.staticSW),
			fmt.Sprintf("%d -> %d", base.dynSW, full.dynSW),
			fmt.Sprintf("%d -> %d", base.cycles, full.cycles),
			pct(100 * (float64(base.cycles) - float64(full.cycles)) / float64(base.cycles)),
			fmt.Sprintf("%d", full.affine),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
