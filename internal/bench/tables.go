package bench

import (
	"context"
	"fmt"

	"cash/internal/core"
	"cash/internal/netsim"
	"cash/internal/workload"
)

// table1 reproduces the micro-benchmark comparison: per-kernel dynamic
// hardware/software check counts and the execution-time overheads of Cash
// and BCC relative to GCC. The paper ran this experiment with four
// segment registers ("In this experiment, Cash is able to use four
// segment registers. As a result, all software bound checks are
// eliminated").
func (s Suite) table1(ctx context.Context, segRegs int) (*Table, error) {
	if segRegs == 0 {
		segRegs = 4
	}
	t := &Table{
		ID:      "table1",
		Title:   fmt.Sprintf("kernel overheads (GCC cycles; Cash/BCC %% increase; %d segment registers)", segRegs),
		Columns: []string{"Program", "HW/SW Checks", "GCC", "Cash", "BCC"},
		Notes: []string{
			"HW/SW Checks are dynamic counts under Cash (paper reports static counts; shape identical)",
			"kernel sizes scaled to simulator budgets; see DESIGN.md",
		},
	}
	ws := workload.Kernels()
	t.Rows = make([][]string, len(ws))
	err := s.Engine.Do(len(ws), func(i int) error {
		w := ws[i]
		cmp, err := s.Engine.CompareStrategiesContext(ctx, w.Name, w.Source, core.CompareConfig{Options: s.opt(core.Options{SegRegs: segRegs})})
		if err != nil {
			return err
		}
		t.Rows[i] = []string{
			w.Paper,
			checksCol(cmp.Cash.Stats.HWChecks, cmp.Cash.Stats.SWChecks),
			kcycles(cmp.GCC.Cycles),
			pct(cmp.CashOverheadPct()),
			pct(cmp.BCCOverheadPct()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// staticLinkSizes compiles the libc corpus under each mode. The paper's
// binaries are statically linked against a GLIBC recompiled with each
// checker, so every binary carries the per-mode library text. The
// replication factor models linking many translation units of library
// code, keeping the library the dominant size contribution as in the
// paper's 400-500 KB binaries.
func (s Suite) staticLinkSizes(ctx context.Context) (map[core.Mode]int, error) {
	lib := workload.LibCorpus()
	out := make(map[core.Mode]int, 3)
	for _, mode := range []core.Mode{core.ModeGCC, core.ModeCash, core.ModeBCC} {
		art, err := s.Engine.BuildContext(ctx, lib.Source, mode, s.opt(core.Options{}))
		if err != nil {
			return nil, fmt.Errorf("libc corpus: %w", err)
		}
		out[mode] = art.CodeSize() * netsim.LibReplicas
	}
	return out, nil
}

// sizeTable reproduces a binary-size comparison (Table 2 for the
// kernels, Table 6 for the macro applications): GCC text bytes and the
// Cash/BCC percentage increases.
func (s Suite) sizeTable(ctx context.Context, id, title string, ws []workload.Workload) (*Table, error) {
	libSizes, err := s.staticLinkSizes(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      id,
		Title:   title + " (GCC bytes; Cash/BCC % increase; static link)",
		Columns: []string{"Program", "GCC", "Cash", "BCC"},
		Notes: []string{
			"each binary includes the per-mode libc corpus text (static linking with a recompiled library, as in the paper)",
		},
	}
	t.Rows = make([][]string, len(ws))
	err = s.Engine.Do(len(ws), func(i int) error {
		w := ws[i]
		sizes := make(map[core.Mode]int, 3)
		for _, mode := range []core.Mode{core.ModeGCC, core.ModeCash, core.ModeBCC} {
			art, err := s.Engine.BuildContext(ctx, w.Source, mode, s.opt(core.Options{}))
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			sizes[mode] = art.CodeSize() + libSizes[mode]
		}
		gcc := float64(sizes[core.ModeGCC])
		t.Rows[i] = []string{
			w.Paper,
			fmt.Sprintf("%d", sizes[core.ModeGCC]),
			pct((float64(sizes[core.ModeCash]) - gcc) / gcc * 100),
			pct((float64(sizes[core.ModeBCC]) - gcc) / gcc * 100),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// table3 reproduces the input-size scaling experiment: Cash's relative
// overhead for 2D FFT, Gaussian elimination and matrix multiplication as
// the matrix grows (the paper sweeps 64..512; we sweep the same shape at
// simulator-friendly sizes).
func (s Suite) table3(ctx context.Context) (*Table, error) {
	type series struct {
		paper string
		mk    func(int) workload.Workload
		sizes []int
	}
	sweeps := []series{
		{paper: "2D FFT", mk: workload.FFT2D, sizes: []int{8, 16, 32, 64}},
		{paper: "Gaussian", mk: workload.Gaussian, sizes: []int{8, 16, 32, 64}},
		{paper: "Matrix", mk: workload.MatMul, sizes: []int{8, 16, 32, 64}},
	}
	t := &Table{
		ID:      "table3",
		Title:   "Cash overhead vs input size (percent over GCC)",
		Columns: []string{"Program", "8", "16", "32", "64"},
		Notes: []string{
			"paper sweeps 64..512 on real hardware; the decreasing-overhead shape is the result",
		},
	}
	// Every (series, size) cell is an independent experiment; flatten the
	// sweep so all cells share the worker budget.
	perRow := len(sweeps[0].sizes)
	cells := make([]string, len(sweeps)*perRow)
	err := s.Engine.Do(len(cells), func(i int) error {
		sw := sweeps[i/perRow]
		w := sw.mk(sw.sizes[i%perRow])
		cmp, err := s.Engine.CompareStrategiesContext(ctx, w.Name, w.Source, core.CompareConfig{Options: s.opt(core.Options{SegRegs: 4})})
		if err != nil {
			return err
		}
		cells[i] = pct(cmp.CashOverheadPct())
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, s := range sweeps {
		t.Rows = append(t.Rows, append([]string{s.paper}, cells[si*perRow:(si+1)*perRow]...))
	}
	return t, nil
}

// characteristicsTable reproduces the loop characteristics of a suite
// (Table 4 for the macro applications, Table 7 for the network ones).
func (s Suite) characteristicsTable(ctx context.Context, id, title string, ws []workload.Workload) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"Program", "Lines of Code", "Array-Using Loops", "> 3 Arrays", "Spilled Iter %"},
		Notes: []string{
			"line counts are of the mini-C skeletons, not the original applications",
			"the parenthesised and last columns are the paper's spilled-loop share: static loops and executed iterations",
		},
	}
	t.Rows = make([][]string, len(ws))
	err := s.Engine.Do(len(ws), func(i int) error {
		w := ws[i]
		ch, err := core.Characterize(w.Source, 3)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		fracPct := 0.0
		if ch.ArrayUsingLoops > 0 {
			fracPct = float64(ch.SpilledLoops) / float64(ch.ArrayUsingLoops) * 100
		}
		// Dynamic share of loop iterations executed in spilled loops.
		art, err := s.Engine.BuildContext(ctx, w.Source, core.ModeCash, s.opt(core.Options{}))
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		res, err := s.Engine.RunContext(ctx, art)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if res.Violation != nil {
			return fmt.Errorf("%s: unexpected violation: %v", w.Name, res.Violation)
		}
		t.Rows[i] = []string{
			w.Paper,
			fmt.Sprintf("%d", ch.Lines),
			fmt.Sprintf("%d", ch.ArrayUsingLoops),
			fmt.Sprintf("%d (%.1f%%)", ch.SpilledLoops, fracPct),
			pct(res.Stats.SpilledIterPct()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// table5 reproduces the macro-application performance comparison.
func (s Suite) table5(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "table5",
		Title:   "macro-application overheads (GCC cycles; Cash/BCC % increase)",
		Columns: []string{"Program", "GCC", "Cash", "BCC"},
	}
	ws := workload.Macros()
	t.Rows = make([][]string, len(ws))
	err := s.Engine.Do(len(ws), func(i int) error {
		w := ws[i]
		cmp, err := s.Engine.CompareStrategiesContext(ctx, w.Name, w.Source, core.CompareConfig{Options: s.opt(core.Options{})})
		if err != nil {
			return err
		}
		t.Rows[i] = []string{
			w.Paper,
			kcycles(cmp.GCC.Cycles),
			pct(cmp.CashOverheadPct()),
			pct(cmp.BCCOverheadPct()),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// table8 reproduces the network-application latency/throughput/space
// penalties of Cash over the unchecked baseline.
func (s Suite) table8(ctx context.Context, requests int) (*Table, error) {
	reps, err := netsim.MeasureAllContext(ctx, s.Engine, requests, s.opt(core.Options{}))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table8",
		Title:   fmt.Sprintf("network-application penalties (%d requests, process per request)", reps[0].Requests),
		Columns: []string{"Program", "Latency Penalty", "Throughput Penalty", "Space Overhead"},
		Notes: []string{
			"latency = handler process CPU cycles; throughput includes a fixed per-request OS cost",
			"BCC could not compile these applications in the paper; our BCC column exists and is much slower (see -table table8bcc)",
		},
	}
	for _, rep := range reps {
		t.Rows = append(t.Rows, []string{
			rep.Paper,
			pct(rep.LatencyPenaltyPct),
			pct(rep.ThroughputPenaltyPct),
			pct(rep.SpaceOverheadPct),
		})
	}
	return t, nil
}

// table8BCC is the comparison the paper could not run: BCC's latency
// penalty on the network applications.
func (s Suite) table8BCC(ctx context.Context, requests int) (*Table, error) {
	reps, err := netsim.MeasureAllContext(ctx, s.Engine, requests, s.opt(core.Options{}))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "table8bcc",
		Title:   "network applications: BCC latency penalty (not measurable in the paper)",
		Columns: []string{"Program", "Cash Latency Penalty", "BCC Latency Penalty"},
	}
	for _, rep := range reps {
		bcc := (float64(rep.BCC.HandlerCycles) - float64(rep.GCC.HandlerCycles)) /
			float64(rep.GCC.HandlerCycles) * 100
		t.Rows = append(t.Rows, []string{rep.Paper, pct(rep.LatencyPenaltyPct), pct(bcc)})
	}
	return t, nil
}
