package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cash/internal/core"
	"cash/internal/ldt"
	"cash/internal/serve"
	"cash/internal/vm"
	"cash/internal/workload"
	"cash/internal/x86seg"
)

// AblationSegRegs reproduces the §4.2 segment-register sweep: for each
// kernel, the fraction of bound checks that fall back to software and the
// resulting overhead with 2, 3 and 4 segment registers.
func AblationSegRegs() (*Table, error) {
	return ablationSegRegs(context.Background(), serve.Default())
}

func ablationSegRegs(ctx context.Context, eng *serve.Engine) (*Table, error) {
	t := &Table{
		ID:      "ablation-segregs",
		Title:   "Cash overhead and software-check share vs segment-register budget",
		Columns: []string{"Program", "2 regs sw%", "2 regs ovh", "3 regs sw%", "3 regs ovh", "4 regs sw%", "4 regs ovh"},
		Notes: []string{
			"sw% = software checks / all checks executed under Cash (§4.2)",
		},
	}
	ws := workload.Kernels()
	t.Rows = make([][]string, len(ws))
	err := eng.Do(len(ws), func(i int) error {
		w := ws[i]
		row := []string{w.Paper}
		for _, regs := range []int{2, 3, 4} {
			cmp, err := eng.CompareStrategiesContext(ctx, w.Name, w.Source, core.CompareConfig{Options: opt(core.Options{SegRegs: regs})})
			if err != nil {
				return err
			}
			total := cmp.Cash.Stats.HWChecks + cmp.Cash.Stats.SWChecks
			share := 0.0
			if total > 0 {
				share = float64(cmp.Cash.Stats.SWChecks) / float64(total) * 100
			}
			row = append(row, pct(share), pct(cmp.CashOverheadPct()))
		}
		t.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// CacheTable reproduces the §4.5 segment-cache analysis on the Toast
// workload: allocation requests, 3-entry cache hits, kernel entries, and
// the share of run time spent in LDT modification.
func CacheTable() (*Table, error) {
	return cacheTable(context.Background(), serve.Default())
}

func cacheTable(ctx context.Context, eng *serve.Engine) (*Table, error) {
	w, _ := workload.ByName("toast")
	art, err := eng.BuildContext(ctx, w.Source, core.ModeCash, opt(core.Options{}))
	if err != nil {
		return nil, err
	}
	res, err := eng.RunContext(ctx, art)
	if err != nil {
		return nil, err
	}
	if res.Violation != nil {
		return nil, fmt.Errorf("toast: unexpected violation: %v", res.Violation)
	}
	st := res.LDTStats
	gateCycles := st.KernelCalls * ldt.CostCallGate
	t := &Table{
		ID:      "cache",
		Title:   "segment allocation and the 3-entry cache (Toast, §4.5)",
		Columns: []string{"Metric", "Value"},
	}
	t.Rows = [][]string{
		{"segment allocation requests", fmt.Sprintf("%d", st.AllocRequests)},
		{"3-entry cache hits", fmt.Sprintf("%d", st.CacheHits)},
		{"cache hit ratio", pct(st.HitRatio() * 100)},
		{"kernel entries (cash_modify_ldt)", fmt.Sprintf("%d", st.KernelCalls)},
		{"cycles in call gate", fmt.Sprintf("%d", gateCycles)},
		{"total run cycles", fmt.Sprintf("%d", res.Cycles)},
		{"LDT modification share of run time", pct(float64(gateCycles) / float64(res.Cycles) * 100)},
	}
	t.Notes = []string{
		"paper: Toast makes 415,659 requests, 53.8% hit ratio, LDT cost insignificant vs total run time",
	}
	return t, nil
}

// SegmentsTable reproduces the §4.5 segment-budget analysis: the peak
// number of simultaneously live segments per suite, against the 8191
// budget.
func SegmentsTable() (*Table, error) {
	return segmentsTable(context.Background(), serve.Default())
}

func segmentsTable(ctx context.Context, eng *serve.Engine) (*Table, error) {
	t := &Table{
		ID:      "segments",
		Title:   "peak simultaneously live segments per application (budget: 8191)",
		Columns: []string{"Program", "Category", "Peak Live Segments", "Total Allocations"},
	}
	ws := workload.All()
	t.Rows = make([][]string, len(ws))
	err := eng.Do(len(ws), func(i int) error {
		w := ws[i]
		art, err := eng.BuildContext(ctx, w.Source, core.ModeCash, opt(core.Options{}))
		if err != nil {
			return err
		}
		res, err := eng.RunContext(ctx, art)
		if err != nil {
			return err
		}
		if res.Violation != nil {
			return fmt.Errorf("%s: unexpected violation: %v", w.Name, res.Violation)
		}
		t.Rows[i] = []string{
			w.Name,
			w.Category.String(),
			fmt.Sprintf("%d", res.LDTStats.PeakLive),
			fmt.Sprintf("%d", res.LDTStats.AllocRequests),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = []string{
		"paper: <=10 segments for kernels, 163 for macro apps, 292 for network apps — far below 8191",
	}
	return t, nil
}

// ConstantsTable reproduces the §4.1 fixed-cost measurements.
func ConstantsTable() (*Table, error) {
	oc, err := core.MeasureOverheadConstants()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "constants",
		Title:   "Cash overhead constants, measured vs paper (§4.1, cycles)",
		Columns: []string{"Constant", "Measured", "Paper"},
	}
	t.Rows = [][]string{
		{"per-program", fmt.Sprintf("%d", oc.PerProgram), "543"},
		{"per-array", fmt.Sprintf("%d", oc.PerArray), "263"},
		{"per-array-use", fmt.Sprintf("%d", oc.PerArrayUse), "4"},
	}
	return t, nil
}

// LDTCostTable reproduces the §3.6 kernel-entry comparison: the stock
// modify_ldt system call vs the cash_modify_ldt call gate.
func LDTCostTable() (*Table, error) {
	t := &Table{
		ID:      "ldt",
		Title:   "LDT modification cost (§3.6, cycles per segment allocation)",
		Columns: []string{"Path", "Measured", "Paper"},
	}
	mgrCost := func(gate bool) (uint64, error) {
		m := ldt.NewManager(x86seg.NewTable("LDT"))
		if gate {
			if err := m.InstallCallGate(); err != nil {
				return 0, err
			}
			m.ResetCycles()
		}
		if _, err := m.Alloc(0x1000, 64); err != nil {
			return 0, err
		}
		return m.Cycles(), nil
	}
	slow, err := mgrCost(false)
	if err != nil {
		return nil, err
	}
	fast, err := mgrCost(true)
	if err != nil {
		return nil, err
	}
	t.Rows = [][]string{
		{"modify_ldt system call", fmt.Sprintf("%d", slow), "781"},
		{"cash_modify_ldt call gate", fmt.Sprintf("%d", fast), "253"},
	}
	return t, nil
}

// BoundInstrTable reproduces the §2 comparison between the IA-32 bound
// instruction (7 cycles, one instruction) and the explicit 6-instruction
// check sequence, as the software checker of BCC.
func BoundInstrTable() (*Table, error) {
	return boundInstrTable(context.Background(), serve.Default())
}

func boundInstrTable(ctx context.Context, eng *serve.Engine) (*Table, error) {
	t := &Table{
		ID:      "bound",
		Title:   "bound instruction vs 6-instruction check sequence (BCC software checker, §2)",
		Columns: []string{"Program", "BCC seq ovh", "BCC bound ovh", "seq cycles", "bound cycles"},
		Notes: []string{
			"paper: bound takes 7 cycles where the 6 equivalent instructions take 6, so bound loses",
		},
	}
	ws := workload.Kernels()
	t.Rows = make([][]string, len(ws))
	err := eng.Do(len(ws), func(i int) error {
		w := ws[i]
		seq, err := eng.CompareStrategiesContext(ctx, w.Name, w.Source, core.CompareConfig{Options: opt(core.Options{})})
		if err != nil {
			return err
		}
		bnd, err := eng.CompareStrategiesContext(ctx, w.Name, w.Source, core.CompareConfig{Options: opt(core.Options{UseBoundInstr: true})})
		if err != nil {
			return err
		}
		t.Rows[i] = []string{
			w.Paper,
			pct(seq.BCCOverheadPct()),
			pct(bnd.BCCOverheadPct()),
			fmt.Sprintf("%d", seq.BCC.Cycles),
			fmt.Sprintf("%d", bnd.BCC.Cycles),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Figure2Table demonstrates the §3.5 granularity-bit behaviour: for
// arrays around and above 1 MiB, the segment size, the upper-bound
// exactness, and the sub-page lower-bound slack.
func Figure2Table() (*Table, error) {
	t := &Table{
		ID:      "figure2",
		Title:   "granularity-bit limit behaviour for large arrays (§3.5 / Figure 2)",
		Columns: []string{"Array Bytes", "G bit", "Segment Bytes", "Upper Bound", "Lower Slack (bytes)"},
	}
	for _, size := range []uint32{1 << 20, 1<<20 + 1, 1<<20 + 100, 1<<22 + 4097, 64 << 20} {
		d, err := x86seg.NewDataDescriptor(0, size)
		if err != nil {
			return nil, err
		}
		slack := d.ByteSize() - size
		upper := "exact"
		if !d.Granularity {
			slack = 0
		}
		g := "off"
		if d.Granularity {
			g = "on"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size),
			g,
			fmt.Sprintf("%d", d.ByteSize()),
			upper + " (end-aligned)",
			fmt.Sprintf("%d", slack),
		})
	}
	t.Notes = []string{
		"Cash aligns the array end with the segment end, so the upper bound is byte-exact;",
		"the lower bound is soft by < 4096 bytes, harmless per §3.5 (no known attack underflows)",
	}
	return t, nil
}

// Figure1Trace runs a tiny program with paging enabled and renders the
// segment->linear->physical pipeline of its first data references.
func Figure1Trace() (string, error) {
	return Figure1TraceContext(context.Background(), serve.Default())
}

// Figure1TraceContext is Figure1Trace through an explicit Engine. The
// build is cached, but the traced execution always re-simulates: trace
// attachment makes the run observably different, so it bypasses the
// run cache by design.
func Figure1TraceContext(ctx context.Context, eng *serve.Engine) (string, error) {
	src := `
int a[4] = {10, 20, 30, 40};
void main() {
	int s = 0;
	for (int i = 0; i < 4; i++) s += a[i];
	printi(s);
}`
	art, err := eng.BuildContext(ctx, src, core.ModeCash, Options())
	if err != nil {
		return "", err
	}
	var lines []string
	m, err := art.NewMachine(
		vm.WithPaging(1<<24),
		vm.WithTrace(func(e vm.TraceEntry) {
			if len(lines) >= 12 {
				return
			}
			kind := "read"
			if e.Write {
				kind = "write"
			}
			lines = append(lines, fmt.Sprintf(
				"%-5s %-3s sel=%-14s offset=%#08x -> linear=%#08x -> physical=%#08x",
				kind, e.Seg, e.Selector, e.Offset, e.Linear, e.Physical))
		}),
	)
	if err != nil {
		return "", err
	}
	defer m.Release()
	if _, err := m.Run(); err != nil {
		return "", err
	}
	header := "FIGURE1 — memory translation pipeline (segmentation then paging)\n"
	return header + strings.Join(lines, "\n") + "\n", nil
}

// Options returns the default experiment options.
func Options() core.Options { return opt(core.Options{}) }

// Timing records the host-side cost of producing one table: wall-clock
// time plus the simulated instructions and cycles executed on its behalf.
// The simulated counts are exact because tables run one at a time (only
// their rows fan out), so the process-wide counter deltas belong entirely
// to the table being produced.
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

// AllTables regenerates every InAll table of the Specs registry (not
// the trace) in paper order, through the process-default Engine. Within
// each table, independent rows run concurrently up to the parallelism
// budget; the tables themselves run one after another.
func AllTables(requests int) ([]*Table, error) {
	tables, _, err := AllTablesTimed(requests)
	return tables, err
}

// AllTablesTimed is AllTables plus per-table host timings.
func AllTablesTimed(requests int) ([]*Table, []Timing, error) {
	return AllTablesTimedContext(context.Background(), serve.Default(), requests)
}

// AllTablesContext is AllTables through an explicit Engine: repeated
// calls on one Engine serve every build from the artifact cache and
// every repeated deterministic execution from the run cache, so a warm
// pass costs a fraction of a cold one while producing byte-identical
// tables.
func AllTablesContext(ctx context.Context, eng *serve.Engine, requests int) ([]*Table, error) {
	tables, _, err := AllTablesTimedContext(ctx, eng, requests)
	return tables, err
}

// AllTablesTimedContext is AllTablesContext plus per-table host
// timings. The simulated counts are exact for a cold Engine; a warm
// pass attributes near-zero simulated work to cached tables, because
// their runs were never re-simulated.
func AllTablesTimedContext(ctx context.Context, eng *serve.Engine, requests int) ([]*Table, []Timing, error) {
	specs := Specs()
	tables := make([]*Table, 0, len(specs))
	timings := make([]Timing, 0, len(specs))
	for _, sp := range specs {
		if !sp.InAll {
			continue
		}
		startInstr, startCycles := vm.SimCounters()
		start := time.Now()
		t, err := sp.Generate(ctx, eng, requests)
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
