package cash

// One testing.B benchmark per table and figure of the paper's evaluation
// section. The quantity of interest is simulated cycles (and derived
// overhead percentages), which are deterministic; they are reported with
// b.ReportMetric so `go test -bench` output carries the reproduction
// numbers alongside the incidental wall-clock cost of simulation.

import (
	"context"
	"flag"
	"testing"

	"cash/internal/core"
	"cash/internal/ldt"
	"cash/internal/workload"
	"cash/internal/x86seg"
)

// -step pins the benchmarks to the step interpreter (Options.StepOnly)
// instead of the default tier-2 superblock engine, the BENCH_6.json
// comparison axis. Simulated metrics are identical either way; only
// host ns/op moves.
var benchStep = flag.Bool("step", false, "benchmark with the step interpreter instead of tier-2 superblock execution")

// reportComparison attaches the paper's metrics to a benchmark.
func reportComparison(b *testing.B, cmp *core.Comparison) {
	b.Helper()
	b.ReportMetric(float64(cmp.GCC.Cycles), "gcc-cycles")
	b.ReportMetric(cmp.CashOverheadPct(), "cash-ovh-%")
	b.ReportMetric(cmp.BCCOverheadPct(), "bcc-ovh-%")
	b.ReportMetric(float64(cmp.Cash.Stats.HWChecks), "hw-checks")
	b.ReportMetric(float64(cmp.Cash.Stats.SWChecks), "sw-checks")
}

// BenchmarkTable1Kernels regenerates Table 1: the six numerical kernels
// under GCC/Cash/BCC with four segment registers.
func BenchmarkTable1Kernels(b *testing.B) {
	for _, w := range workload.Kernels() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var cmp *core.Comparison
			var err error
			for i := 0; i < b.N; i++ {
				cmp, err = core.Compare(w.Name, w.Source, core.Options{SegRegs: 4, StepOnly: *benchStep})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportComparison(b, cmp)
		})
	}
}

// BenchmarkAblationSegRegs regenerates the §4.2 sweep: kernel overheads
// with 2, 3 and 4 segment registers.
func BenchmarkAblationSegRegs(b *testing.B) {
	for _, regs := range []int{2, 3, 4} {
		regs := regs
		b.Run(map[int]string{2: "regs2", 3: "regs3", 4: "regs4"}[regs], func(b *testing.B) {
			var worst, sum float64
			var swTotal uint64
			for i := 0; i < b.N; i++ {
				worst, sum, swTotal = 0, 0, 0
				for _, w := range workload.Kernels() {
					cmp, err := core.Compare(w.Name, w.Source, core.Options{SegRegs: regs})
					if err != nil {
						b.Fatal(err)
					}
					ov := cmp.CashOverheadPct()
					sum += ov
					if ov > worst {
						worst = ov
					}
					swTotal += cmp.Cash.Stats.SWChecks
				}
			}
			b.ReportMetric(sum/6, "mean-cash-ovh-%")
			b.ReportMetric(worst, "worst-cash-ovh-%")
			b.ReportMetric(float64(swTotal), "sw-checks")
		})
	}
}

// BenchmarkTable2CodeSize regenerates Table 2: kernel binary sizes.
func BenchmarkTable2CodeSize(b *testing.B) {
	suite := Suite{Engine: NewEngine(EngineConfig{})}
	var tab *ResultTable
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = suite.Table(context.Background(), "table2", 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tab.Rows)), "rows")
}

// BenchmarkTable3Scaling regenerates Table 3: Cash overhead vs input
// size for FFT, Gaussian elimination and matrix multiplication.
func BenchmarkTable3Scaling(b *testing.B) {
	type series struct {
		name  string
		mk    func(int) workload.Workload
		sizes []int
	}
	for _, s := range []series{
		{name: "fft", mk: workload.FFT2D, sizes: []int{8, 32}},
		{name: "gauss", mk: workload.Gaussian, sizes: []int{8, 32}},
		{name: "matmul", mk: workload.MatMul, sizes: []int{8, 32}},
	} {
		s := s
		b.Run(s.name, func(b *testing.B) {
			var small, large float64
			for i := 0; i < b.N; i++ {
				for j, n := range s.sizes {
					w := s.mk(n)
					cmp, err := core.Compare(w.Name, w.Source, core.Options{SegRegs: 4})
					if err != nil {
						b.Fatal(err)
					}
					if j == 0 {
						small = cmp.CashOverheadPct()
					} else {
						large = cmp.CashOverheadPct()
					}
				}
			}
			b.ReportMetric(small, "cash-ovh-small-%")
			b.ReportMetric(large, "cash-ovh-large-%")
		})
	}
}

// BenchmarkTable4Characteristics regenerates Table 4 (and exercises the
// static loop analysis).
func BenchmarkTable4Characteristics(b *testing.B) {
	var loops int
	for i := 0; i < b.N; i++ {
		loops = 0
		for _, w := range workload.Macros() {
			ch, err := core.Characterize(w.Source, 3)
			if err != nil {
				b.Fatal(err)
			}
			loops += ch.ArrayUsingLoops
		}
	}
	b.ReportMetric(float64(loops), "array-loops")
}

// BenchmarkTable5Macro regenerates Table 5: the macro applications.
func BenchmarkTable5Macro(b *testing.B) {
	for _, w := range workload.Macros() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var cmp *core.Comparison
			var err error
			for i := 0; i < b.N; i++ {
				cmp, err = core.Compare(w.Name, w.Source, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportComparison(b, cmp)
		})
	}
}

// BenchmarkTable7Characteristics regenerates Table 7.
func BenchmarkTable7Characteristics(b *testing.B) {
	var spilled int
	for i := 0; i < b.N; i++ {
		spilled = 0
		for _, w := range workload.NetworkApps() {
			ch, err := core.Characterize(w.Source, 3)
			if err != nil {
				b.Fatal(err)
			}
			spilled += ch.SpilledLoops
		}
	}
	b.ReportMetric(float64(spilled), "spilled-loops")
}

// BenchmarkTable8Network regenerates Table 8: per-application latency,
// throughput and space penalties under the process-per-request server.
func BenchmarkTable8Network(b *testing.B) {
	eng := NewEngine(EngineConfig{})
	for _, w := range workload.NetworkApps() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			var rep *AppReport
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = eng.MeasureNetworkApp(context.Background(), w, 200, Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.LatencyPenaltyPct, "latency-penalty-%")
			b.ReportMetric(rep.ThroughputPenaltyPct, "throughput-penalty-%")
			b.ReportMetric(rep.SpaceOverheadPct, "space-ovh-%")
		})
	}
}

// BenchmarkOverheadConstants regenerates the §4.1 fixed-cost
// measurements (per-program 543, per-array 263, per-array-use 4).
func BenchmarkOverheadConstants(b *testing.B) {
	var oc core.OverheadConstants
	var err error
	for i := 0; i < b.N; i++ {
		oc, err = core.MeasureOverheadConstants()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(oc.PerProgram), "per-program-cycles")
	b.ReportMetric(float64(oc.PerArray), "per-array-cycles")
	b.ReportMetric(float64(oc.PerArrayUse), "per-array-use-cycles")
}

// BenchmarkLDTCallGate measures the §3.6 fast kernel path (253 cycles
// per segment allocation) against BenchmarkLDTSyscall's stock path.
func BenchmarkLDTCallGate(b *testing.B) {
	m := ldt.NewManager(x86seg.NewTable("LDT"))
	if err := m.InstallCallGate(); err != nil {
		b.Fatal(err)
	}
	m.ResetCycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := m.Alloc(uint32(i%1024)*64, 64)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Free(sel); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Cycles())/float64(b.N), "sim-cycles/alloc+free")
}

// BenchmarkLDTSyscall measures the stock modify_ldt path (781 cycles).
func BenchmarkLDTSyscall(b *testing.B) {
	m := ldt.NewManager(x86seg.NewTable("LDT"))
	for i := 0; i < b.N; i++ {
		sel, err := m.Alloc(uint32(i%1024)*64+4096*1024, 64)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Free(sel); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Cycles())/float64(b.N), "sim-cycles/alloc+free")
}

// BenchmarkSegmentCache regenerates the §4.5 Toast cache analysis.
func BenchmarkSegmentCache(b *testing.B) {
	w, _ := workload.ByName("toast")
	art, err := core.Build(w.Source, core.ModeCash, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var res *core.RunResult
	for i := 0; i < b.N; i++ {
		res, err = art.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.LDTStats.HitRatio()*100, "cache-hit-%")
	b.ReportMetric(float64(res.LDTStats.AllocRequests), "alloc-requests")
}

// BenchmarkFigure1Translation measures the simulated translation
// pipeline itself: one segment-checked reference through segmentation and
// paging (this is the only wall-clock-oriented benchmark; it shows the
// simulator's raw cost per modelled reference).
func BenchmarkFigure1Translation(b *testing.B) {
	mmu := x86seg.NewMMU()
	d, err := x86seg.NewDataDescriptor(0x8000, 4096)
	if err != nil {
		b.Fatal(err)
	}
	if err := mmu.LDT().Set(1, d); err != nil {
		b.Fatal(err)
	}
	if err := mmu.Load(x86seg.GS, x86seg.NewSelector(1, x86seg.LDT, 3)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mmu.Translate(x86seg.GS, uint32(i)&0xff8, 4, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Granularity measures descriptor construction across
// the 1 MiB granularity boundary (§3.5 / Figure 2).
func BenchmarkFigure2Granularity(b *testing.B) {
	var slack uint32
	for i := 0; i < b.N; i++ {
		d, err := x86seg.NewDataDescriptor(0, 1<<20+100)
		if err != nil {
			b.Fatal(err)
		}
		slack = d.ByteSize() - (1<<20 + 100)
	}
	b.ReportMetric(float64(slack), "lower-slack-bytes")
}

// BenchmarkSimulator reports the raw interpreter speed: simulated
// instructions per wall-clock second on the matmul kernel.
func BenchmarkSimulator(b *testing.B) {
	w := workload.MatMul(24)
	art, err := core.Build(w.Source, core.ModeCash, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := art.Run()
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Stats.Instructions
	}
	b.ReportMetric(float64(instrs), "sim-instructions/op")
}

// BenchmarkSecurityOnlyMode measures the §3.8 write-only-check variant
// against full checking on a read-heavy kernel.
func BenchmarkSecurityOnlyMode(b *testing.B) {
	w := workload.MatMul(32)
	run := func(skipReads bool) float64 {
		cmp, err := core.Compare(w.Name, w.Source, core.Options{SkipReadChecks: skipReads})
		if err != nil {
			b.Fatal(err)
		}
		return cmp.CashOverheadPct()
	}
	var full, writeOnly float64
	for i := 0; i < b.N; i++ {
		full = run(false)
		writeOnly = run(true)
	}
	b.ReportMetric(full, "full-check-ovh-%")
	b.ReportMetric(writeOnly, "write-only-ovh-%")
}
