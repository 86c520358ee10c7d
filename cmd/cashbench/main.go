// Command cashbench regenerates the tables and figures of the paper's
// evaluation section from the simulated system.
//
// Usage:
//
//	cashbench -all [-requests 2000]    regenerate everything
//	cashbench -table table1            one table (see -list)
//	cashbench -figure1                 the translation-pipeline trace
//	cashbench -list                    list table ids and captions
//
// All work is served through one cash.Engine: compiled artifacts are
// cached under a content hash, deterministic executions come from a
// run cache, and simulated machines are recycled; -parallel bounds the
// work in flight. The serving knobs:
//
//	-repeat N    with -all, serve the suite N times through the same
//	             Engine; pass 1 is printed, later (cache-warm) passes
//	             must be byte-identical or the run fails
//	-store DIR   persist compiled artifacts and deterministic run
//	             outcomes under DIR; a later process pointed at the same
//	             DIR warm-starts from them (tables stay byte-identical)
//
// The resilience experiment (fault injection against the network
// servers) takes two extra knobs; the same seed and rate always
// reproduce the same table:
//
//	cashbench -table resilience -chaos-seed 1 -chaos-rate 0.05
//
// The strategy-matrix table sweeps every registered checking strategy
// (cashc -list-strategies) against every pass pipeline; -strategy
// restricts the sweep to a comma-separated subset. An unknown name
// fails with an error listing the valid ones:
//
//	cashbench -table strategy-matrix -strategy mpx,bcc
//
// Observability (see internal/obs): the metrics flags report the
// registry delta across exactly the work this process did — counters
// from every layer (vm, paging, ldt, core, netsim) plus the shared
// latency histogram. The delta is deterministic at any -parallel
// setting, which CI pins by diffing -parallel 1 against -parallel 8:
//
//	-metrics            print the metrics delta to stderr
//	-metrics-out FILE   write the metrics delta to FILE as text
//	-metrics-json FILE  write the metrics delta to FILE as JSON
//
// Host-side knobs (none of them change any table's content):
//
//	-parallel N      concurrent experiments per table (default GOMAXPROCS)
//	-step            pin every run to the step interpreter instead of the
//	                 default tier-2 superblock engine
//	-json FILE       with -all, write per-table timings as JSON
//	-cpuprofile FILE write a pprof CPU profile
//	-memprofile FILE write a pprof heap profile at exit
//
// Tables go to stdout; the throughput summary goes to stderr, so stdout
// remains byte-comparable across runs and settings.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cash"
	"cash/internal/vm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cashbench:", err)
		os.Exit(1)
	}
}

// tableTimingJSON is one entry of the -json report.
type tableTimingJSON struct {
	Table           string  `json:"table"`
	HostNS          int64   `json:"host_ns"`
	SimInstructions uint64  `json:"sim_instructions"`
	SimCycles       uint64  `json:"sim_cycles"`
	InstrPerSec     float64 `json:"sim_instr_per_sec"`
}

// sbCountersJSON is the tier-2 superblock activity this process
// accumulated (zero across the board under -step).
type sbCountersJSON struct {
	Compiled      uint64 `json:"compiled"`
	Entries       uint64 `json:"entries"`
	Deopts        uint64 `json:"deopts"`
	InstrsRetired uint64 `json:"instrs_retired"`
}

type timingReportJSON struct {
	Requests    int               `json:"requests"`
	Parallelism int               `json:"parallelism"`
	Step        bool              `json:"step"`
	TotalHostNS int64             `json:"total_host_ns"`
	SB          sbCountersJSON    `json:"sb"`
	Tables      []tableTimingJSON `json:"tables"`
}

func run() (err error) {
	var (
		all         = flag.Bool("all", false, "regenerate every table")
		table       = flag.String("table", "", "regenerate one table by id")
		figure1     = flag.Bool("figure1", false, "print the Figure 1 translation trace")
		list        = flag.Bool("list", false, "list available table ids")
		requests    = flag.Int("requests", 2000, "request count for the network experiment")
		parallel    = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent experiments per table (1 = sequential)")
		chaosSeed   = flag.Uint64("chaos-seed", cash.DefaultChaosSeed, "fault-injection PRNG seed for -table resilience")
		chaosRate   = flag.Float64("chaos-rate", cash.DefaultChaosRate, "fault-injection probability per request for -table resilience")
		jsonPath    = flag.String("json", "", "with -all, write per-table timings to this file as JSON")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		metrics     = flag.Bool("metrics", false, "print the observability-registry delta to stderr")
		metricsOut  = flag.String("metrics-out", "", "write the observability-registry delta to this file as text")
		metricsJSON = flag.String("metrics-json", "", "write the observability-registry delta to this file as JSON")
		repeat      = flag.Int("repeat", 1, "with -all, serve the suite this many times through one Engine (later passes must match pass 1)")
		passesFlag  = flag.String("passes", "", "comma-separated IR optimization passes (rce,hoist,affine,chop) applied to every experiment")
		step        = flag.Bool("step", false, "pin every experiment to the step interpreter instead of the tier-2 superblock engine (tables stay byte-identical)")
		strategy    = flag.String("strategy", "", "comma-separated checking strategies restricting -table strategy-matrix (default: every registered strategy)")
		storeDir    = flag.String("store", "", "root a persistent on-disk artifact/run store at this directory (survives the process; a second run warm-starts from it)")
		storeBudget = flag.Int64("store-budget", 0, "on-disk store byte budget (0 = 1 GiB default, negative = unlimited); only with -store")
	)
	flag.Parse()

	eng, err := cash.OpenEngine(cash.EngineConfig{
		Parallelism: *parallel,
		StoreDir:    *storeDir,
		StoreBytes:  *storeBudget,
	})
	if err != nil {
		return err
	}
	suite := cash.Suite{
		Engine:     eng,
		Passes:     splitList(*passesFlag),
		StepOnly:   *step,
		Strategies: splitList(*strategy),
	}
	ctx := context.Background()

	if *cpuProfile != "" {
		f, cerr := os.Create(*cpuProfile)
		if cerr != nil {
			return cerr
		}
		// Teardown runs on every exit path from run: stop the profiler
		// first so its buffered samples are flushed into f, then close f
		// and surface the close error — a short write on the profile is a
		// failure, not a shrug.
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("close cpu profile: %w", cerr)
			}
		}()
		if perr := pprof.StartCPUProfile(f); perr != nil {
			return perr
		}
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			if werr := writeHeapProfile(path); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	wantMetrics := *metrics || *metricsOut != "" || *metricsJSON != ""
	var metricsBase cash.MetricsSnapshot
	if wantMetrics {
		metricsBase = cash.Metrics()
		defer func() {
			if err != nil {
				return
			}
			err = emitMetrics(metricsBase, *metrics, *metricsOut, *metricsJSON)
		}()
	}

	switch {
	case *list:
		for _, sp := range cash.Tables() {
			fmt.Printf("%-17s %s\n", sp.ID, sp.Caption)
		}
		return nil

	case *figure1:
		out, err := suite.Figure1Trace(ctx)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil

	case *table != "":
		start := time.Now()
		var (
			tab *cash.ResultTable
			err error
		)
		if *table == "resilience" {
			tab, err = suite.ResilienceTable(ctx, *requests,
				cash.ResilienceConfig{Seed: *chaosSeed, Rate: *chaosRate})
		} else {
			tab, err = suite.Table(ctx, *table, *requests)
		}
		if err != nil {
			return err
		}
		fmt.Print(tab.Format())
		reportThroughput(time.Since(start))
		return nil

	case *all:
		if *repeat < 1 {
			return fmt.Errorf("-repeat must be at least 1, got %d", *repeat)
		}
		start := time.Now()
		var (
			first   string
			timings []cash.TableTiming
		)
		for pass := 1; pass <= *repeat; pass++ {
			tabs, tms, err := suite.AllTablesTimed(ctx, *requests)
			if err != nil {
				return err
			}
			var b strings.Builder
			for _, tab := range tabs {
				b.WriteString(tab.Format())
				b.WriteByte('\n')
			}
			trace, err := suite.Figure1Trace(ctx)
			if err != nil {
				return err
			}
			b.WriteString(trace)
			if pass == 1 {
				first = b.String()
				timings = tms
				fmt.Print(first)
				continue
			}
			if b.String() != first {
				return fmt.Errorf("pass %d output diverged from pass 1 (%d vs %d bytes): cache-warm passes must be byte-identical", pass, b.Len(), len(first))
			}
		}
		elapsed := time.Since(start)
		reportThroughput(elapsed)
		if vm.SBStatsEnabled {
			fmt.Fprint(os.Stderr, vm.ReadUopMix())
		}
		if *jsonPath != "" {
			if err := writeTimings(*jsonPath, *requests, *parallel, *step, elapsed, timings); err != nil {
				return err
			}
		}
		return nil

	default:
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -all, -table, -figure1 or -list")
	}
}

// splitList parses a comma-separated flag value, dropping blanks; an
// empty value yields nil.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// writeHeapProfile captures the final live heap into path. The GC run
// before the snapshot collects the benchmark's garbage so the profile
// shows what the process actually retains.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("write heap profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close heap profile: %w", err)
	}
	return nil
}

// emitMetrics renders the registry delta since base to the requested
// sinks. The delta isolates exactly this process's work and is
// deterministic at any -parallel setting.
func emitMetrics(base cash.MetricsSnapshot, toStderr bool, outPath, jsonPath string) error {
	delta := cash.Metrics().Delta(base)
	if toStderr {
		fmt.Fprint(os.Stderr, delta.Format())
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(delta.Format()), 0o644); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		data, err := delta.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// reportThroughput prints the host-side summary line to stderr: the
// simulated work done this process and the rate it was done at.
func reportThroughput(elapsed time.Duration) {
	instrs, cycles := vm.SimCounters()
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(instrs) / s
	}
	fmt.Fprintf(os.Stderr,
		"cashbench: simulated %d instructions (%d cycles) in %.2fs host time — %.1fM instr/s\n",
		instrs, cycles, elapsed.Seconds(), rate/1e6)
}

func writeTimings(path string, requests, parallel int, step bool, elapsed time.Duration, timings []cash.TableTiming) error {
	sbCompiled, sbEntries, sbDeopts, sbRetired := vm.SBCounters()
	rep := timingReportJSON{
		Requests:    requests,
		Parallelism: parallel,
		Step:        step,
		TotalHostNS: elapsed.Nanoseconds(),
		SB: sbCountersJSON{
			Compiled:      sbCompiled,
			Entries:       sbEntries,
			Deopts:        sbDeopts,
			InstrsRetired: sbRetired,
		},
		Tables: make([]tableTimingJSON, 0, len(timings)),
	}
	for _, tm := range timings {
		rep.Tables = append(rep.Tables, tableTimingJSON{
			Table:           tm.ID,
			HostNS:          tm.HostNS,
			SimInstructions: tm.SimInstructions,
			SimCycles:       tm.SimCycles,
			InstrPerSec:     tm.InstrPerSec(),
		})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
