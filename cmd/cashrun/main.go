// Command cashrun compiles and executes a mini-C program on the
// simulated machine and reports cycles, check counts, segment activity
// and — the point of the system — any array bound violation the
// segmentation hardware caught.
//
// Usage:
//
//	cashrun [-strategy gcc|bcc|cash|mpx] [-segregs N] [-passes rce,hoist,affine,chop] [-compare] [-trace] file.c
//	cashrun -workload toast -compare
//
// -passes enables IR optimization passes (-stats prints the static
// codegen counters they affect; -dump-ir prints the optimized IR to
// stderr before running).
//
// Hot regions execute through the tier-2 superblock engine by default;
// -step pins the run to the step interpreter (simulated output and
// counters are identical; only host speed changes). -dump-superblocks
// prints the compiled traces to stderr. A run that executed superblocks
// reports their activity on the trailing `# superblocks:` line.
//
// With -events the run records a structured machine-event trace —
// segment-register loads, LDT descriptor installs and evictions,
// allocation/free traffic, faults — and prints it to stderr after the
// program's output; -events-json FILE writes the same records as JSON.
// Tracing is off by default and costs the simulation nothing when off.
//
//	cashrun -events -workload toast
//	cashrun -events-json trace.json file.c
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"cash"
)

// errViolation signals a detected bound violation: already reported on
// stdout, exits with status 2. A sentinel instead of os.Exit inside run
// so deferred teardown (the -events trace dump) still happens.
var errViolation = errors.New("array bound violation detected")

func main() {
	if err := run(); err != nil {
		if errors.Is(err, errViolation) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "cashrun:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		strategy = flag.String("strategy", "", "checking strategy: gcc, bcc, cash or mpx; default cash")
		segRegs  = flag.Int("segregs", 3, "segment register budget for cash mode")
		compare  = flag.Bool("compare", false, "run all three modes and compare")
		trace    = flag.Bool("trace", false, "print the Figure-1 translation pipeline demo")
		wlName   = flag.String("workload", "", "run a built-in workload instead of a file")
		events   = flag.Bool("events", false, "record a machine-event trace and print it to stderr")
		eventsJS = flag.String("events-json", "", "record a machine-event trace and write it to this file as JSON")
		passes   = flag.String("passes", "", "comma-separated IR optimization passes (rce,hoist,affine,chop); empty disables")
		dumpIR   = flag.Bool("dump-ir", false, "print the optimized IR to stderr before running")
		stats    = flag.Bool("stats", false, "print static codegen counters after the run")
		step     = flag.Bool("step", false, "pin execution to the step interpreter instead of the tier-2 superblock engine")
		dumpSB   = flag.Bool("dump-superblocks", false, "print the compiled superblocks to stderr before running")
	)
	flag.Parse()

	var tr *cash.EventTrace
	if *events || *eventsJS != "" {
		tr = cash.NewEventTrace(0)
		defer func() {
			if *events {
				fmt.Fprint(os.Stderr, tr.Format())
			}
			if *eventsJS != "" {
				if data, jerr := tr.JSON(); jerr == nil {
					if werr := os.WriteFile(*eventsJS, append(data, '\n'), 0o644); werr != nil && err == nil {
						err = werr
					}
				} else if err == nil {
					err = jerr
				}
			}
		}()
	}

	if *trace {
		eng := cash.NewEngine(cash.EngineConfig{})
		defer eng.Close()
		out, err := cash.Suite{Engine: eng}.Figure1Trace(context.Background())
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	source, name, err := loadSource(*wlName, flag.Args())
	if err != nil {
		return err
	}
	opts := cash.Options{SegRegs: *segRegs, EventTrace: tr, Passes: splitPasses(*passes), StepOnly: *step}

	if *compare {
		cmp, err := cash.CompareStrategies(name, source, cash.CompareConfig{Options: opts})
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %12s cycles\n", "gcc", format(cmp.GCC.Cycles))
		fmt.Printf("%-8s %12s cycles  (+%.1f%%)  hw=%d sw=%d segloads=%d\n",
			"cash", format(cmp.Cash.Cycles), cmp.CashOverheadPct(),
			cmp.Cash.Stats.HWChecks, cmp.Cash.Stats.SWChecks, cmp.Cash.Stats.SegRegLoads)
		fmt.Printf("%-8s %12s cycles  (+%.1f%%)  sw=%d\n",
			"bcc", format(cmp.BCC.Cycles), cmp.BCCOverheadPct(), cmp.BCC.Stats.SWChecks)
		fmt.Printf("text     gcc=%dB cash=+%.1f%% bcc=+%.1f%%\n",
			cmp.GCC.CodeSize, cmp.CashSizeOverheadPct(), cmp.BCCSizeOverheadPct())
		return nil
	}

	mode, err := pickStrategy(*strategy)
	if err != nil {
		return err
	}
	art, err := cash.Build(source, mode, opts)
	if err != nil {
		return err
	}
	if *dumpIR {
		fmt.Fprint(os.Stderr, art.DumpIR())
	}
	if *dumpSB {
		fmt.Fprint(os.Stderr, art.DumpSuperblocks())
	}
	res, err := art.Run()
	if err != nil {
		return err
	}
	for _, v := range res.Output {
		fmt.Println(v)
	}
	fmt.Printf("# mode=%s cycles=%d instructions=%d hw-checks=%d sw-checks=%d\n",
		mode, res.Cycles, res.Stats.Instructions, res.Stats.HWChecks, res.Stats.SWChecks)
	if *stats {
		static := art.StaticStats()
		for _, k := range cash.StatKeys() {
			if v, ok := static[k]; ok {
				fmt.Printf("# static %s=%d\n", k, v)
			}
		}
	}
	if res.SB != nil {
		fmt.Printf("# superblocks: compiled=%d entries=%d deopts=%d instrs-retired=%d\n",
			res.SB.Compiled, res.SB.Entries, res.SB.Deopts, res.SB.InstrsRetired)
	}
	fmt.Printf("# segments: peak-live=%d allocs=%d cache-hits=%d kernel-entries=%d\n",
		res.LDTStats.PeakLive, res.LDTStats.AllocRequests,
		res.LDTStats.CacheHits, res.LDTStats.KernelCalls)
	if res.Violation != nil {
		fmt.Printf("# ARRAY BOUND VIOLATION DETECTED: %v\n", res.Violation)
		return errViolation
	}
	return nil
}

func format(v uint64) string {
	s := fmt.Sprintf("%d", v)
	out := ""
	for i, c := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			out += ","
		}
		out += string(c)
	}
	return out
}

func splitPasses(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// pickStrategy resolves the -strategy flag against the strategy
// registry; empty means cash.
func pickStrategy(s string) (cash.Mode, error) {
	if s == "" {
		s = "cash"
	}
	for _, name := range cash.StrategyNames() {
		if s == name {
			return cash.Mode(s), nil
		}
	}
	return "", fmt.Errorf("unknown strategy %q (valid: %s)",
		s, strings.Join(cash.StrategyNames(), ", "))
}

func loadSource(wlName string, args []string) (source, name string, err error) {
	if wlName != "" {
		w, ok := cash.WorkloadByName(wlName)
		if !ok {
			return "", "", fmt.Errorf("unknown workload %q", wlName)
		}
		return w.Source, w.Name, nil
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("exactly one source file (or -workload) required")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(data), args[0], nil
}
