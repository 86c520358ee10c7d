// Command perfbench is the repository's benchmark. One invocation runs
// one named workload against the program's public packages, checks the
// program's outputs, and prints the workload's metrics; the last line of
// standard output is one JSON object:
//
//	bash perfbench/run.sh --workload compile-stream --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// probes. With --trace 1 it records a span around each of its own calls
// into the program, prints the per-layer metrics instead, and writes the
// spans to .bench_build/trace/. README.md describes the workloads, the
// metrics and what each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds time.Duration
	// root is the repository checkout the benchmark runs in.
	root string
	// scratch holds the files a workload writes (store directories); the
	// workload removes what it creates.
	scratch string
}

// outcome is what a workload measured.
type outcome struct {
	setups []time.Duration // one per set-up repetition
	// ops holds each timed operation's latency in ms; a failed operation
	// is +Inf, above every limit.
	ops []float64
	// tailQ is the workload's tail quantile: the highest that leaves at
	// least ten samples above it at the workload's usual sample count.
	tailQ float64
	// completed counts the timed operations that succeeded in elapsed.
	completed int
	elapsed   time.Duration
	attempted int
	failed    int
	failures  []string // the first few failures, for the report
	// layer holds the per-layer metrics a traced run measured.
	layer map[string]float64
	notes []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workloadDef struct {
	name string
	run  func(ctx context.Context, cfg config, tr *tracer) (*outcome, error)
}

var workloads = []workloadDef{
	{"paper-tables", runPaperTables},
	{"compile-stream", runCompileStream},
	{"serve-open", runServeOpen},
	{"restart-warm", runRestartWarm},
}

// setupRepeats is how many times each run sets its workload up; setup_s
// is the median.
const setupRepeats = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-tables, compile-stream, serve-open or restart-warm")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds (paper-tables always regenerates the suite once)")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload <paper-tables|compile-stream|serve-open|restart-warm>, --seconds >= 1 and --trace 0|1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		root:    root,
		scratch: filepath.Join(root, ".bench_build", "tmp"),
	}
	var tr *tracer
	if *traceFlag == 1 {
		tr = newTracer()
	}
	out, err := w.run(context.Background(), cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := summarize(out, tr)
	for _, f := range out.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	if tr != nil {
		path := filepath.Join(root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write trace:", err)
		} else {
			fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
		}
	}
	writeReport(stdout, w.name, out, res)
	return 0
}

// metricValue is one printed metric; samples is shown in the report only.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	names     []string               // print order
}

// summarize turns an outcome into the printed metrics: the end-to-end
// set for an untraced run, the per-layer set for a traced one.
func summarize(out *outcome, tr *tracer) result {
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue),
	}
	if tr == nil {
		setups := make([]float64, len(out.setups))
		for i, d := range out.setups {
			setups[i] = d.Seconds()
		}
		values := map[string]metricValue{
			"setup_s":     {Value: quantile(setups, 0.5), samples: len(setups)},
			"peak_rss_mb": {Value: peakRSSMB(), samples: 1},
			"ops_per_s":   {Value: float64(out.completed) / out.elapsed.Seconds(), samples: out.completed},
			"op_p50_ms":   {Value: quantile(out.ops, 0.5), samples: len(out.ops)},
			"op_tail_ms":  {Value: quantile(out.ops, out.tailQ), samples: len(out.ops)},
		}
		for _, d := range endToEndMetrics {
			v := values[d.name]
			v.Unit = d.unit
			res.Metrics[d.name] = v
			res.names = append(res.names, d.name)
		}
		return res
	}
	layer := out.layer
	for l, d := range tr.selfTimes() {
		layer["self."+l+"_ms"] = float64(d.Microseconds()) / 1000
	}
	layer["trace.spans"] = float64(tr.len())
	layer["trace.op_p50_ms"] = quantile(out.ops, 0.5)
	for _, d := range perLayerMetrics() {
		res.Metrics[d.name] = metricValue{Value: layer[d.name], Unit: d.unit, samples: -1}
		res.names = append(res.names, d.name)
	}
	return res
}

// writeReport prints a readable table, then the JSON result line.
func writeReport(w io.Writer, name string, out *outcome, res result) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	fmt.Fprintf(w, "  operation latency ms: p50 %.3f  p75 %.3f  p90 %.3f  p95 %.3f  p99 %.3f  max %.3f  (n=%d)\n",
		quantile(out.ops, 0.5), quantile(out.ops, 0.75), quantile(out.ops, 0.9), quantile(out.ops, 0.95), quantile(out.ops, 0.99), quantile(out.ops, 1), len(out.ops))
	for _, n := range out.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, n := range res.names {
		m := res.Metrics[n]
		if m.samples >= 0 {
			fmt.Fprintf(w, "  %-28s %14.4f %-9s n=%d\n", n, m.Value, m.Unit, m.samples)
		} else {
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	line, _ := json.Marshal(res) // plain floats and strings: cannot fail
	fmt.Fprintln(w, string(line))
}

// quantile is the nearest-rank q-quantile of vs (0 for no samples). A
// +Inf (failed) sample that lands on the rank reads as 1e9 ms, so the
// JSON stays valid and the value stays above every limit.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	if math.IsInf(s[rank], 1) {
		return 1e9
	}
	return s[rank]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// timeSetups runs setup setupRepeats times, tearing down every instance
// but the last, and returns the last instance with every duration. Each
// set-up, and the timed phase after them, starts on a collected heap, so
// no repetition pays on its clock for garbage an earlier one left.
func timeSetups[T any](setup func() (T, error), teardown func(T)) (T, []time.Duration, error) {
	var (
		last  T
		times []time.Duration
	)
	defer runtime.GC()
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(start))
		last = v
	}
	return last, times, nil
}
