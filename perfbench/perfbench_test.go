package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"cash/internal/bench"
	"cash/internal/serve"
	"cash/internal/workload"
)

// streamBytes renders a request stream as bytes for comparison.
func streamBytes(t *testing.T, v any) []byte {
	t.Helper()
	return []byte(fmt.Sprintf("%#v", v))
}

// TestRequestStreamsDeterministic pins that a seed names one request
// stream byte for byte, and that another seed names another. The
// paper-tables workload has no seeded input: the golden fixes it.
func TestRequestStreamsDeterministic(t *testing.T) {
	suite, small := suitePrograms(), smallPrograms()
	streams := map[string]func(seed uint64) []byte{
		"compile-stream": func(seed uint64) []byte {
			s := newCompileStream(seed, suite)
			var reqs []compileRequest
			for i := 0; i < 500; i++ {
				reqs = append(reqs, s.next())
			}
			return streamBytes(t, reqs)
		},
		"serve-open": func(seed uint64) []byte {
			return streamBytes(t, serveStream(seed, small, 1000))
		},
		"restart-warm": func(seed uint64) []byte {
			builds, runs := restartOrder(seed, suite, small)
			return streamBytes(t, []any{builds, runs})
		},
	}
	for name, gen := range streams {
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
}

func TestRestartOrderKeepsRunsOnTheirBuilds(t *testing.T) {
	builds, runs := restartOrder(3, suitePrograms(), smallPrograms())
	if len(builds) != 26*4 || len(runs) != 12*4 {
		t.Fatalf("%d builds and %d runs, want 104 and 48", len(builds), len(runs))
	}
	for _, r := range runs {
		if builds[r.build].name != r.prog {
			t.Errorf("run of %s points at the build of %s", r.prog, builds[r.build].name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks every printed metric name against the
// benchmark's naming rule, and that BENCHMARK.json lists exactly the
// metrics the program prints, with the same units and directions.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, group := range []struct {
		name string
		defs []metricDef
		spec []entry
	}{
		{"end_to_end", endToEndMetrics, spec.EndToEnd},
		{"per_layer", perLayerMetrics(), spec.PerLayer},
	} {
		if len(group.defs) != len(group.spec) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", group.name, len(group.defs), len(group.spec))
		}
		for i, d := range group.defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("metric name %q does not match %s", d.name, metricName)
			}
			if seen[d.name] {
				t.Errorf("metric name %q is used twice", d.name)
			}
			seen[d.name] = true
			if i < len(group.spec) && (entry{d.name, d.unit, d.better}) != group.spec[i] {
				t.Errorf("%s[%d]: program prints %+v, BENCHMARK.json lists %+v", group.name, i, d, group.spec[i])
			}
		}
	}
}

func TestResultLine(t *testing.T) {
	out := &outcome{setups: []time.Duration{time.Second}, ops: []float64{1, 2, 3}, tailQ: 0.9,
		completed: 3, elapsed: time.Second, attempted: 3}
	var buf bytes.Buffer
	writeReport(&buf, "x", out, summarize(out, nil))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("last line has keys %v", res)
	}
	var metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEndMetrics {
		if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v", d.name, m)
		}
	}
	if got := metrics["op_tail_ms"].Value; got != 3 {
		t.Errorf("op_tail_ms = %v, want the p90 of 1,2,3 = 3", got)
	}
}

// The smoke tests run each workload briefly on a few programs, traced
// and untraced, and require its output check to pass.

func smokeConfig(t *testing.T) config {
	return config{seed: 5, seconds: 400 * time.Millisecond, root: "..", scratch: t.TempDir()}
}

func requireClean(t *testing.T, out *outcome, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.completed == 0 {
		t.Fatalf("completed %d, failed %d of %d: %v", out.completed, out.failed, out.attempted, out.failures)
	}
}

func TestSmokePaperTables(t *testing.T) {
	golden, err := os.ReadFile("../" + goldenAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := serve.NewEngine(serve.EngineConfig{Parallelism: 1})
	defer eng.Close()
	var sections []string
	for _, id := range []string{"table2", "table6", "table7", "constants", "ldt", "figure2"} {
		tab, err := bench.TableByID(ctx, eng, id, paperRequests)
		if err != nil {
			t.Fatal(err)
		}
		sections = append(sections, tab.Format()+"\n")
	}
	fig, err := bench.Figure1TraceContext(ctx, eng)
	if err != nil {
		t.Fatal(err)
	}
	out := &outcome{}
	checkGolden(out, append(sections, fig), string(golden), false)
	out.completed = 1
	requireClean(t, out, nil)

	checkGolden(out, []string{"TABLE 99 — not in the golden\n"}, string(golden), false)
	if out.failed != 1 {
		t.Fatalf("a section missing from the golden was not caught")
	}
}

func TestSmokeCompileStream(t *testing.T) {
	progs := toPrograms(workload.RangeKernels())
	for _, tr := range []*tracer{nil, newTracer()} {
		out, err := compileStreamRun(context.Background(), smokeConfig(t), tr, progs)
		requireClean(t, out, err)
		if tr != nil && (out.layer["minic.parse_us"] <= 0 || out.layer["codegen.lower_emit_us"] <= 0) {
			t.Errorf("traced run measured no front end: %v", out.layer)
		}
	}
}

func TestSmokeServeOpen(t *testing.T) {
	progs := smallPrograms()[6:9]
	for _, tr := range []*tracer{nil, newTracer()} {
		out, err := serveOpenRun(context.Background(), smokeConfig(t), tr, progs, 200)
		requireClean(t, out, err)
		if tr != nil && out.layer["srv.roundtrip_hot_us"] <= 0 {
			t.Errorf("traced run measured no hot round trips: %v", out.layer)
		}
	}
}

func TestSmokeRestartWarm(t *testing.T) {
	suite := toPrograms(workload.RangeKernels())
	for _, tr := range []*tracer{nil, newTracer()} {
		out, err := restartWarmRun(context.Background(), smokeConfig(t), tr, suite, suite[:2])
		requireClean(t, out, err)
		if tr != nil && (out.layer["store.get_us"] <= 0 || out.layer["store.disk_hits"] != float64(len(suite)*4+2*4)) {
			t.Errorf("traced run: %v", out.layer)
		}
	}
}
