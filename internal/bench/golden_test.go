package bench

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"cash/internal/serve"
)

// testEngine serves every test in this package that does not need a
// cold or differently budgeted Engine, so work one test caches — the
// detector table's step-limit runaway above all — is not simulated
// again by the next.
var testEngine = serve.NewEngine(serve.EngineConfig{})

// testSuite is the default suite (no passes, tier-2, every strategy)
// on the shared test Engine.
var testSuite = Suite{Engine: testEngine}

// testTable generates one registered table under testSuite.
func testTable(id string, requests int) (*Table, error) {
	return testSuite.Table(context.Background(), id, requests)
}

// The suite configurations CI pins against committed goldens. The
// step interpreter must reproduce the default golden exactly: tier-2
// is a host-side execution strategy, not a semantic change.
var goldenSuites = []struct {
	name   string
	suite  Suite
	golden string
}{
	{"default", testSuite, "testdata/golden_all_200.txt"},
	{"step", Suite{Engine: testEngine, StepOnly: true}, "testdata/golden_all_200.txt"},
	{"passes", Suite{Engine: testEngine, Passes: []string{"rce", "hoist"}}, "testdata/golden_all_passes_200.txt"},
}

// renderAll reproduces exactly what `cashbench -all` writes to stdout
// under s: every table in paper order, a blank line after each, then
// the Figure 1 trace.
func renderAll(t *testing.T, s Suite, requests int) string {
	t.Helper()
	ctx := context.Background()
	tabs, _, err := s.AllTablesTimed(ctx, requests)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tabs {
		b.WriteString(tab.Format())
		b.WriteByte('\n')
	}
	trace, err := s.Figure1Trace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(trace)
	return b.String()
}

// TestGoldenAllTables pins the full benchmark output byte-for-byte under
// each suite configuration: the TLB, the dense memory arenas, the
// predecoded dispatch, tier-2 and the parallel harness are host-side
// optimisations that must not move a single simulated number. The three
// suites run concurrently on one Engine. Regenerate a golden file only
// for a change that is *supposed* to alter results:
//
//	go run ./cmd/cashbench -all -requests 200 > internal/bench/testdata/golden_all_200.txt
//	go run ./cmd/cashbench -all -requests 200 -passes rce,hoist > internal/bench/testdata/golden_all_passes_200.txt
func TestGoldenAllTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full table regeneration is slow; run without -short")
	}
	for _, gs := range goldenSuites {
		t.Run(gs.name, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile(gs.golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderAll(t, gs.suite, 200); got != string(want) {
				t.Fatalf("%s suite output drifted from %s\ngot %d bytes, want %d bytes\n%s",
					gs.name, gs.golden, len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}

// TestConcurrentSuites runs the three golden suite configurations at
// once on one shared Engine and requires every table each of them
// generates to appear verbatim in that suite's golden: a suite's
// settings must reach only its own builds. It is short enough for the
// -race lane, where it races the suites' fan-outs and the shared
// Engine's caches against each other.
func TestConcurrentSuites(t *testing.T) {
	ids := []string{"table1", "table3", "ablation-segregs"}
	got := make([][]string, len(goldenSuites))
	errs := make([]error, len(goldenSuites))
	var wg sync.WaitGroup
	for i, gs := range goldenSuites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range ids {
				tab, err := gs.suite.Table(context.Background(), id, 200)
				if err != nil {
					errs[i] = fmt.Errorf("%s %s: %w", gs.name, id, err)
					return
				}
				got[i] = append(got[i], tab.Format())
			}
		}()
	}
	wg.Wait()
	for i, gs := range goldenSuites {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := os.ReadFile(gs.golden)
		if err != nil {
			t.Fatal(err)
		}
		for j, text := range got[i] {
			if !strings.Contains(string(want), text) {
				t.Errorf("%s suite: %s does not appear verbatim in %s:\n%s", gs.name, ids[j], gs.golden, text)
			}
		}
	}
}

// TestParallelDeterminism checks that the worker budget cannot change any
// result: the same tables rendered fully sequentially and with a large
// budget, each on its own cold Engine, must be byte-identical. Under
// -race this also exercises the row fan-out for data races.
func TestParallelDeterminism(t *testing.T) {
	render := func(budget int) string {
		s := Suite{Engine: serve.NewEngine(serve.EngineConfig{Parallelism: budget})}
		var b strings.Builder
		for _, id := range []string{"table1", "table3", "ablation-segregs"} {
			tab, err := s.Table(context.Background(), id, 0)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tab.Format())
		}
		return b.String()
	}
	seq := render(1)
	parl := render(8)
	if seq != parl {
		t.Fatalf("output differs between -parallel 1 and -parallel 8\n%s", firstDiff(parl, seq))
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(got, want string) string {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("first difference at line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return "texts differ in length only"
}
