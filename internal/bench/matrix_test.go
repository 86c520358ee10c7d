package bench

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"cash/internal/codegen"
	"cash/internal/core"
	"cash/internal/serve"
	"cash/internal/workload"
)

// TestGoldenStrategyMatrix pins the strategy x pass matrix byte-for-byte.
// Regenerate only for a change that is *supposed* to alter results:
//
//	go run ./cmd/cashbench -table strategy-matrix 2>/dev/null > internal/bench/testdata/golden_strategy_matrix.txt
func TestGoldenStrategyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix regeneration is slow; run without -short")
	}
	want, err := os.ReadFile("testdata/golden_strategy_matrix.txt")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := testTable("strategy-matrix", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := tab.Format()
	if got != string(want) {
		t.Fatalf("strategy matrix drifted from golden file\ngot %d bytes, want %d bytes\n%s",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

// TestStrategyMatrixDeterministic renders the matrix twice on fresh
// engines and requires byte identity — the CI strategy-matrix lane runs
// the generator twice and diffs, so flakiness here is a lane failure.
func TestStrategyMatrixDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix regeneration is slow; run without -short")
	}
	render := func() string {
		tab, err := Suite{Engine: serve.NewEngine(serve.EngineConfig{})}.strategyMatrix(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return tab.Format()
	}
	first := render()
	second := render()
	if first != second {
		t.Fatalf("strategy matrix not reproducible across runs\n%s", firstDiff(second, first))
	}
}

// TestStrategyMatrixCoversRegistry: the matrix must sweep every
// registered strategy (a new registration shows up here, forcing a
// deliberate golden regeneration) and every pass pipeline ends in the
// full rce+hoist+affine+chop chain.
func TestStrategyMatrixCoversRegistry(t *testing.T) {
	names := core.StrategyNames()
	seen := map[string]bool{}
	for _, combo := range matrixPassCombos {
		seen[combo.label] = true
	}
	if !seen["+chop"] || !seen["none"] {
		t.Fatalf("pass combos %v must span none..+chop", matrixPassCombos)
	}
	last := matrixPassCombos[len(matrixPassCombos)-1].passes
	if len(last) != len(codegen.PassNames()) {
		t.Fatalf("final combo %v does not exercise every registered pass %v", last, codegen.PassNames())
	}
	if len(names) < 4 {
		t.Fatalf("registry lists %v; the matrix expects at least gcc, bcc, cash, mpx", names)
	}
}

// TestStrategyFilter: the cashbench -strategy knob validates names up
// front and restricts the matrix to the requested rows.
func TestStrategyFilter(t *testing.T) {
	ctx := context.Background()
	bad := Suite{Engine: testEngine, Strategies: []string{"asan"}}
	if _, err := bad.Table(ctx, "strategy-matrix", 0); err == nil {
		t.Fatal("unknown strategy accepted by the filter")
	} else if !strings.Contains(err.Error(), `unknown strategy "asan"`) {
		t.Fatalf("unexpected error %v", err)
	}
	tab, err := Suite{Engine: testEngine, Strategies: []string{"mpx"}}.Table(ctx, "strategy-matrix", 0)
	if err != nil {
		t.Fatal(err)
	}
	ws := append(workload.Kernels(), workload.RangeKernels()...)
	if len(tab.Rows) != len(ws) {
		t.Fatalf("filtered matrix has %d rows, want one per workload (%d)", len(tab.Rows), len(ws))
	}
	for _, row := range tab.Rows {
		if row[1] != "mpx" {
			t.Fatalf("filtered matrix contains strategy %q", row[1])
		}
	}
}

// TestChopReducesChecks is the CHOP acceptance gate: under bcc, the
// consolidation pass must strictly reduce dynamic software checks on at
// least three kernels without changing program output.
func TestChopReducesChecks(t *testing.T) {
	ctx := context.Background()
	ws := append(workload.Kernels(), workload.RangeKernels()...)
	ws = append(ws, workload.StencilKernels()...)
	var winners []string
	for _, w := range ws {
		off, err := testSuite.matrixCell(ctx, w, core.ModeBCC, nil)
		if err != nil {
			t.Fatalf("%s off: %v", w.Name, err)
		}
		on, err := testSuite.matrixCell(ctx, w, core.ModeBCC, []string{"chop"})
		if err != nil {
			t.Fatalf("%s chop: %v", w.Name, err)
		}
		if !outputEqual(on.output, off.output) {
			t.Fatalf("%s: chop changed program output", w.Name)
		}
		if on.dynSW > off.dynSW {
			t.Errorf("%s: chop increased dynamic checks %d -> %d", w.Name, off.dynSW, on.dynSW)
		}
		if on.dynSW < off.dynSW {
			winners = append(winners, fmt.Sprintf("%s (%d -> %d)", w.Name, off.dynSW, on.dynSW))
		}
	}
	if len(winners) < 3 {
		t.Fatalf("chop reduced dynamic checks on %d kernels %v, want >= 3", len(winners), winners)
	}
	t.Logf("chop winners: %v", winners)
}
