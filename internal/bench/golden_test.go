package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"cash/internal/par"
)

// renderAll reproduces exactly what `cashbench -all` writes to stdout:
// every table in paper order, a blank line after each, then the Figure 1
// trace.
func renderAll(t *testing.T, requests int) string {
	t.Helper()
	tabs, err := AllTables(requests)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tabs {
		b.WriteString(tab.Format())
		b.WriteByte('\n')
	}
	trace, err := Figure1Trace()
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(trace)
	return b.String()
}

// TestGoldenAllTables pins the full benchmark output byte-for-byte: the
// TLB, the dense memory arenas, the predecoded dispatch and the parallel
// harness are host-side optimisations that must not move a single
// simulated number. Regenerate the golden file only for a change that is
// *supposed* to alter results:
//
//	go run ./cmd/cashbench -all -requests 200 > internal/bench/testdata/golden_all_200.txt
func TestGoldenAllTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full table regeneration is slow; run without -short")
	}
	want, err := os.ReadFile("testdata/golden_all_200.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, 200)
	if got != string(want) {
		t.Fatalf("benchmark output drifted from golden file\ngot %d bytes, want %d bytes\n%s",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

// TestGoldenAllTablesStep renders the full suite again pinned to the
// step interpreter and diffs it against the *same* golden file: tier-2
// is a host-side execution strategy, so it must not move a single
// simulated number. This is the test behind the CI step-interpreter
// suite lane (`cashbench -all -requests 200 -step`).
func TestGoldenAllTablesStep(t *testing.T) {
	if testing.Short() {
		t.Skip("full table regeneration is slow; run without -short")
	}
	want, err := os.ReadFile("testdata/golden_all_200.txt")
	if err != nil {
		t.Fatal(err)
	}
	prev := SetStep(true)
	defer SetStep(prev)
	got := renderAll(t, 200)
	if got != string(want) {
		t.Fatalf("step-interpreter benchmark output drifted from the golden\ngot %d bytes, want %d bytes\n%s",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

// TestParallelDeterminism checks that the worker budget cannot change any
// result: the same tables rendered fully sequentially and with a large
// budget must be byte-identical. Under -race this also exercises the
// row fan-out for data races.
func TestParallelDeterminism(t *testing.T) {
	defer par.SetParallelism(par.Parallelism())
	render := func(budget int) string {
		par.SetParallelism(budget)
		var b strings.Builder
		for _, mk := range []func() (*Table, error){
			func() (*Table, error) { return Table1(4) },
			Table3,
			AblationSegRegs,
		} {
			tab, err := mk()
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
