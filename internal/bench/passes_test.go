package bench

import (
	"context"
	"os"
	"testing"

	"cash/internal/workload"
)

// TestGoldenAblationPasses pins the pass-ablation table byte-for-byte.
// Regenerate only for a change that is supposed to alter the passes:
//
//	go run ./cmd/cashbench -table ablation-passes > internal/bench/testdata/golden_ablation_passes.txt
func TestGoldenAblationPasses(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_ablation_passes.txt")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := testSuite.ablationPasses(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Format(); got != string(want) {
		t.Fatalf("ablation-passes drifted from golden\n%s", firstDiff(got, string(want)))
	}
}

// TestPassesImproveKernels is the acceptance bar for the optimizing back
// end: with rce+hoist, at least 3 of the 6 numerical kernels must
// execute strictly fewer software checks AND strictly fewer cycles.
func TestPassesImproveKernels(t *testing.T) {
	ctx := context.Background()
	improved := 0
	for _, w := range workload.Kernels() {
		off, err := testSuite.measurePasses(ctx, w, nil)
		if err != nil {
			t.Fatalf("%s off: %v", w.Name, err)
		}
		on, err := testSuite.measurePasses(ctx, w, []string{"rce", "hoist"})
		if err != nil {
			t.Fatalf("%s on: %v", w.Name, err)
		}
		if on.dynSW < off.dynSW && on.cycles < off.cycles {
			improved++
		}
		if on.cycles > off.cycles {
			t.Errorf("%s: passes made it slower: %d -> %d cycles", w.Name, off.cycles, on.cycles)
		}
	}
	if improved < 3 {
		t.Fatalf("passes improved only %d of 6 kernels (want >= 3)", improved)
	}
}
