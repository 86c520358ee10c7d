package bench

import (
	"context"
	"os"
	"testing"

	"cash/internal/workload"
)

// TestGoldenAblationAffine pins the affine-ablation table byte-for-byte.
// Regenerate only for a change that is supposed to alter the passes:
//
//	go run ./cmd/cashbench -table ablation-affine 2>/dev/null > internal/bench/testdata/golden_ablation_affine.txt
func TestGoldenAblationAffine(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_ablation_affine.txt")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := testSuite.ablationAffine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Format(); got != string(want) {
		t.Fatalf("ablation-affine drifted from golden\n%s", firstDiff(got, string(want)))
	}
}

// TestAffineClosesComputedIndexGap is the acceptance bar for the affine
// pass: with the full pipeline, every Table 1 kernel executes strictly
// fewer dynamic software checks and strictly fewer cycles than the
// unoptimized build — including MatMul, whose i*n+j indices no earlier
// pass could touch — and the gather control is bit-for-bit unaffected.
func TestAffineClosesComputedIndexGap(t *testing.T) {
	ctx := context.Background()
	full := []string{"rce", "hoist", "affine"}
	for _, w := range workload.Kernels() {
		off, err := testSuite.measurePasses(ctx, w, nil)
		if err != nil {
			t.Fatalf("%s off: %v", w.Name, err)
		}
		on, err := testSuite.measurePasses(ctx, w, full)
		if err != nil {
			t.Fatalf("%s full: %v", w.Name, err)
		}
		if on.dynSW >= off.dynSW {
			t.Errorf("%s: dynamic sw checks not reduced: %d -> %d", w.Name, off.dynSW, on.dynSW)
		}
		if on.cycles >= off.cycles {
			t.Errorf("%s: cycles not reduced: %d -> %d", w.Name, off.cycles, on.cycles)
		}
	}

	// MatMul specifically must improve over the previous best pipeline:
	// that is the gap this pass exists to close.
	mm := workload.MatMul(40)
	base, err := testSuite.measurePasses(ctx, mm, []string{"rce", "hoist"})
	if err != nil {
		t.Fatal(err)
	}
	on, err := testSuite.measurePasses(ctx, mm, full)
	if err != nil {
		t.Fatal(err)
	}
	if on.dynSW >= base.dynSW || on.cycles >= base.cycles {
		t.Fatalf("matmul not improved over rce+hoist: checks %d -> %d, cycles %d -> %d",
			base.dynSW, on.dynSW, base.cycles, on.cycles)
	}
	if on.affine == 0 {
		t.Fatal("matmul: affine pass replaced no checks")
	}

	// The control: gather's data-dependent index must be left alone.
	g := workload.Gather(256)
	gBase, err := testSuite.measurePasses(ctx, g, []string{"rce", "hoist"})
	if err != nil {
		t.Fatal(err)
	}
	gFull, err := testSuite.measurePasses(ctx, g, full)
	if err != nil {
		t.Fatal(err)
	}
	if gFull.affine != 0 {
		t.Fatalf("gather: affine replaced %d checks on the control kernel", gFull.affine)
	}
	if gFull.dynSW != gBase.dynSW || gFull.cycles != gBase.cycles || gFull.staticSW != gBase.staticSW {
		t.Fatalf("gather changed under affine: checks %d -> %d, cycles %d -> %d",
			gBase.dynSW, gFull.dynSW, gBase.cycles, gFull.cycles)
	}
}
