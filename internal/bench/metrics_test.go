package bench

import (
	"context"
	"os"
	"testing"

	"cash/internal/obs"
	"cash/internal/serve"
)

// resilienceMetricsDelta runs the resilience experiment with eng's
// worker budget and returns the observability-registry delta it
// produced, exactly as `cashbench -table resilience ... -metrics-out`
// writes it.
func resilienceMetricsDelta(t *testing.T, eng *serve.Engine, requests int, seed uint64, rate float64) string {
	t.Helper()
	base := obs.Default().Snapshot()
	if _, err := (Suite{Engine: eng}).ResilienceTable(context.Background(), requests, seed, rate); err != nil {
		t.Fatal(err)
	}
	return obs.Default().Snapshot().Delta(base).Format()
}

// TestMetricsGoldenResilience pins the metrics delta of the CI reference
// resilience run byte-for-byte. The delta isolates exactly this run's
// contribution, so it matches a fresh `cashbench` process even though
// other tests in this package publish into the same registry first.
// Regenerate only for intentional changes:
//
//	go run ./cmd/cashbench -table resilience -requests 200 -chaos-seed 1 -chaos-rate 0.05 -metrics-out internal/bench/testdata/golden_resilience_metrics_s1_r5_200.txt > /dev/null
func TestMetricsGoldenResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full network-application chaos soak")
	}
	want, err := os.ReadFile("testdata/golden_resilience_metrics_s1_r5_200.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := resilienceMetricsDelta(t, testEngine, 200, 1, 0.05)
	if got != string(want) {
		t.Fatalf("metrics delta drifted from golden file\ngot %d bytes, want %d bytes\n%s",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

// TestMetricsParallelDeterminism checks the obs determinism contract end
// to end: every metric the layers publish is commutative (counter sums,
// histogram buckets), so the registry delta of the same experiment must
// be byte-identical whether its rows run sequentially or fanned out.
func TestMetricsParallelDeterminism(t *testing.T) {
	budget := func(n int) *serve.Engine { return serve.NewEngine(serve.EngineConfig{Parallelism: n}) }
	seq := resilienceMetricsDelta(t, budget(1), 40, 7, 0.1)
	parl := resilienceMetricsDelta(t, budget(8), 40, 7, 0.1)
	if seq != parl {
		t.Fatalf("metrics delta differs between -parallel 1 and -parallel 8\n%s", firstDiff(parl, seq))
	}
}
