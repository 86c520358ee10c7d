package netsim

import (
	"context"
	"testing"

	"cash/internal/core"
	"cash/internal/serve"
	"cash/internal/workload"
)

// testEngine serves the Table 8 measurements of this package's tests.
var testEngine = serve.NewEngine(serve.EngineConfig{})

func TestMeasureQpopper(t *testing.T) {
	w, ok := workload.ByName("qpopper")
	if !ok {
		t.Fatal("qpopper missing")
	}
	rep, err := MeasureContext(context.Background(), testEngine, w, 100, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GCC.HandlerCycles == 0 || rep.Cash.HandlerCycles == 0 {
		t.Fatal("handler cycles must be measured")
	}
	if rep.Cash.HandlerCycles <= rep.GCC.HandlerCycles {
		t.Fatal("cash must cost more than the unchecked baseline")
	}
	if rep.LatencyPenaltyPct <= 0 {
		t.Fatalf("latency penalty = %.2f%%, want positive", rep.LatencyPenaltyPct)
	}
	if rep.ThroughputPenaltyPct <= 0 || rep.ThroughputPenaltyPct >= rep.LatencyPenaltyPct {
		t.Fatalf("throughput penalty %.2f%% must be positive and below latency %.2f%% (fixed OS cost dilutes it)",
			rep.ThroughputPenaltyPct, rep.LatencyPenaltyPct)
	}
	if rep.SpaceOverheadPct <= 0 {
		t.Fatalf("space overhead = %.2f%%, want positive", rep.SpaceOverheadPct)
	}
}

func TestMeasureRejectsNonNetwork(t *testing.T) {
	w, ok := workload.ByName("toast")
	if !ok {
		t.Fatal("toast missing")
	}
	if _, err := MeasureContext(context.Background(), testEngine, w, 10, core.Options{}); err == nil {
		t.Fatal("non-network workload must be rejected")
	}
}

// TestMeasureAllShape reproduces the Table 8 envelope: every application
// pays a positive but modest Cash latency penalty, and BCC (which the
// paper could not even compile for these apps) costs much more.
func TestMeasureAllShape(t *testing.T) {
	reps, err := MeasureAllContext(context.Background(), testEngine, 100, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 6 {
		t.Fatalf("apps = %d, want 6", len(reps))
	}
	for _, rep := range reps {
		if rep.LatencyPenaltyPct <= 0 || rep.LatencyPenaltyPct > 40 {
			t.Errorf("%s: cash latency penalty %.1f%% outside the plausible band",
				rep.Name, rep.LatencyPenaltyPct)
		}
		bccPenalty := (float64(rep.BCC.HandlerCycles) - float64(rep.GCC.HandlerCycles)) /
			float64(rep.GCC.HandlerCycles) * 100
		if bccPenalty <= rep.LatencyPenaltyPct {
			t.Errorf("%s: bcc penalty %.1f%% must exceed cash %.1f%%",
				rep.Name, bccPenalty, rep.LatencyPenaltyPct)
		}
	}
}
