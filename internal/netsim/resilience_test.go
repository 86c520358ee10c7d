package netsim

import (
	"context"
	"reflect"
	"testing"

	"cash/internal/chaos"
	"cash/internal/core"
	"cash/internal/serve"
	"cash/internal/workload"
)

// measureResilience is MeasureResilienceContext on a fresh Engine, so
// every report starts from a cold cache.
func measureResilience(w workload.Workload, requests int, opts core.Options, plan *chaos.Plan) (*ResilienceReport, error) {
	return MeasureResilienceContext(context.Background(), serve.NewEngine(serve.EngineConfig{}), w, requests, opts, plan)
}

func apacheWorkload(t *testing.T) workload.Workload {
	t.Helper()
	for _, w := range workload.NetworkApps() {
		if w.Name == "apache" {
			return w
		}
	}
	t.Fatal("apache workload missing")
	return workload.Workload{}
}

func chaosPlan(seed uint64, rate float64) *chaos.Plan {
	return chaos.NewPlan(chaos.Config{Seed: seed, Rate: rate})
}

// checkAccounting verifies the outcome counters balance: every offered
// request lands in exactly one bucket, and Served is the sum of the
// serving buckets.
func checkAccounting(t *testing.T, mr *ModeResilience) {
	t.Helper()
	total := mr.OK + mr.Tolerated + mr.Degraded + mr.TimedOut + mr.Detected + mr.Shed
	if total != mr.Requests {
		t.Errorf("%v: outcome sum %d != requests %d (%+v)", mr.Mode, total, mr.Requests, *mr)
	}
	if served := mr.OK + mr.Tolerated + mr.Degraded; served != mr.Served {
		t.Errorf("%v: served %d != OK+Tolerated+Degraded %d", mr.Mode, mr.Served, served)
	}
}

func TestResilienceChaosOffAllOK(t *testing.T) {
	rep, err := measureResilience(apacheWorkload(t), 100, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Modes {
		mr := &rep.Modes[i]
		checkAccounting(t, mr)
		if mr.OK != mr.Requests {
			t.Errorf("%v: chaos off but only %d/%d OK (%+v)", mr.Mode, mr.OK, mr.Requests, *mr)
		}
		if mr.Injected != 0 {
			t.Errorf("%v: chaos off but %d injected", mr.Mode, mr.Injected)
		}
		if mr.AvailabilityPct() != 100 {
			t.Errorf("%v: availability %.1f%% != 100%%", mr.Mode, mr.AvailabilityPct())
		}
		if mr.P50 == 0 || mr.P50 != mr.P99 {
			t.Errorf("%v: deterministic clean handler should have flat latency, got p50=%d p99=%d", mr.Mode, mr.P50, mr.P99)
		}
	}
}

func TestResilienceDeterministicAcrossRuns(t *testing.T) {
	w := apacheWorkload(t)
	run := func() *ResilienceReport {
		rep, err := measureResilience(w, 300, core.Options{}, chaosPlan(42, 0.10))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different reports:\n%+v\n%+v", a, b)
	}
}

func TestResilienceUnderInjection(t *testing.T) {
	rep, err := measureResilience(apacheWorkload(t), 400, core.Options{}, chaosPlan(1, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Modes {
		mr := &rep.Modes[i]
		checkAccounting(t, mr)
		if mr.Injected == 0 {
			t.Errorf("%v: 5%% rate over 400 requests injected nothing", mr.Mode)
		}
		if mr.AvailabilityPct() <= 0 {
			t.Errorf("%v: availability %.1f%% — server did not survive (%+v)", mr.Mode, mr.AvailabilityPct(), *mr)
		}
		// The harness never crashes: every injected request must land
		// in an explicit outcome bucket, which checkAccounting proves.
		// Faults must actually have been exercised somewhere.
		if handled := mr.Tolerated + mr.Degraded + mr.TimedOut + mr.Detected + mr.Shed; handled == 0 {
			t.Errorf("%v: injected %d but no non-OK outcomes recorded", mr.Mode, mr.Injected)
		}
	}
	// Cash is the only mode with LDT-targeting sites; across 400
	// requests at least one retry or degradation should appear.
	cash := &rep.Modes[1]
	if cash.Mode != core.ModeCash {
		t.Fatalf("mode order changed: %v", cash.Mode)
	}
	if cash.Retries == 0 && cash.Degraded == 0 && cash.Detected == 0 {
		t.Errorf("cash: no retries, degradations or detections under injection (%+v)", *cash)
	}
}

// TestResilienceWatchdog is the watchdog satellite: a handler that never
// terminates must be killed by the step budget, counted as timed out,
// and the measurement must return promptly instead of hanging.
func TestResilienceWatchdog(t *testing.T) {
	spin := workload.Workload{
		Name:     "spin",
		Paper:    "spin",
		Category: workload.CategoryNetwork,
		Source:   "void main() { int x = 1; while (x) { x = 1; } }",
	}
	rep, err := measureResilience(spin, 50, core.Options{StepLimit: 200_000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Modes {
		mr := &rep.Modes[i]
		checkAccounting(t, mr)
		// Every request either hits the watchdog or is refused by the
		// load shedder once the failure window fills — never served,
		// never hung.
		if mr.TimedOut == 0 {
			t.Errorf("%v: watchdog never fired (%+v)", mr.Mode, *mr)
		}
		if mr.TimedOut+mr.Shed != mr.Requests {
			t.Errorf("%v: %d timed out + %d shed != %d requests (%+v)", mr.Mode, mr.TimedOut, mr.Shed, mr.Requests, *mr)
		}
		if mr.Shed == 0 {
			t.Errorf("%v: sustained timeouts never tripped load shedding (%+v)", mr.Mode, *mr)
		}
		if mr.Served != 0 {
			t.Errorf("%v: runaway handler served %d requests", mr.Mode, mr.Served)
		}
	}
}

// TestResilienceRunawaySiteFires drives the runaway-handler site
// directly: with the site forced at rate 1 every request must hit the
// watchdog, never a hang or harness error.
func TestResilienceRunawaySiteFires(t *testing.T) {
	plan := chaos.NewPlan(chaos.Config{
		Seed:  7,
		Rate:  1,
		Sites: []chaos.Site{chaos.SiteRunawayHandler},
	})
	rep, err := measureResilience(apacheWorkload(t), 30, core.Options{}, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Modes {
		mr := &rep.Modes[i]
		checkAccounting(t, mr)
		if mr.TimedOut == 0 {
			t.Errorf("%v: forced runaway site produced no timeouts (%+v)", mr.Mode, *mr)
		}
	}
}

func TestMeasureAllResiliencePartial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every network app")
	}
	reps, err := MeasureAllResilienceContext(context.Background(), serve.NewEngine(serve.EngineConfig{}), 100, core.Options{}, chaosPlan(1, 0.05))
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(reps) != len(workload.NetworkApps()) {
		t.Fatalf("got %d reports", len(reps))
	}
	for _, rep := range reps {
		if rep == nil {
			t.Fatal("nil report without error")
		}
		for i := range rep.Modes {
			checkAccounting(t, &rep.Modes[i])
		}
	}
}

func TestMeasureResilienceRejectsNonNetwork(t *testing.T) {
	ker := workload.Kernels()[0]
	if _, err := measureResilience(ker, 10, core.Options{}, nil); err == nil {
		t.Fatal("expected category error")
	}
}
