package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cash/internal/core"
	"cash/internal/vm"
)

// inflight reads the Engine's count of builds, runs and comparisons in
// flight.
func inflight(e *Engine) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inflight
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestEngineCloseRejectsNewWork pins the lifecycle end: after Close,
// every entry point returns the typed ErrEngineClosed, and Close is
// idempotent.
func TestEngineCloseRejectsNewWork(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	art := mustBuild(t, eng, sumKernel, core.ModeCash, core.Options{})
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	checkRejects(t, eng, art)
}

// checkRejects requires a build, a run and a comparison on a closed
// engine to fail with ErrEngineClosed.
func checkRejects(t *testing.T, eng *Engine, art *core.Artifact) {
	t.Helper()
	ctx := context.Background()
	if _, err := eng.BuildContext(ctx, sumKernel, core.ModeCash, core.Options{}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("BuildContext after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := eng.RunContext(ctx, art); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("RunContext after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := eng.CompareStrategiesContext(ctx, "k", sumKernel, core.CompareConfig{}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("CompareStrategiesContext after Close: %v, want ErrEngineClosed", err)
	}
}

// beginClose starts Close and waits until it has begun; the returned
// channel closes when Close returns.
func beginClose(t *testing.T, eng *Engine) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		eng.Close()
		close(done)
	}()
	waitFor(t, "Close to begin", func() bool {
		eng.mu.Lock()
		defer eng.mu.Unlock()
		return eng.closed
	})
	return done
}

// TestEngineCloseDrainsInFlight pins the drain around a real in-flight
// run: while a runaway kernel burns its step budget, Close blocks and
// new builds, runs and comparisons fail with ErrEngineClosed. The run
// is not cut short: it ends with its own outcome, the step-limit fault,
// and only then does Close return.
func TestEngineCloseDrainsInFlight(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	quick := mustBuild(t, eng, sumKernel, core.ModeCash, core.Options{})
	runaway := mustBuild(t, eng, runawayKernel, core.ModeGCC, core.Options{StepLimit: 20_000_000})
	runErr := make(chan error, 1)
	go func() {
		_, err := eng.RunContext(context.Background(), runaway)
		runErr <- err
	}()
	waitFor(t, "the run to enter", func() bool { return inflight(eng) == 1 })
	closed := beginClose(t, eng)
	checkRejects(t, eng, quick)
	select {
	case <-closed:
		t.Fatal("Close returned while a run was in flight")
	case err := <-runErr:
		t.Fatalf("the run returned (%v) before the checks ended; raise its step limit", err)
	default:
	}
	if err, f := <-runErr, (*vm.Fault)(nil); !errors.As(err, &f) || f.Kind != vm.FaultStepLimit {
		t.Fatalf("in-flight run: err = %v, want its step-limit fault", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the run drained")
	}
}

// TestEngineCloseDrainsBuilds pins the drain for a build: a build
// waiting on another caller's compile of its key is in flight, and Close
// waits for it.
func TestEngineCloseDrainsBuilds(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	art, err := core.Build(sumKernel, core.ModeCash, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := core.NormalizeOptions(core.ModeCash, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := core.BuildKey(sumKernel, core.ModeCash, opts)
	f, leader := eng.cache.startFlight("a:" + key)
	if !leader {
		t.Fatal("a fresh engine already has a flight for the key")
	}
	buildErr := make(chan error, 1)
	go func() {
		_, err := eng.BuildContext(context.Background(), sumKernel, core.ModeCash, core.Options{})
		buildErr <- err
	}()
	waitFor(t, "the build to enter", func() bool { return inflight(eng) == 1 })
	closed := beginClose(t, eng)
	select {
	case <-closed:
		t.Fatal("Close returned while a build was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	eng.cache.finishFlight(key, f, art, nil)
	if err := <-buildErr; err != nil {
		t.Fatalf("in-flight build: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the build drained")
	}
}

// TestParallelismIsNoGate pins that the Engine schedules nothing of its
// own: on an engine with Parallelism 1, two runs of different run keys
// simulate at the same time. Callers bound concurrency (srv by its
// worker pool); Parallelism sizes only Engine.Do's fan-outs.
func TestParallelismIsNoGate(t *testing.T) {
	eng := NewEngine(EngineConfig{Parallelism: 1})
	arts := []*core.Artifact{
		mustBuild(t, eng, runawayKernel, core.ModeGCC, core.Options{StepLimit: 100_000_000}),
		mustBuild(t, eng, runawayKernel, core.ModeGCC, core.Options{StepLimit: 100_000_001}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, len(arts))
	var keys []string
	for _, art := range arts {
		key, _ := eng.cache.runKey(art)
		keys = append(keys, "r:"+key)
		go func(art *core.Artifact) {
			_, err := eng.RunContext(ctx, art)
			errs <- err
		}(art)
	}
	waitFor(t, "both runs to simulate at once", func() bool {
		eng.cache.mu.Lock()
		defer eng.cache.mu.Unlock()
		return eng.cache.flights[keys[0]] != nil && eng.cache.flights[keys[1]] != nil
	})
	cancel()
	for range arts {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run: err = %v, want context.Canceled", err)
		}
	}
}

// TestCancellationStormLeaksNothing starts a storm of runs that share
// one simulation and cancels each at a random point — before, during or
// after that simulation: afterwards nothing is left in flight, so Close
// returns at once.
func TestCancellationStormLeaksNothing(t *testing.T) {
	eng := NewEngine(EngineConfig{Parallelism: 2})
	art := mustBuild(t, eng, heapKernel, core.ModeCash, core.Options{})

	const storm = 200
	rng := rand.New(rand.NewSource(7))
	delays := make([]time.Duration, storm)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(2000)) * time.Microsecond
	}
	var wg sync.WaitGroup
	errs := make([]error, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(delays[i], cancel)
			defer timer.Stop()
			defer cancel()
			_, errs[i] = eng.RunContext(ctx, art)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("storm client %d: unexpected error %v", i, err)
		}
	}
	if n := inflight(eng); n != 0 {
		t.Fatalf("%d requests left in flight after the storm", n)
	}
	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked after the storm: a request leaked")
	}
}
