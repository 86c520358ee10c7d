package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cash/internal/core"
)

// TestEngineCloseRejectsNewWork pins the lifecycle end: after Close,
// every entry point returns the typed ErrEngineClosed, and Close is
// idempotent.
func TestEngineCloseRejectsNewWork(t *testing.T) {
	eng := NewEngine(EngineConfig{MaxInFlight: 2})
	art := mustBuild(t, eng, sumKernel, core.ModeCash, core.Options{})
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
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

// TestEngineCloseDrainsInFlight pins the drain: Close blocks until the
// admitted request releases its slot, then returns; queued waiters fail
// with ErrEngineClosed immediately rather than waiting out the drain.
func TestEngineCloseDrainsInFlight(t *testing.T) {
	eng := NewEngine(EngineConfig{MaxInFlight: 1, Parallelism: 1})
	// Occupy the only slot directly.
	if err := eng.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Queue a waiter behind it.
	waiterErr := make(chan error, 1)
	go func() {
		err := eng.acquire(context.Background())
		if err == nil {
			eng.release()
		}
		waiterErr <- err
	}()
	// Wait until the waiter is queued.
	for {
		eng.adm.mu.Lock()
		n := eng.adm.waiters.Len()
		eng.adm.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	// The queued waiter must fail promptly, without the drain finishing.
	select {
	case err := <-waiterErr:
		if !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("queued waiter: %v, want ErrEngineClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter did not fail after Close")
	}
	// Close must still be blocked on the in-flight slot.
	select {
	case <-closed:
		t.Fatal("Close returned before the in-flight request drained")
	case <-time.After(20 * time.Millisecond):
	}
	eng.release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the last slot was released")
	}
}

// TestAdmissionCancellationStorm queues a storm of clients behind a
// fully occupied engine and cancels them all mid-wait, interleaved with
// real releases so grants race cancels: afterwards no slot may be
// leaked (the full limit is immediately acquirable).
func TestAdmissionCancellationStorm(t *testing.T) {
	const limit = 2
	eng := NewEngine(EngineConfig{MaxInFlight: limit, Parallelism: limit})
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
			// Cancel mid-wait (or mid-run, for the few that get in).
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
	// No slot leak: the full admission limit is acquirable right now.
	for i := 0; i < limit; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := eng.acquire(ctx); err != nil {
			cancel()
			t.Fatalf("slot %d leaked: acquire after the storm failed: %v", i, err)
		}
		cancel()
	}
	for i := 0; i < limit; i++ {
		eng.release()
	}
}
