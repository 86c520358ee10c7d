package par

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, budget := range []int{1, 2, 16} {
		const n = 100
		var counts [n]atomic.Int32
		if err := DoN(budget, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("budget %d: f(%d) ran %d times", budget, i, got)
			}
		}
	}
}

func TestDoReturnsLowestIndexError(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		err := DoN(8, 20, func(i int) error {
			if i == 3 || i == 17 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-3" {
			t.Fatalf("want fail-3 (lowest failing index), got %v", err)
		}
	}
}

// TestDoConcurrentSimultaneousFailures pins the scheduling-independence
// half of Do's contract: when several indices fail at the same moment —
// a rendezvous barrier holds every worker in flight until all have
// started, so no failure is ordered before another by the work loop —
// the returned error is still the lowest failed index's.
func TestDoConcurrentSimultaneousFailures(t *testing.T) {
	const n = 8
	for trial := 0; trial < 25; trial++ {
		var barrier sync.WaitGroup
		barrier.Add(n)
		err := DoN(n, n, func(i int) error {
			barrier.Done()
			barrier.Wait()
			if i%2 == 1 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-1" {
			t.Fatalf("trial %d: want fail-1 (lowest failing index), got %v", trial, err)
		}
	}
}

func TestDoSequentialStopsAtFirstError(t *testing.T) {
	ran := 0
	sentinel := errors.New("stop")
	err := DoN(1, 10, func(i int) error {
		ran++
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
	if ran != 3 {
		t.Fatalf("sequential mode must stop at first error; ran %d calls", ran)
	}
}

// TestDoNClampsBudgetToOne: a budget below 1 runs sequentially — inline,
// stopping at the first error — rather than running nothing.
func TestDoNClampsBudgetToOne(t *testing.T) {
	ran := 0
	sentinel := errors.New("stop")
	err := DoN(-5, 10, func(i int) error {
		ran++
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || ran != 3 {
		t.Fatalf("budget -5: err %v after %d calls, want the sentinel after 3", err, ran)
	}
}

func TestDoZeroItems(t *testing.T) {
	if err := DoN(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
	if errs := DoCollectN(4, 0, func(int) error { return errors.New("never") }); errs != nil {
		t.Fatalf("DoCollectN(4, 0) = %v, want nil", errs)
	}
}

// TestDoCollectNRunsEveryIndex: unlike a sequential DoN, DoCollectN
// runs past failures and reports each index's own error, at any budget.
func TestDoCollectNRunsEveryIndex(t *testing.T) {
	for _, budget := range []int{1, 4} {
		ran := 0
		var mu sync.Mutex
		errs := DoCollectN(budget, 6, func(i int) error {
			mu.Lock()
			ran++
			mu.Unlock()
			if i%3 == 0 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if ran != 6 || len(errs) != 6 {
			t.Fatalf("budget %d: ran %d calls, %d errors; want 6 and 6", budget, ran, len(errs))
		}
		for i, err := range errs {
			if want := i%3 == 0; (err != nil) != want || (want && err.Error() != fmt.Sprintf("fail-%d", i)) {
				t.Fatalf("budget %d: errs[%d] = %v", budget, i, err)
			}
		}
	}
}
