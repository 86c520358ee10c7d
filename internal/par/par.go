// Package par provides the bounded fan-out used by the benchmark
// harness: a process-wide worker budget and an indexed parallel-for.
//
// The harness parallelises the independent rows of each table (every row
// is its own compile-and-run experiment) while the tables themselves stay
// sequential, so per-table counter deltas remain exact. Each worker writes
// only its own index's results, which keeps output ordering — and
// therefore every formatted table — byte-identical to a sequential run.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var parallelism atomic.Int32

func init() { parallelism.Store(int32(runtime.GOMAXPROCS(0))) }

// SetParallelism sets the worker budget for subsequent Do calls. Values
// below 1 are treated as 1 (fully sequential).
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism.Store(int32(n))
}

// Parallelism returns the current worker budget.
func Parallelism() int { return int(parallelism.Load()) }

// Do runs f(0) … f(n-1), at most Parallelism() at a time, and waits for
// every started call to return. On failure it returns the error of the
// lowest failed index: even when several indices fail simultaneously
// under a concurrent budget, the reported error is a deterministic
// function of the failure set, never of goroutine scheduling. With a
// budget of 1 (or n == 1) it runs inline, with no goroutines at all.
//
// The budgets differ in one observable way — which indices run. A
// sequential run stops at the first error, so later indices never
// execute; a concurrent run starts every index and runs each to
// completion. The returned error is identical either way. Callers that
// need every index's side effects, or every error rather than just the
// lowest, must use DoCollect.
func Do(n int, f func(i int) error) error {
	return DoN(Parallelism(), n, f)
}

// DoN is Do with an explicit worker budget instead of the process-wide
// one. The serving engine uses it to give each Engine its own
// parallelism, independent of the process-wide default.
func DoN(budget, n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if budget <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	for _, err := range DoCollectN(budget, n, f) {
		if err != nil {
			return err
		}
	}
	return nil
}

// DoCollect runs f(0) … f(n-1) like Do, but always runs every index to
// completion and returns the full per-index error slice (all nil on
// success). Callers that need partial results alongside a joined error —
// the resilient measurement paths — use this instead of Do.
func DoCollect(n int, f func(i int) error) []error {
	return DoCollectN(Parallelism(), n, f)
}

// DoCollectN is DoCollect with an explicit worker budget.
func DoCollectN(budget, n int, f func(i int) error) []error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	p := budget
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = f(i)
		}
		return errs
	}
	sem := make(chan struct{}, p)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errs
}
