// Package par provides the bounded fan-out used by the benchmark
// harness: an indexed parallel-for under an explicit worker budget
// (each serving Engine passes its own).
//
// The harness parallelises the independent rows of each table (every row
// is its own compile-and-run experiment) while the tables themselves stay
// sequential, so per-table counter deltas remain exact. Each worker writes
// only its own index's results, which keeps output ordering — and
// therefore every formatted table — byte-identical to a sequential run.
package par

import "sync"

// DoN runs f(0) … f(n-1), at most budget at a time, and waits for every
// started call to return. On failure it returns the error of the
// lowest failed index: even when several indices fail simultaneously
// under a concurrent budget, the reported error is a deterministic
// function of the failure set, never of goroutine scheduling. With a
// budget of 1 or less (or n == 1) it runs inline, with no goroutines at
// all.
//
// The budgets differ in one observable way — which indices run. A
// sequential run stops at the first error, so later indices never
// execute; a concurrent run starts every index and runs each to
// completion. The returned error is identical either way. Callers that
// need every index's side effects, or every error rather than just the
// lowest, must use DoCollectN.
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

// DoCollectN runs f(0) … f(n-1) like DoN, but always runs every index
// to completion and returns the full per-index error slice (all nil on
// success). Callers that need partial results alongside a joined error —
// the resilient measurement paths — use this instead of DoN.
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
