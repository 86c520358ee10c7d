// Engine: serve many build/run requests through one cash.Engine and
// watch the serving layers work — the artifact cache compiles each
// distinct program once (concurrent duplicates coalesce onto one
// compile), the run cache replays deterministic executions without
// re-simulating, machines are built on recycled parts, and a request
// canceled mid-simulation returns promptly without leaking anything.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"cash"
)

const kernel = `
int churn(int n) {
	int *buf = malloc(n * 4);
	for (int i = 0; i < n; i++) buf[i] = i * 3;
	int s = 0;
	for (int i = 0; i < n; i++) s += buf[i];
	free(buf);
	return s;
}
void main() {
	int t = 0;
	for (int r = 0; r < 50; r++) t += churn(8 + r);
	printi(t);
}`

// runaway burns its entire step budget — the kind of request a serving
// deployment wants to be able to cancel.
const runaway = `
void main() {
	int s = 0;
	for (int i = 0; i < 2000000000; i++) s += i;
	printi(s);
}`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	eng := cash.NewEngine(cash.EngineConfig{})

	// 1. Thirty-two concurrent identical requests, one compile.
	before := cash.Metrics()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.BuildContext(ctx, kernel, cash.ModeCash, cash.Options{}); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()
	delta := cash.Metrics().Delta(before)
	fmt.Printf("32 concurrent builds -> %d compile(s), %d served from cache or coalesced\n",
		delta.Counters["serve.build.compiles"],
		delta.Counters["serve.cache.hits"]+delta.Counters["serve.build.coalesced"])

	// 2. Repeat runs come from the run cache; the results are identical.
	art, err := eng.BuildContext(ctx, kernel, cash.ModeCash, cash.Options{})
	if err != nil {
		return err
	}
	cold := time.Now()
	res1, err := eng.RunContext(ctx, art)
	if err != nil {
		return err
	}
	coldTook := time.Since(cold)
	warm := time.Now()
	res2, err := eng.RunContext(ctx, art)
	if err != nil {
		return err
	}
	fmt.Printf("first run %d cycles in %v; repeat run %d cycles in %v (run cache)\n",
		res1.Cycles, coldTook.Round(time.Microsecond),
		res2.Cycles, time.Since(warm).Round(time.Microsecond))

	// 3. Cancel a runaway request mid-simulation.
	hog, err := eng.BuildContext(ctx, runaway, cash.ModeGCC, cash.Options{StepLimit: 500_000_000})
	if err != nil {
		return err
	}
	cancelable, cancel := context.WithCancel(ctx)
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := eng.RunContext(cancelable, hog); err != nil {
		fmt.Printf("runaway request canceled after %v: %v\n",
			time.Since(start).Round(time.Millisecond), err)
	}

	// 4. The engine is unharmed: the next request serves normally.
	if _, err := eng.RunContext(ctx, art); err != nil {
		return err
	}
	total := cash.Metrics().Delta(before)
	fmt.Printf("builds compiled: %d; run cache hits: %d\n",
		total.Counters["serve.build.compiles"],
		total.Counters["serve.cache.run_hits"])
	return nil
}
