// Chaos: the resilient network server under deterministic fault
// injection. A seeded PRNG picks ~10% of requests and hits each with one
// injected fault — a transient modify_ldt failure, LDT exhaustion,
// descriptor or shadow free-list corruption, an unmapped request page, a
// malformed request, or a runaway handler — and the server retries with
// backoff, sheds load, degrades to flat segments (§3.4), or detects the
// damage, but never crashes. Because every injection decision is a pure
// function of (seed, request, attempt), two runs with the same seed
// agree to the last counter.
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"

	"cash"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	w, ok := cash.WorkloadByName("apache")
	if !ok {
		return fmt.Errorf("apache workload missing")
	}
	const (
		requests = 400
		seed     = 1
		rate     = 0.10
	)
	eng := cash.NewEngine(cash.EngineConfig{})
	defer eng.Close()
	ctx := context.Background()
	rep, err := eng.MeasureResilience(ctx, w, requests, cash.Options{},
		cash.ResilienceConfig{Seed: seed, Rate: rate})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d requests, %.0f%% injection rate, seed %d\n\n",
		rep.Paper, rep.Requests, rate*100, uint64(seed))
	fmt.Printf("%-5s %6s %5s %5s %6s %5s %5s %5s %5s %5s\n",
		"mode", "avail", "inj", "retry", "shed", "degr", "tmo", "det", "tol", "p99")
	for i := range rep.Modes {
		m := &rep.Modes[i]
		fmt.Printf("%-5s %5.1f%% %5d %5d %6d %5d %5d %5d %5d %4dK\n",
			m.Mode, m.AvailabilityPct(), m.Injected, m.Retries,
			m.Shed, m.Degraded, m.TimedOut, m.Detected, m.Tolerated, m.P99/1000)
	}

	// Determinism: the same seed replays the exact same faults.
	again, err := eng.MeasureResilience(ctx, w, requests, cash.Options{},
		cash.ResilienceConfig{Seed: seed, Rate: rate})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(rep, again) {
		return fmt.Errorf("same seed produced a different report")
	}
	fmt.Println("\nsecond run with the same seed: identical report (deterministic replay)")

	// A different seed injects a different fault schedule.
	other, err := eng.MeasureResilience(ctx, w, requests, cash.Options{},
		cash.ResilienceConfig{Seed: seed + 1, Rate: rate})
	if err != nil {
		return err
	}
	if reflect.DeepEqual(rep, other) {
		return fmt.Errorf("different seeds produced identical reports")
	}
	fmt.Println("seed+1: different fault schedule, server still available")
	return nil
}
