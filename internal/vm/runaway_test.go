package vm_test

import (
	"reflect"
	"testing"

	"cash/internal/core"
	"cash/internal/vm"
)

// stackProbe is the detector table's stack-overflow probe (see
// internal/bench/detectors.go). Unchecked, its smashed frame returns
// into garbage and the program runs away until the step limit, walking
// the stack pointer upward out of the stack arena into sparse physical
// memory — the costliest single run of the paper suite.
const stackProbe = `
void smash() {
	int b[8];
	for (int i = 0; i <= 8; i++) b[i] = i;
}
void main() { smash(); }`

// runProbe runs the unchecked stack probe to limit instructions and
// returns the outcome with the number of sparse pages it materialised.
func runProbe(tb testing.TB, art *core.Artifact, extra ...vm.Option) (*vm.Result, int, error) {
	tb.Helper()
	m, err := art.NewMachine(extra...)
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Release()
	res, runErr := m.Run()
	return res, m.Memory().PagesAllocated(), runErr
}

func buildProbe(tb testing.TB, limit uint64) *core.Artifact {
	tb.Helper()
	art, err := core.Build(stackProbe, core.ModeGCC, core.Options{StepLimit: limit})
	if err != nil {
		tb.Fatal(err)
	}
	return art
}

// TestRunawayProbeTiersAgree runs the runaway under both execution
// engines and requires identical results, with the run reaching the
// sparse page table so the radix path is what both engines exercised.
func TestRunawayProbeTiersAgree(t *testing.T) {
	art := buildProbe(t, 20_000_000)
	r1, pages1, e1 := runProbe(t, art, vm.WithoutTier2())
	r2, pages2, e2 := runProbe(t, art)
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("errors differ\n step:  %v\n tier2: %v", e1, e2)
	}
	if r1 == nil || r2 == nil {
		t.Fatalf("missing result (step=%v tier2=%v)", r1 != nil, r2 != nil)
	}
	if r2.SB == nil {
		t.Fatal("default run did not execute through the superblock engine")
	}
	c2 := *r2
	c2.SB = nil
	if !reflect.DeepEqual(*r1, c2) {
		t.Fatalf("results differ\n step:  %+v\n tier2: %+v", *r1, c2)
	}
	if pages1 == 0 || pages1 != pages2 {
		t.Fatalf("sparse pages: step %d, tier2 %d; want equal and > 0", pages1, pages2)
	}
}

// BenchmarkRunawayProbe measures the host cost of the runaway per
// simulated instruction under each execution engine.
func BenchmarkRunawayProbe(b *testing.B) {
	for _, tc := range []struct {
		name  string
		extra []vm.Option
	}{
		{"tier2", nil},
		{"step", []vm.Option{vm.WithoutTier2()}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			art := buildProbe(b, 20_000_000)
			var instrs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _, _ := runProbe(b, art, tc.extra...)
				instrs += res.Stats.Instructions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}
