package bench

import (
	"context"
	"errors"
	"fmt"

	"cash/internal/core"
	"cash/internal/vm"
)

// The detector table compares the bound-violation detectors the paper
// discusses — no checking (GCC), Electric Fence guard pages (related
// work, §2), BCC software checks, the bound instruction, and Cash — on a
// heap-churning workload: run-time overhead, heap address-space
// consumption, and what each one actually catches.

// detectorHeapKernel allocates, fills and frees many heap buffers — the
// access pattern Electric Fence was built for.
const detectorHeapKernel = `
int total;
int churn(int n, int seed) {
	int *buf = malloc(n * 4);
	for (int i = 0; i < n; i++) buf[i] = seed + i;
	int s = 0;
	for (int i = 0; i < n; i++) s += buf[i];
	free(buf);
	return s;
}
void main() {
	for (int r = 0; r < 200; r++) {
		total += churn(16 + (r % 48), r);
	}
	printi(total);
}`

// Overflow probes, one per memory region.
const (
	probeHeap = `
void main() {
	char *b = malloc(24);
	for (int i = 0; i < 40; i++) b[i] = 'A';
}`
	probeGlobal = `
int g[8];
void main() { for (int i = 0; i <= 8; i++) g[i] = i; }`
	probeStack = `
void smash() {
	int b[8];
	for (int i = 0; i <= 8; i++) b[i] = i;
}
void main() { smash(); }`
)

type detectorVariant struct {
	name string
	mode core.Mode
	opts core.Options
}

func detectorVariants() []detectorVariant {
	return []detectorVariant{
		{name: "GCC (unchecked)", mode: core.ModeGCC},
		{name: "Electric Fence", mode: core.ModeGCC, opts: core.Options{ElectricFence: true}},
		{name: "BCC (6-instr seq)", mode: core.ModeBCC},
		{name: "BCC (bound instr)", mode: core.ModeBCC, opts: core.Options{UseBoundInstr: true}},
		{name: "Cash", mode: core.ModeCash},
	}
}

// detectorTable builds the comparison.
func (s Suite) detectorTable(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "detectors",
		Title:   "bound-violation detectors on a heap-churn workload (200 allocations)",
		Columns: []string{"Detector", "Cycles", "Overhead", "Heap Span", "Heap OOB", "Global OOB", "Stack OOB"},
		Notes: []string{
			"Electric Fence catches only heap overruns, at ~2 pages of address space per allocation (§2)",
			"cache/page-fault costs of the fence layout are not modelled; its true run-time cost would be higher",
		},
	}
	type variantResult struct {
		cycles   uint64
		heapSpan uint32
		caught   [3]bool
	}
	vs := detectorVariants()
	results := make([]variantResult, len(vs))
	err := s.Engine.Do(len(vs), func(i int) error {
		v := vs[i]
		art, err := s.Engine.BuildContext(ctx, detectorHeapKernel, v.mode, s.opt(v.opts))
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		res, err := s.Engine.RunContext(ctx, art)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		if res.Violation != nil {
			return fmt.Errorf("%s: spurious violation: %v", v.name, res.Violation)
		}
		results[i].cycles = res.Cycles
		results[i].heapSpan = res.HeapSpan
		for pi, probe := range []string{probeHeap, probeGlobal, probeStack} {
			caught, err := s.detects(ctx, probe, v)
			if err != nil {
				return fmt.Errorf("%s: probe: %w", v.name, err)
			}
			results[i].caught[pi] = caught
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := results[0].cycles // variants[0] is the unchecked GCC baseline
	for i, v := range vs {
		r := results[i]
		ovh := float64(r.cycles-base) / float64(base) * 100
		row := []string{
			v.name,
			fmt.Sprintf("%d", r.cycles),
			pct(ovh),
			fmt.Sprintf("%dK", r.heapSpan/1024),
		}
		for _, caught := range r.caught {
			if caught {
				row = append(row, "caught")
			} else {
				row = append(row, "missed")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// detects reports whether the variant stops the probe's overflow. The
// probe is built with the overflow oracle (core.Options.Oracle), so the
// run ends at the overflowing reference either way: "caught" is a
// detected violation — the strategy's check, a segment-limit #GP or an
// Electric Fence guard-page fault — and "missed" is the oracle's
// vm.FaultUncaughtOverflow, the first reference that left its object
// with nothing stopping it. Every probe overflows by construction, so
// any other ending (a clean exit, the step limit, an unclassified
// crash) means the oracle missed a reference, and is an error. The run
// goes through the Engine, so each verdict is simulated once and served
// from the run cache afterwards.
func (s Suite) detects(ctx context.Context, src string, v detectorVariant) (bool, error) {
	opts := s.opt(v.opts)
	opts.Oracle = true
	art, err := s.Engine.BuildContext(ctx, src, v.mode, opts)
	if err != nil {
		return false, err
	}
	res, err := s.Engine.RunContext(ctx, art)
	var f *vm.Fault
	switch {
	case errors.As(err, &f) && f.Kind == vm.FaultUncaughtOverflow:
		return false, nil
	case err != nil:
		return false, err
	case res.Violation == nil:
		return false, errors.New("probe ran to completion without an overflow verdict")
	}
	return true, nil
}
