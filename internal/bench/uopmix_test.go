//go:build sbstats

package bench

import (
	"os"
	"testing"

	"cash/internal/serve"
	"cash/internal/vm"
)

// TestUopMix checks the tier-2 dispatch mix of the cold default suite
// (build with -tags sbstats): every superop's fast path fires, every
// specialised micro-op kind is dispatched, and the run loop dispatches
// at least 30% fewer times than it retires instructions in superblocks.
//
// Each specialised kind is a second implementation of an instruction's
// semantics next to the step interpreter's, so one that the suite never
// reaches is code with nothing to show for it: route its shape through
// the generic micro-op instead. The ten conditional-jump kinds are
// exempt. A fused compare or a superop consumes them through the run
// loop's cond label, and they dispatch on their own only after a generic
// micro-op or at a trace head, which the suite never does.
//
//	go test -tags sbstats ./internal/bench -run TestUopMix -v
func TestUopMix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole cold suite")
	}
	before := vm.ReadUopMix()
	_, _, _, retiredBefore := vm.SBCounters()
	eng := serve.NewEngine(serve.EngineConfig{})
	defer eng.Close()
	got := renderAll(t, Suite{Engine: eng}, 200)
	want, err := os.ReadFile("testdata/golden_all_200.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("cold suite drifted from the golden:\n%s", firstDiff(got, string(want)))
	}
	after := vm.ReadUopMix()
	_, _, _, retiredAfter := vm.SBCounters()
	t.Logf("process-wide mix:\n%s", after)

	for name, n := range after.Fired {
		if n == before.Fired[name] {
			t.Errorf("superop %s never took its fast path", name)
		}
	}
	condJumps := map[string]bool{"je": true, "jne": true, "jl": true, "jle": true, "jg": true,
		"jge": true, "jb": true, "jae": true, "ja": true, "jbe": true}
	for name, n := range after.Dispatched {
		if n == before.Dispatched[name] && !condJumps[name] {
			t.Errorf("micro-op kind %s never dispatched", name)
		}
	}
	dispatches, retired := after.Total-before.Total, retiredAfter-retiredBefore
	if retired == 0 || float64(dispatches) > 0.7*float64(retired) {
		t.Errorf("%d dispatches for %d instructions retired in superblocks: want at least 30%% fewer", dispatches, retired)
	}
}
