package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cash/internal/core"
	"cash/internal/vm"
)

// runDeltas runs each artifact once on eng and returns the results with
// the vm.runs and serve.cache.run_hits deltas the runs caused.
func runDeltas(t *testing.T, eng *Engine, arts ...*core.Artifact) (res []*core.RunResult, sims, hits uint64) {
	t.Helper()
	runs, runHits := counter("vm.runs"), counter("serve.cache.run_hits")
	for _, art := range arts {
		res = append(res, mustRun(t, eng, art))
	}
	return res, counter("vm.runs") - runs, counter("serve.cache.run_hits") - runHits
}

// TestRunsShareOneSimulation pins the run cache's address: two build
// requests that compile to the same program with the same machine
// options are distinct artifacts, but they share one run key, so the
// second run is served from the first one's simulation. Cash at budgets
// 2 and 3 is one program when every loop fits in two registers, as
// heapKernel's do.
func TestRunsShareOneSimulation(t *testing.T) {
	for _, c := range []struct {
		name       string
		srcA, srcB string
		a, b       core.Options
	}{
		{"cash SegRegs 2/0", heapKernel, heapKernel, core.Options{SegRegs: 2}, core.Options{}},
		{"comment", heapKernel, "// a comment\n" + heapKernel, core.Options{}, core.Options{}},
	} {
		eng := NewEngine(EngineConfig{})
		a := mustBuild(t, eng, c.srcA, core.ModeCash, c.a)
		b := mustBuild(t, eng, c.srcB, core.ModeCash, c.b)
		if a == b {
			t.Fatalf("%s: the two builds are one cached artifact", c.name)
		}
		res, sims, hits := runDeltas(t, eng, a, b)
		if sims != 1 || hits != 1 {
			t.Fatalf("%s: vm.runs delta %d, run_hits delta %d; want 1 and 1", c.name, sims, hits)
		}
		if res[0] == res[1] || !reflect.DeepEqual(res[0], res[1]) {
			t.Fatalf("%s: shared run is not an equal private copy:\n%+v\nvs\n%+v", c.name, res[0], res[1])
		}
		if cold := coldRun(t, heapKernel, core.ModeCash); !reflect.DeepEqual(res[1], cold) {
			t.Fatalf("%s: shared run differs from a direct run:\n%+v\nvs\n%+v", c.name, res[1], cold)
		}
	}
}

// TestBudgetOutsideCashIsOneBuild pins that the engine keys a build by
// its normalised options: gcc ignores the segment-register budget, so
// gcc builds at budgets 0, 2, 3 and 4 are one compile, one artifact and
// one simulation. An unsupported budget fails under every strategy.
func TestBudgetOutsideCashIsOneBuild(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	compiles := counter("serve.build.compiles")
	var arts []*core.Artifact
	for _, regs := range []int{0, 2, 3, 4} {
		arts = append(arts, mustBuild(t, eng, heapKernel, core.ModeGCC, core.Options{SegRegs: regs}))
	}
	if got := counter("serve.build.compiles") - compiles; got != 1 {
		t.Fatalf("serve.build.compiles delta %d, want 1", got)
	}
	for i, art := range arts {
		if art != arts[0] {
			t.Fatalf("build %d is not the budget-0 artifact", i)
		}
	}
	if _, sims, hits := runDeltas(t, eng, arts...); sims != 1 || hits != 3 {
		t.Fatalf("vm.runs delta %d, run_hits delta %d; want 1 and 3", sims, hits)
	}
	for _, mode := range []core.Mode{core.ModeGCC, core.ModeCash} {
		for _, regs := range []int{1, 5, -1} {
			if _, err := eng.BuildContext(context.Background(), heapKernel, mode, core.Options{SegRegs: regs}); err == nil {
				t.Errorf("%s: budget %d builds", mode, regs)
			}
		}
	}
}

// TestRunsThatMustNotShare pins the other side: a run option separates
// two runs of one program. The engine compiles the program once and
// hands the second request a view of it, but the option enters the run
// key; an oracle run and a default run of one build never share one.
func TestRunsThatMustNotShare(t *testing.T) {
	for name, opts := range map[string]core.Options{
		"StepLimit":       {StepLimit: 1 << 30},
		"WithoutCallGate": {WithoutCallGate: true},
		"ElectricFence":   {ElectricFence: true},
		"StepOnly":        {StepOnly: true},
		"Oracle":          {Oracle: true},
	} {
		eng := NewEngine(EngineConfig{})
		compiles := counter("serve.build.compiles")
		base := mustBuild(t, eng, heapKernel, core.ModeCash, core.Options{})
		other := mustBuild(t, eng, heapKernel, core.ModeCash, opts)
		if n := counter("serve.build.compiles") - compiles; n != 1 || other.Program != base.Program {
			t.Errorf("%s: %d compiles, shared program %v; want one compile of one program", name, n, other.Program == base.Program)
		}
		if base.RunKey() == other.RunKey() {
			t.Errorf("%s: shares the default run's key", name)
		}
		if _, sims, hits := runDeltas(t, eng, base, other); sims != 2 || hits != 0 {
			t.Errorf("%s: vm.runs delta %d, run_hits delta %d; want 2 and 0", name, sims, hits)
		}
	}
}

// TestRunOptionsShareOneBuild pins the detector table's sharing: GCC
// and GCC under Electric Fence are one compile and two runs, and oracle
// requests share their runs — two for one build one simulation, and an
// oracle build of an equal program (cash at budget 2, which heapKernel's
// loops fit) the same.
func TestRunOptionsShareOneBuild(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	compiles := counter("serve.build.compiles")
	gcc := mustBuild(t, eng, heapKernel, core.ModeGCC, core.Options{})
	fence := mustBuild(t, eng, heapKernel, core.ModeGCC, core.Options{ElectricFence: true})
	if n := counter("serve.build.compiles") - compiles; n != 1 {
		t.Fatalf("gcc and Electric Fence: %d compiles, want 1", n)
	}
	res, sims, hits := runDeltas(t, eng, gcc, fence)
	if sims != 2 || hits != 0 {
		t.Fatalf("gcc and Electric Fence: vm.runs delta %d, run_hits delta %d; want 2 and 0", sims, hits)
	}
	if res[1].HeapSpan <= res[0].HeapSpan {
		t.Fatalf("Electric Fence heap span %d, gcc's %d: the fence did not run", res[1].HeapSpan, res[0].HeapSpan)
	}

	a := mustBuild(t, eng, heapKernel, core.ModeCash, core.Options{Oracle: true})
	b := mustBuild(t, eng, heapKernel, core.ModeCash, core.Options{Oracle: true})
	c := mustBuild(t, eng, heapKernel, core.ModeCash, core.Options{Oracle: true, SegRegs: 2})
	if a.Program != b.Program || c.Program == a.Program {
		t.Fatal("oracle requests for one build do not share its program, or two builds share one")
	}
	if _, sims, hits := runDeltas(t, eng, a, b, c); sims != 1 || hits != 2 {
		t.Errorf("oracle runs: vm.runs delta %d, run_hits delta %d; want 1 and 2", sims, hits)
	}
}

// TestConcurrentRunsShareOneSimulation starts runs of 8 distinct
// artifacts — sources that differ only in a comment — at once: they
// share one run key, so exactly one simulation happens and the other
// runs wait for it (or find its outcome), whatever the interleaving.
func TestConcurrentRunsShareOneSimulation(t *testing.T) {
	const n = 8
	eng := NewEngine(EngineConfig{MaxInFlight: n})
	arts := make([]*core.Artifact, n)
	for i := range arts {
		arts[i] = mustBuild(t, eng, fmt.Sprintf("// variant %d\n%s", i, heapKernel), core.ModeCash, core.Options{})
		if i > 0 && arts[i] == arts[0] {
			t.Fatal("sources differing in a comment built one artifact")
		}
	}
	runs, runHits := counter("vm.runs"), counter("serve.cache.run_hits")
	res := make([]*core.RunResult, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range arts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res[i], errs[i] = eng.RunContext(context.Background(), arts[i])
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(res[i], res[0]) || (i > 0 && res[i] == res[0]) {
			t.Fatalf("run %d is not an equal private copy of run 0", i)
		}
	}
	if got := counter("vm.runs") - runs; got != 1 {
		t.Fatalf("vm.runs delta = %d, want 1", got)
	}
	if got := counter("serve.cache.run_hits") - runHits; got != n-1 {
		t.Fatalf("run_hits delta = %d, want %d", got, n-1)
	}
}

// TestCanceledRunLeaderDoesNotFailWaiters: a run that waits on another
// caller's simulation of the same run key must not inherit that
// caller's cancellation. The waiter runs the program itself and gets
// the program's outcome, here a step-limit fault; nothing canceled is
// memoised.
func TestCanceledRunLeaderDoesNotFailWaiters(t *testing.T) {
	eng := NewEngine(EngineConfig{MaxInFlight: 2})
	opts := core.Options{StepLimit: 30_000_000}
	leader := mustBuild(t, eng, runawayKernel, core.ModeGCC, opts)
	waiter := mustBuild(t, eng, "// waiter\n"+runawayKernel, core.ModeGCC, opts)
	key, _ := eng.cache.runKey(leader)
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := eng.RunContext(ctx, leader)
		leaderErr <- err
	}()
	waitUntil("the leader's flight", func() bool {
		eng.cache.mu.Lock()
		defer eng.cache.mu.Unlock()
		return eng.cache.flights["r:"+key] != nil
	})
	waiterErr := make(chan error, 1)
	go func() {
		_, err := eng.RunContext(context.Background(), waiter)
		waiterErr <- err
	}()
	waitUntil("the waiter's admission", func() bool {
		eng.adm.mu.Lock()
		defer eng.adm.mu.Unlock()
		return eng.adm.inflight == 2
	})
	// Let the waiter reach the flight. Should it not have, it finds the
	// flight ended without an outcome, or none, and leads the run
	// itself: the outcome below is the same either way.
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want context.Canceled", err)
	}
	err := <-waiterErr
	if f := (*vm.Fault)(nil); !errors.As(err, &f) || f.Kind != vm.FaultStepLimit {
		t.Fatalf("waiter: err = %v, want the step-limit fault", err)
	}
	// The waiter's outcome, not the cancellation, is what a third run
	// finds.
	runs := counter("vm.runs")
	if _, again := eng.RunContext(context.Background(), leader); again == nil || again.Error() != err.Error() {
		t.Fatalf("third run: err = %v, want %v", again, err)
	}
	if got := counter("vm.runs") - runs; got != 0 {
		t.Fatalf("third run simulated (vm.runs delta %d): the waiter's outcome was not memoised", got)
	}
}
