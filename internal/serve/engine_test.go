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
	"cash/internal/mem"
	"cash/internal/obs"
	"cash/internal/vm"
)

// Small deterministic kernels for cache and lifecycle tests. Each test that
// counts global metrics snapshots them before and after, so the tests
// compose with anything else the package (or a cached engine) did.
const sumKernel = `
void main() {
	int s = 0;
	for (int i = 0; i < 100; i++) s += i;
	printi(s);
}`

const heapKernel = `
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
	for (int r = 0; r < 20; r++) t += churn(8 + r);
	printi(t);
}`

// runawayKernel burns its entire step budget.
const runawayKernel = `
void main() {
	int s = 0;
	for (int i = 0; i < 2000000000; i++) s += i;
	printi(s);
}`

func counter(name string) uint64 { return obs.Default().Counter(name).Value() }

func mustBuild(t *testing.T, e *Engine, src string, mode core.Mode, opts core.Options) *core.Artifact {
	t.Helper()
	art, err := e.BuildContext(context.Background(), src, mode, opts)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func mustRun(t *testing.T, e *Engine, art *core.Artifact) *core.RunResult {
	t.Helper()
	res, err := e.RunContext(context.Background(), art)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// coldRun is the reference an Engine's results must equal: a direct
// build and run.
func coldRun(t *testing.T, src string, mode core.Mode) *core.RunResult {
	t.Helper()
	art, err := core.Build(src, mode, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := art.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCacheHitIsByteIdentical pins the core cache contract: a cached
// build is the same artifact, a cached run is indistinguishable from a
// real one, and both match a direct build and run.
func TestCacheHitIsByteIdentical(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	for _, mode := range []core.Mode{core.ModeGCC, core.ModeBCC, core.ModeCash} {
		art1 := mustBuild(t, eng, heapKernel, mode, core.Options{})
		art2 := mustBuild(t, eng, heapKernel, mode, core.Options{})
		if art1 != art2 {
			t.Fatalf("[%v] cache hit returned a different artifact", mode)
		}
		runHits := counter("serve.cache.run_hits")
		res1 := mustRun(t, eng, art1) // real simulation, result recorded
		res2 := mustRun(t, eng, art1) // served from the run cache
		if got := counter("serve.cache.run_hits") - runHits; got != 1 {
			t.Fatalf("[%v] run_hits delta = %d, want 1", mode, got)
		}
		if res1 == res2 {
			t.Fatalf("[%v] run cache returned the recorded result itself, not a copy", mode)
		}
		if !reflect.DeepEqual(res1, res2) {
			t.Fatalf("[%v] cached run result differs from the real one:\n%+v\nvs\n%+v", mode, res1, res2)
		}
		if resCold := coldRun(t, heapKernel, mode); !reflect.DeepEqual(res1, resCold) {
			t.Fatalf("[%v] cached engine result differs from a direct run:\n%+v\nvs\n%+v", mode, res1, resCold)
		}
		// A caller mutating its copy — output or superblock stats — must
		// not poison later hits.
		if res2.SB == nil {
			t.Fatalf("[%v] run reported no superblock stats", mode)
		}
		wantSB := *res1.SB
		res2.Output = append(res2.Output, 999999)
		res2.SB.Entries++
		res3 := mustRun(t, eng, art1)
		if !reflect.DeepEqual(res1, res3) || *res3.SB != wantSB {
			t.Fatalf("[%v] mutating a served copy leaked into the cache", mode)
		}
	}
}

// TestCacheTier2Distinct pins that tier-2 and step execution are
// distinct artifacts of one cached program: they compile the same code
// but execute it through different engines, so the step request gets a
// view of the tier-2 build, never the tier-2 artifact itself. A tier-2
// artifact's machines must actually run tier-2 (SB stats present), and
// its results must still equal the step artifact's.
func TestCacheTier2Distinct(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	tier2 := mustBuild(t, eng, heapKernel, core.ModeCash, core.Options{})
	step := mustBuild(t, eng, heapKernel, core.ModeCash, core.Options{StepOnly: true})
	if step == tier2 || !step.Options().StepOnly {
		t.Fatal("step build served the tier-2 artifact from the cache")
	}
	if step.Program != tier2.Program {
		t.Fatal("step build compiled the program again")
	}
	if again := mustBuild(t, eng, heapKernel, core.ModeCash, core.Options{StepOnly: true}); again.Program != step.Program {
		t.Fatal("repeated step build missed the cache")
	}
	res1 := mustRun(t, eng, step)
	res2 := mustRun(t, eng, tier2)
	if res1.SB != nil {
		t.Fatal("step artifact reported superblock stats")
	}
	if res2.SB == nil || res2.SB.InstrsRetired == 0 {
		t.Fatalf("tier-2 artifact did not execute through superblocks: %+v", res2.SB)
	}
	c1, c2 := *res1.Result, *res2.Result
	c2.SB = nil
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("tier-2 result differs from step result:\n%+v\nvs\n%+v", c1, c2)
	}
}

// TestCacheErrorOutcomesAreCached pins that deterministic failures
// (here: a runaway program's step-limit fault) are served from the run
// cache too — the expensive part of the detectors table depends on it.
func TestCacheErrorOutcomesAreCached(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	art := mustBuild(t, eng, runawayKernel, core.ModeGCC, core.Options{StepLimit: 100_000})
	_, err1 := eng.RunContext(context.Background(), art)
	if err1 == nil {
		t.Fatal("runaway kernel ran to completion; want step-limit fault")
	}
	runHits := counter("serve.cache.run_hits")
	_, err2 := eng.RunContext(context.Background(), art)
	if got := counter("serve.cache.run_hits") - runHits; got != 1 {
		t.Fatalf("run_hits delta = %d, want 1 (error outcome not cached)", got)
	}
	if err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("cached error differs: %v vs %v", err1, err2)
	}
}

// TestTracedEngineRun pins the event trace as an option of the run: a
// cached Engine artifact traced through Engine.NewMachine records
// events on every run and reproduces the result the run cache memoised,
// and tracing leaves the artifact the cached one.
func TestTracedEngineRun(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	ctx := context.Background()
	art := mustBuild(t, eng, heapKernel, core.ModeCash, core.Options{})
	want := mustRun(t, eng, art)
	runHits := counter("serve.cache.run_hits")
	if again := mustRun(t, eng, art); !reflect.DeepEqual(want, again) {
		t.Fatal("memoised run differs from the real one")
	}
	if got := counter("serve.cache.run_hits") - runHits; got != 1 {
		t.Fatalf("run_hits delta = %d, want 1: the reference was not memoised", got)
	}
	tr := obs.NewTrace(0)
	first := 0
	for i := 1; i <= 2; i++ {
		m, release, err := eng.NewMachine(art, vm.WithEvents(tr), vm.WithCancel(ctx))
		if err != nil {
			t.Fatal(err)
		}
		got, err := art.RunOn(m)
		release()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("traced run %d differs from the memoised run:\n%+v\nvs\n%+v", i, got, want)
		}
		if first == 0 {
			first = tr.Len()
		}
		if first == 0 || tr.Len() != i*first {
			t.Fatalf("after traced run %d: %d events, want %d (%d per run)", i, tr.Len(), i*first, first)
		}
	}
	if again := mustBuild(t, eng, heapKernel, core.ModeCash, core.Options{}); again != art {
		t.Fatal("tracing a run changed the cached artifact")
	}
}

// TestCacheEvictionUnderTinyBudget forces every insert over budget and
// checks the LRU actually evicts (while always retaining the newest
// entry, so a hot artifact larger than the whole budget still serves).
func TestCacheEvictionUnderTinyBudget(t *testing.T) {
	eng := NewEngine(EngineConfig{CacheBytes: 1})
	evictions := counter("serve.cache.evictions")
	compiles := counter("serve.build.compiles")
	sources := make([]string, 4)
	for i := range sources {
		sources[i] = fmt.Sprintf("void main() { printi(%d); }", 1000+i)
		mustBuild(t, eng, sources[i], core.ModeCash, core.Options{})
	}
	if got := counter("serve.cache.evictions") - evictions; got < 3 {
		t.Fatalf("evictions delta = %d, want >= 3", got)
	}
	// The newest artifact survives (hit); the oldest was evicted (miss).
	mustBuild(t, eng, sources[3], core.ModeCash, core.Options{})
	mustBuild(t, eng, sources[0], core.ModeCash, core.Options{})
	if got := counter("serve.build.compiles") - compiles; got != 5 {
		t.Fatalf("compiles delta = %d, want 5 (4 cold + 1 evicted rebuild)", got)
	}
}

// TestSingleflightCollapsesConcurrentBuilds starts 32 identical builds
// at once and checks exactly one compile happened, the other 31 were
// served as a hit or coalesced onto the flight, and the logical
// core.builds.* counter still saw all 32 requests.
func TestSingleflightCollapsesConcurrentBuilds(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	const n = 32
	src := `void main() { printi(424242); }`
	compiles := counter("serve.build.compiles")
	hits := counter("serve.cache.hits")
	coalesced := counter("serve.build.coalesced")
	logical := counter("core.builds.cash")

	arts := make([]*core.Artifact, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], errs[i] = eng.BuildContext(context.Background(), src, core.ModeCash, core.Options{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		if arts[i] != arts[0] {
			t.Fatalf("build %d returned a different artifact", i)
		}
	}
	if got := counter("serve.build.compiles") - compiles; got != 1 {
		t.Fatalf("compiles delta = %d, want 1", got)
	}
	servedCheap := (counter("serve.cache.hits") - hits) + (counter("serve.build.coalesced") - coalesced)
	if servedCheap != n-1 {
		t.Fatalf("hits+coalesced delta = %d, want %d", servedCheap, n-1)
	}
	if got := counter("core.builds.cash") - logical; got != n {
		t.Fatalf("logical build count delta = %d, want %d", got, n)
	}
}

// TestBuildErrorsPropagateToWaiters pins the failure side of the
// singleflight: every coalesced waiter gets the leader's compile error,
// and nothing is cached for the key.
func TestBuildErrorsPropagateToWaiters(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	src := `void main() { this is not mini-C `
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = eng.BuildContext(context.Background(), src, core.ModeCash, core.Options{})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("build %d: want compile error, got nil", i)
		}
	}
	// The failure was not cached: a retry compiles (and fails) again.
	compiles := counter("serve.build.compiles")
	if _, err := eng.BuildContext(context.Background(), src, core.ModeCash, core.Options{}); err == nil {
		t.Fatal("retry: want compile error, got nil")
	}
	if got := counter("serve.build.compiles") - compiles; got != 1 {
		t.Fatalf("retry compiles delta = %d, want 1 (error was cached?)", got)
	}
}

// TestPooledMachineEquivalence pins reuse at the Engine layer: a machine
// from Engine.NewMachine that runs on parts another program dirtied and
// released is indistinguishable from one built fresh, for all three
// modes, with each of two programs as the earlier tenant.
func TestPooledMachineEquivalence(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	for _, mode := range []core.Mode{core.ModeGCC, core.ModeBCC, core.ModeCash} {
		artA := mustBuild(t, eng, heapKernel, mode, core.Options{})
		artB := mustBuild(t, eng, sumKernel, mode, core.Options{})
		for _, pair := range [][2]*core.Artifact{{artA, artB}, {artB, artA}} {
			tenant, reader := pair[0], pair[1]
			want, _ := runHeld(t, eng, reader, mode)
			_, dirtied := runHeld(t, eng, tenant, mode)
			for i := 0; i < 3; i++ {
				m, release, err := eng.NewMachine(reader)
				if err != nil {
					t.Fatal(err)
				}
				if !dirtied[m.Memory()] {
					t.Fatalf("[%v] machine %d did not reuse the tenant's parts; the equivalence was tested against nothing", mode, i)
				}
				got, err := m.Run()
				release()
				if err != nil {
					t.Fatalf("[%v] recycled machine %d: %v", mode, i, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("[%v] recycled run %d differs from fresh run:\n%+v\nvs\n%+v", mode, i, want, got)
				}
			}
		}
	}
}

// runHeld runs art on more machines at once than the vm recycler can
// store (its bound is 8), so at least one of them is built fresh, checks
// that every run agrees, then releases them all. It returns the result
// and the memories it released.
func runHeld(t *testing.T, eng *Engine, art *core.Artifact, mode core.Mode) (*vm.Result, map[*mem.Memory]bool) {
	t.Helper()
	const held = 9
	var want *vm.Result
	released := map[*mem.Memory]bool{}
	var releases []func()
	for i := 0; i < held; i++ {
		m, release, err := eng.NewMachine(art)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Run()
		if err != nil {
			t.Fatalf("[%v] held machine %d: %v", mode, i, err)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(want, got) {
			t.Fatalf("[%v] held machine %d differs:\n%+v\nvs\n%+v", mode, i, want, got)
		}
		released[m.Memory()] = true
		releases = append(releases, release)
	}
	for _, release := range releases {
		release()
	}
	return want, released
}

// TestRunContextCancellation checks that canceling mid-simulation
// surfaces ctx.Err() promptly and leaks neither its in-flight count nor
// pool capacity: the engine serves the next request normally.
func TestRunContextCancellation(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	// ~100M-instruction budget: several seconds if cancellation fails,
	// interrupted within a cancel stride if it works.
	art := mustBuild(t, eng, runawayKernel, core.ModeGCC, core.Options{StepLimit: 100_000_000})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := eng.RunContext(ctx, art)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("res = %+v, want nil on cancellation", res)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v; not prompt", elapsed)
	}
	if n := inflight(eng); n != 0 {
		t.Fatalf("in-flight count leaked: %d", n)
	}
	// The canceled run's result must not have been cached: a fresh run
	// completes.
	quick := mustBuild(t, eng, sumKernel, core.ModeCash, core.Options{})
	mustRun(t, eng, quick)
}

// TestBuildContextPreCanceled: a dead context never compiles.
func TestBuildContextPreCanceled(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.BuildContext(ctx, sumKernel, core.ModeCash, core.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCompareContextMatchesPlainCompare: the engine-served comparison
// (CompareStrategiesContext) is the plain core.CompareStrategies one,
// byte for byte.
func TestCompareContextMatchesPlainCompare(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	want, err := core.CompareStrategies("heap", heapKernel, core.CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.CompareStrategiesContext(context.Background(), "heap", heapKernel, core.CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("engine comparison differs:\n%+v\nvs\n%+v", want, got)
	}
}
