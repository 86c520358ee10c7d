package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cash/internal/core"
	"cash/internal/store"
	"cash/internal/vm"
	"cash/internal/workload"
)

// violationKernel trips a bound violation under the cash strategy.
const violationKernel = `
int a[4];
void main() { for (int i = 0; i < 8; i++) a[i] = i; }`

func mustOpen(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	eng, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// storeFiles lists the on-disk store's entry files, sorted.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".ent") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	return files
}

// TestPersistRestartWarm pins the tentpole contract end to end: a second
// engine over the same store directory — a restarted process — serves
// the first engine's compiled artifacts and memoised run outcomes from
// disk, byte-identical to a cold build, without recompiling.
func TestPersistRestartWarm(t *testing.T) {
	dir := t.TempDir()

	eng1 := mustOpen(t, EngineConfig{StoreDir: dir})
	art1 := mustBuild(t, eng1, heapKernel, core.ModeCash, core.Options{})
	res1 := mustRun(t, eng1, art1)
	vart1 := mustBuild(t, eng1, violationKernel, core.ModeCash, core.Options{})
	vres1 := mustRun(t, eng1, vart1)
	if vres1.Violation == nil {
		t.Fatal("expected a violation")
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}
	if len(storeFiles(t, dir)) == 0 {
		t.Fatal("first engine persisted nothing")
	}

	hits, compiles := counter("store.disk.hits"), counter("serve.build.compiles")
	eng2 := mustOpen(t, EngineConfig{StoreDir: dir})
	art2 := mustBuild(t, eng2, heapKernel, core.ModeCash, core.Options{})
	if got := counter("serve.build.compiles") - compiles; got != 0 {
		t.Fatalf("warm build compiled %d times: it was recompiled, not loaded from disk", got)
	}
	res2 := mustRun(t, eng2, art2)
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("warm result differs from the first process's:\n%+v\nvs\n%+v", res1, res2)
	}
	vres2 := mustRun(t, eng2, mustBuild(t, eng2, violationKernel, core.ModeCash, core.Options{}))
	if vres2.Violation == nil || vres2.Violation.Error() != vres1.Violation.Error() {
		t.Fatalf("violation did not survive the restart: %v vs %v", vres2.Violation, vres1.Violation)
	}
	if got := counter("store.disk.hits") - hits; got < 2 {
		t.Fatalf("disk hits delta = %d, want >= 2 (artifact + run)", got)
	}

	// Ground truth: the disk-served outcome equals a direct build and run.
	if resCold := coldRun(t, heapKernel, core.ModeCash); !reflect.DeepEqual(res2, resCold) {
		t.Fatalf("disk-served result differs from a direct run:\n%+v\nvs\n%+v", res2, resCold)
	}
}

// TestPersistBuildErrorNotPersisted pins that a failing build poisons no
// layer: the disk store stays empty, and the next identical request
// compiles again (and can succeed if the input is fixed).
func TestPersistBuildErrorNotPersisted(t *testing.T) {
	dir := t.TempDir()
	eng := mustOpen(t, EngineConfig{StoreDir: dir})
	const bad = `void main( { }`
	if _, err := eng.BuildContext(context.Background(), bad, core.ModeCash, core.Options{}); err == nil {
		t.Fatal("bad kernel built successfully")
	}
	if files := storeFiles(t, dir); len(files) != 0 {
		t.Fatalf("failing build left %d store entries: %v", len(files), files)
	}
	// The failure is not a cached verdict: the same request builds again.
	if _, err := eng.BuildContext(context.Background(), bad, core.ModeCash, core.Options{}); err == nil {
		t.Fatal("bad kernel built successfully on retry")
	}
	mustBuild(t, eng, sumKernel, core.ModeCash, core.Options{})
	if len(storeFiles(t, dir)) == 0 {
		t.Fatal("successful build after a failure persisted nothing")
	}
}

// TestPersistCorruptionIsMissNotError pins crash-safety degradation: a
// truncated or bit-flipped store entry is a cache miss — the engine
// silently recompiles and overwrites — never an error or wrong data.
func TestPersistCorruptionIsMissNotError(t *testing.T) {
	dir := t.TempDir()
	eng1 := mustOpen(t, EngineConfig{StoreDir: dir})
	res1 := mustRun(t, eng1, mustBuild(t, eng1, heapKernel, core.ModeCash, core.Options{}))
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	files := storeFiles(t, dir)
	if len(files) < 2 {
		t.Fatalf("want at least artifact + run entries, got %v", files)
	}
	// Truncate the first entry mid-header and flip a payload byte in the
	// last — both classic torn-write shapes.
	if err := os.Truncate(files[0], 17); err != nil {
		t.Fatal(err)
	}
	last := files[len(files)-1]
	blob, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-10] ^= 0xff
	if err := os.WriteFile(last, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	misses := counter("store.disk.misses")
	eng2 := mustOpen(t, EngineConfig{StoreDir: dir})
	art2 := mustBuild(t, eng2, heapKernel, core.ModeCash, core.Options{})
	res2 := mustRun(t, eng2, art2)
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("result after corruption differs:\n%+v\nvs\n%+v", res1, res2)
	}
	if counter("store.disk.misses") == misses {
		t.Fatal("corrupted entries did not register as disk misses")
	}
}

// TestPersistOldFormatIsMiss pins the upgrade path: an artifact entry
// and a run entry written by an older build — version-2 gob payloads,
// from before the hand-written codec — are disk misses. The engine
// rebuilds and reruns, and overwrites both entries with ones the
// current codec decodes. A run entry filed under the build key, where
// stores written before run keys kept run outcomes, is never read: it
// stays as it was until the store's budget evicts it.
func TestPersistOldFormatIsMiss(t *testing.T) {
	dir := t.TempDir()
	art, err := core.Build(sumKernel, core.ModeCash, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := art.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The version-2 payload layout, as the gob codec wrote it.
	type persistedOptions struct {
		SegRegs         int
		SkipReadChecks  bool
		UseBoundInstr   bool
		WithoutCallGate bool
		ElectricFence   bool
		Passes          []string
		StepLimit       uint64
		StepOnly        bool
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&struct {
		Version int
		Mode    string
		Opts    persistedOptions
		Program *vm.Program
	}{Version: 2, Mode: string(core.ModeCash), Program: art.Program}); err != nil {
		t.Fatal(err)
	}
	var oldRun bytes.Buffer
	if err := gob.NewEncoder(&oldRun).Encode(&struct {
		Version  int
		HasRes   bool
		Result   *vm.Result
		HeapSpan uint32
	}{Version: 2, HasRes: true, Result: res.Result, HeapSpan: res.HeapSpan}); err != nil {
		t.Fatal(err)
	}
	key := core.BuildKey(sumKernel, core.ModeCash, core.Options{})
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a:"+key, old.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{key, art.RunKey()} {
		if err := d.Put("r:"+k, oldRun.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	misses, writes := counter("store.disk.misses"), counter("store.disk.writes")
	compiles := counter("serve.build.compiles")
	eng := mustOpen(t, EngineConfig{StoreDir: dir})
	got := mustBuild(t, eng, sumKernel, core.ModeCash, core.Options{})
	if n := counter("serve.build.compiles") - compiles; n != 1 {
		t.Fatalf("compiles delta = %d, want 1: the old-format entry was served instead of rebuilt", n)
	}
	if gotRes := mustRun(t, eng, got); !reflect.DeepEqual(gotRes.Result, res.Result) {
		t.Fatal("rerun result differs from a direct run")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if n := counter("store.disk.misses") - misses; n < 2 {
		t.Fatalf("disk misses delta = %d, want >= 2 (artifact + run)", n)
	}
	if n := counter("store.disk.writes") - writes; n < 2 {
		t.Fatalf("disk writes delta = %d, want >= 2: old entries not written back", n)
	}

	d, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	payload, ok := d.Get("a:" + key)
	if !ok {
		t.Fatal("artifact entry missing after the rebuild")
	}
	if _, err := core.DecodeArtifact(payload); err != nil {
		t.Fatalf("artifact entry was not overwritten in the current format: %v", err)
	}
	payload, ok = d.Get("r:" + art.RunKey())
	if !ok {
		t.Fatal("run entry missing after the rerun")
	}
	if _, _, err := core.DecodeRunOutcome(payload); err != nil {
		t.Fatalf("run entry was not overwritten in the current format: %v", err)
	}
	if payload, ok = d.Get("r:" + key); !ok || !bytes.Equal(payload, oldRun.Bytes()) {
		t.Fatal("the run entry under the build key was read or rewritten")
	}
}

// TestOpenRejectsNegativeCacheBytes pins that every Engine caches: Open
// refuses a negative CacheBytes, with or without a StoreDir, writes
// nothing to the directory, and NewEngine panics on the same
// configuration.
func TestOpenRejectsNegativeCacheBytes(t *testing.T) {
	if eng, err := Open(EngineConfig{CacheBytes: -1}); err == nil || eng != nil {
		t.Fatalf("Open(CacheBytes -1) = %v, %v; want an error", eng, err)
	}
	dir := t.TempDir()
	cfg := EngineConfig{CacheBytes: -1, StoreDir: dir}
	if eng, err := Open(cfg); err == nil || eng != nil {
		t.Fatalf("Open(StoreDir, CacheBytes -1) = %v, %v; want an error", eng, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("rejected store directory was touched: %v, %v", entries, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine accepted a negative CacheBytes")
		}
	}()
	NewEngine(cfg)
}

// BenchmarkRunRecycledMachine measures machine throughput on one cached
// artifact: every iteration builds a machine from Engine.NewMachine on
// recycled parts and simulates for real, past the run cache.
func BenchmarkRunRecycledMachine(b *testing.B) {
	eng := NewEngine(EngineConfig{})
	art, err := eng.BuildContext(context.Background(), sumKernel, core.ModeCash, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		m, release, err := eng.NewMachine(art)
		if err != nil {
			b.Fatal(err)
		}
		_, err = art.RunOn(m)
		release()
		if err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// TestBuildMissReadsDiskOnce pins the disk reads of a compile: the
// build's lookup misses the disk tier once, and the leader's re-check
// before compiling looks in memory only.
func TestBuildMissReadsDiskOnce(t *testing.T) {
	eng := mustOpen(t, EngineConfig{StoreDir: t.TempDir()})
	defer eng.Close()
	misses, compiles := counter("store.disk.misses"), counter("serve.build.compiles")
	mustBuild(t, eng, sumKernel, core.ModeCash, core.Options{})
	if n := counter("serve.build.compiles") - compiles; n != 1 {
		t.Fatalf("compiles delta = %d, want 1", n)
	}
	if n := counter("store.disk.misses") - misses; n != 1 {
		t.Fatalf("disk misses delta = %d, want 1: one build on an empty store reads the disk tier once", n)
	}
}

// BenchmarkWarmRestart is one warm restart of the serving engine per
// iteration. Set-up populates a store: the 26 suite programs (every
// workload, the range and the stencil kernels) built under every
// strategy, and the 12 small programs (the network handlers, the range
// kernels, smooth256 and wave200) run under every strategy. Each
// iteration then opens a new Engine on the store, requests every build
// and then every run, and closes it; all of them must come from disk.
func BenchmarkWarmRestart(b *testing.B) {
	ctx := context.Background()
	suite := append(workload.All(), workload.RangeKernels()...)
	suite = append(suite, workload.StencilKernels()...)
	small := append(workload.NetworkApps(), workload.RangeKernels()...)
	small = append(small, workload.Smooth(256, 8), workload.Wave1D(200, 12))
	type build struct {
		source string
		mode   core.Mode
	}
	var builds []build
	index := make(map[string]int) // program/strategy -> builds index
	for _, w := range suite {
		for _, name := range core.StrategyNames() {
			index[w.Name+"/"+name] = len(builds)
			builds = append(builds, build{w.Source, core.Mode(name)})
		}
	}
	var runs []int // indices into builds
	for _, w := range small {
		for _, name := range core.StrategyNames() {
			i, ok := index[w.Name+"/"+name]
			if !ok {
				b.Fatalf("%s is not a suite program", w.Name)
			}
			runs = append(runs, i)
		}
	}
	cfg := EngineConfig{StoreDir: b.TempDir(), Parallelism: 1}
	arts := make([]*core.Artifact, len(builds))
	pass := func() {
		eng, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i, bd := range builds {
			if arts[i], err = eng.BuildContext(ctx, bd.source, bd.mode, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		for _, i := range runs {
			if _, err := eng.RunContext(ctx, arts[i]); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
	pass() // cold: compiles, runs and writes every entry
	misses, compiles := counter("store.disk.misses"), counter("serve.build.compiles")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	if n := counter("store.disk.misses") - misses; n != 0 {
		b.Fatalf("warm restarts missed the store %d times", n)
	}
	if n := counter("serve.build.compiles") - compiles; n != 0 {
		b.Fatalf("warm restarts compiled %d times", n)
	}
}
