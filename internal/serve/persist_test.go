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

	hits := counter("store.disk.hits")
	eng2 := mustOpen(t, EngineConfig{StoreDir: dir})
	art2 := mustBuild(t, eng2, heapKernel, core.ModeCash, core.Options{})
	if art2.AST != nil {
		t.Fatal("warm build has an AST: it was recompiled, not loaded from disk")
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

	// Ground truth: the disk-served outcome equals a from-scratch engine
	// with caching disabled.
	cold := mustOpen(t, EngineConfig{CacheBytes: -1})
	resCold := mustRun(t, cold, mustBuild(t, cold, heapKernel, core.ModeCash, core.Options{}))
	if !reflect.DeepEqual(res2, resCold) {
		t.Fatalf("disk-served result differs from cache-disabled engine:\n%+v\nvs\n%+v", res2, resCold)
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
// current codec decodes.
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
	key := buildKey(sumKernel, core.ModeCash, core.Options{})
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a:"+key, old.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("r:"+key, oldRun.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	misses, writes := counter("store.disk.misses"), counter("store.disk.writes")
	eng := mustOpen(t, EngineConfig{StoreDir: dir})
	got := mustBuild(t, eng, sumKernel, core.ModeCash, core.Options{})
	if got.AST == nil {
		t.Fatal("old-format entry was served instead of rebuilt")
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
	payload, ok = d.Get("r:" + key)
	if !ok {
		t.Fatal("run entry missing after the rerun")
	}
	if _, _, err := core.DecodeRunOutcome(payload); err != nil {
		t.Fatalf("run entry was not overwritten in the current format: %v", err)
	}
}

// TestMemStoreReplacementAccounting is the regression test for the
// size-accounting leak: re-inserting a key replaces the old entry's
// bytes instead of adding to them, replacement never counts as an
// eviction, and budget eviction still accounts exactly.
func TestMemStoreReplacementAccounting(t *testing.T) {
	small, err := core.Build(sumKernel, core.ModeGCC, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := core.Build(heapKernel, core.ModeGCC, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	evictions := counter("serve.cache.evictions")
	s := newMemStore(1<<30, nil)
	s.PutArtifact("k", big)
	s.PutArtifact("k", small)
	if got, want := s.Bytes(), artifactSize(small); got != want {
		t.Fatalf("bytes after replacement = %d, want %d (old size leaked)", got, want)
	}
	for i := 0; i < 10; i++ {
		s.PutArtifact("k", big)
		s.PutArtifact("k", small)
	}
	if got, want := s.Bytes(), artifactSize(small); got != want {
		t.Fatalf("bytes after repeated replacement = %d, want %d", got, want)
	}
	if got := counter("serve.cache.evictions") - evictions; got != 0 {
		t.Fatalf("replacements counted as %d evictions, want 0", got)
	}

	// Budget eviction: a second entry pushes the first out, and the
	// account tracks exactly the survivor.
	tiny := newMemStore(artifactSize(big)+artifactSize(small)/2, nil)
	tiny.PutArtifact("k1", small)
	tiny.PutArtifact("k2", big)
	if got := counter("serve.cache.evictions") - evictions; got != 1 {
		t.Fatalf("evictions delta = %d, want 1", got)
	}
	if got, want := tiny.Bytes(), artifactSize(big); got != want {
		t.Fatalf("bytes after eviction = %d, want %d", got, want)
	}
	if _, ok := tiny.GetArtifact("k1"); ok {
		t.Fatal("evicted entry still served")
	}
	if _, ok := tiny.GetArtifact("k2"); !ok {
		t.Fatal("surviving entry missing")
	}
}

// BenchmarkRunRecycledMachine measures RunContext throughput on one
// cached artifact with run memoisation off, so every iteration builds a
// machine on recycled parts and simulates for real.
func BenchmarkRunRecycledMachine(b *testing.B) {
	eng, err := Open(EngineConfig{CacheBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	art, err := eng.BuildContext(context.Background(), sumKernel, core.ModeCash, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.RunContext(context.Background(), art); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunContext(context.Background(), art); err != nil {
			b.Fatal(err)
		}
	}
}
