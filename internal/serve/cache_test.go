package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cash/internal/core"
	"cash/internal/vm"
)

// checkCacheBookkeeping asserts the cache's memory accounting: the LRU
// and its index agree, bytes is the sum of the held entries' sizes, and
// artKeys registers exactly the programs of the artifacts the LRU
// holds, each under its own key.
func checkCacheBookkeeping(t *testing.T, c *cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	held := make(map[*vm.Program]string)
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*entry)
		sum += ent.size
		if c.entries[ent.key] != el {
			t.Errorf("LRU entry %s is not indexed", ent.key)
		}
		if ent.art != nil {
			held[ent.art.Program] = strings.TrimPrefix(ent.key, "a:")
		}
	}
	if len(c.entries) != c.lru.Len() {
		t.Errorf("index holds %d entries, LRU %d", len(c.entries), c.lru.Len())
	}
	if sum != c.bytes {
		t.Errorf("bytes = %d, held entries sum to %d", c.bytes, sum)
	}
	for prog, key := range c.artKeys {
		if k, ok := held[prog]; !ok || k != key {
			t.Errorf("artKeys registers a program the LRU does not hold under %s", key)
		}
	}
	if len(c.artKeys) != len(held) {
		t.Errorf("artKeys has %d entries, LRU holds %d programs", len(c.artKeys), len(held))
	}
}

// cacheBytes returns the cache's accounted memory size.
func cacheBytes(c *cache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// putArtifact holds art in memory under key, as a finished build does.
func putArtifact(c *cache, key string, art *core.Artifact) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putArtifactLocked(key, art)
}

// TestMemStoreReplacementAccounting is the regression test for the
// size-accounting leak in the cache's memory tier: re-inserting a key
// replaces the old entry's bytes instead of adding to them, replacement
// never counts as an eviction, and budget eviction still accounts
// exactly.
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
	c := newCache(1<<30, nil)
	putArtifact(c, "k", big)
	putArtifact(c, "k", small)
	if got, want := cacheBytes(c), artifactSize(small); got != want {
		t.Fatalf("bytes after replacement = %d, want %d (old size leaked)", got, want)
	}
	for i := 0; i < 10; i++ {
		putArtifact(c, "k", big)
		putArtifact(c, "k", small)
	}
	if got, want := cacheBytes(c), artifactSize(small); got != want {
		t.Fatalf("bytes after repeated replacement = %d, want %d", got, want)
	}
	if got := counter("serve.cache.evictions") - evictions; got != 0 {
		t.Fatalf("replacements counted as %d evictions, want 0", got)
	}
	checkCacheBookkeeping(t, c)

	// Budget eviction: a second entry pushes the first out, and the
	// account tracks exactly the survivor.
	tiny := newCache(artifactSize(big)+artifactSize(small)/2, nil)
	putArtifact(tiny, "k1", small)
	putArtifact(tiny, "k2", big)
	if got := counter("serve.cache.evictions") - evictions; got != 1 {
		t.Fatalf("evictions delta = %d, want 1", got)
	}
	if got, want := cacheBytes(tiny), artifactSize(big); got != want {
		t.Fatalf("bytes after eviction = %d, want %d", got, want)
	}
	if _, ok := tiny.getArtifact("k1"); ok {
		t.Fatal("evicted entry still served")
	}
	if _, ok := tiny.getArtifact("k2"); !ok {
		t.Fatal("surviving entry missing")
	}
	checkCacheBookkeeping(t, tiny)
}

// TestCacheBookkeepingUnderChurn builds and runs, from many goroutines
// at once, more distinct programs than the memory budget holds, so
// inserts evict each other's entries throughout. It does so over a
// memory-only engine, and over a store a first engine populated, where
// every memory miss promotes from disk and promotions race evictions.
// Afterwards no evicted artifact may stay registered for run
// memoisation, and the byte account must match what memory holds.
func TestCacheBookkeepingUnderChurn(t *testing.T) {
	const keys, workers, rounds = 12, 8, 3
	sources := make([]string, keys)
	for i := range sources {
		sources[i] = fmt.Sprintf(`
int a[%d];
void main() {
	for (int i = 0; i < %d; i++) a[i] = i;
	printi(a[%d]);
}`, 8+i, 8+i, 7+i)
	}
	one, err := core.Build(sources[0], core.ModeCash, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Room for about three artifacts and their runs.
	budget := 3 * (artifactSize(one) + runResultSize(nil))

	churn := func(t *testing.T, eng *Engine) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ctx := context.Background()
				for r := 0; r < rounds; r++ {
					for k := 0; k < keys; k++ {
						src := sources[(k*(w+1)+r)%keys]
						art, err := eng.BuildContext(ctx, src, core.ModeCash, core.Options{})
						if err == nil {
							_, err = eng.RunContext(ctx, art)
						}
						if err != nil {
							errs[w] = err
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("worker %d: %v", w, err)
			}
		}
		checkCacheBookkeeping(t, eng.cache)
		if got := cacheBytes(eng.cache); got > budget {
			t.Fatalf("bytes %d over budget %d", got, budget)
		}
	}

	t.Run("memory", func(t *testing.T) {
		evictions := counter("serve.cache.evictions")
		eng := mustOpen(t, EngineConfig{CacheBytes: budget, MaxInFlight: workers})
		defer eng.Close()
		churn(t, eng)
		if counter("serve.cache.evictions") == evictions {
			t.Fatal("churn evicted nothing: the budget holds every key")
		}
	})

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		warm := mustOpen(t, EngineConfig{StoreDir: dir})
		for _, src := range sources {
			mustRun(t, warm, mustBuild(t, warm, src, core.ModeCash, core.Options{}))
		}
		if err := warm.Close(); err != nil {
			t.Fatal(err)
		}
		hits, compiles := counter("store.disk.hits"), counter("serve.build.compiles")
		eng := mustOpen(t, EngineConfig{CacheBytes: budget, MaxInFlight: workers, StoreDir: dir})
		defer eng.Close()
		churn(t, eng)
		if counter("store.disk.hits") == hits {
			t.Fatal("churn promoted nothing from disk")
		}
		if got := counter("serve.build.compiles") - compiles; got != 0 {
			t.Fatalf("%d compiles over a populated store, want 0", got)
		}
	})
}
