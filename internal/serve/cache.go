package serve

import (
	"container/list"
	"sync"

	"cash/internal/core"
	"cash/internal/obs"
	"cash/internal/store"
	"cash/internal/vm"
)

// Disk-tier metrics. Registered lazily — the first engine that opens a
// disk store creates them — so engines without a StoreDir publish
// nothing new and every pre-existing metrics golden stays byte-
// identical.
var (
	diskMetricsOnce sync.Once
	mDiskHits       *obs.Counter
	mDiskMisses     *obs.Counter
	mDiskWrites     *obs.Counter
	mDiskEvictions  *obs.Counter
)

// openDisk opens (or creates) the content-addressed file store rooted
// at dirPath as the cache's disk tier.
func openDisk(dirPath string, budget int64) (*store.Dir, error) {
	diskMetricsOnce.Do(func() {
		mDiskHits = obs.Default().Counter("store.disk.hits")
		mDiskMisses = obs.Default().Counter("store.disk.misses")
		mDiskWrites = obs.Default().Counter("store.disk.writes")
		mDiskEvictions = obs.Default().Counter("store.disk.evictions")
	})
	return store.Open(dirPath, store.Options{
		Budget:  budget,
		OnEvict: func(string) { mDiskEvictions.Inc() },
	})
}

// entry is one cached value held in memory: an artifact ("a:"-prefixed
// key) or a run result ("r:"-prefixed key). Both kinds share the single
// LRU list and byte budget.
type entry struct {
	key  string
	size int64

	art *core.Artifact

	res    *core.RunResult
	runErr error
}

// flight is one in-progress build or run that concurrent identical
// requests coalesce onto. A build flight ends with the leader's artifact
// or compile error; a run flight ends with the leader's outcome, which
// waiters share only when it was memoised (a canceled or unprovisioned
// run is not an outcome of the program).
type flight struct {
	done chan struct{}
	art  *core.Artifact

	res      *core.RunResult
	memoised bool

	err error
}

// cache is the engine's content-addressed cache, in two tiers. Memory
// holds artifacts and run results in one byte-budgeted LRU; disk, when
// the engine has a StoreDir, holds their encoded bytes across processes
// (internal/store, under the same keys). Artifacts are filed under
// "a:" and their build key (core.BuildKey), run outcomes under "r:" and
// their run key (core.Artifact.RunKey). Reads try memory, then disk,
// promoting disk hits into memory; writes go to memory and through to
// disk.
//
// The cache also holds the two pieces of engine policy that sit on the
// same keys: the singleflight table that coalesces concurrent identical
// builds and runs, and the program table that makes runs of cached
// programs memoisable. Everything in memory is under one mutex; disk
// I/O, the codecs and run-key digests run outside it.
//
// A cache is a cache, not a database: unpersistable values
// (non-deterministic outcomes) and disk I/O failures degrade to "not
// cached", and callers always fall back to rebuilding or rerunning.
type cache struct {
	disk *store.Dir // nil for a memory-only engine

	mu      sync.Mutex
	budget  int64
	bytes   int64
	lru     *list.List // of *entry; front = most recently used
	entries map[string]*list.Element
	// artKeys maps the program of each artifact the LRU holds back to
	// its build key, enabling the run-result cache for that artifact and
	// every view of it. A program leaves it when its artifact leaves
	// memory: holders of the old pointer run for real, and the next
	// lookup registers a cached program again.
	artKeys map[*vm.Program]string
	// flights holds the in-progress builds and runs, under the same
	// "a:"/"r:"-prefixed keys as their cache entries.
	flights map[string]*flight
}

// newCache builds a cache with the given memory budget over an
// optional disk tier (nil for memory-only).
func newCache(budget int64, disk *store.Dir) *cache {
	return &cache{
		disk:    disk,
		budget:  budget,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
		artKeys: make(map[*vm.Program]string),
		flights: make(map[string]*flight),
	}
}

// lookupLocked returns the memory entry under fullKey, marking it most
// recently used.
func (c *cache) lookupLocked(fullKey string) (*entry, bool) {
	el, ok := c.entries[fullKey]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry), true
}

// insertLocked adds an entry and evicts from the LRU tail until the
// byte budget holds. The newest entry always stays, even when it alone
// exceeds the budget — an over-budget singleton is more useful than an
// empty cache that recompiles forever.
//
// Replacement is exact: an existing entry under fullKey is removed
// first, its bytes come off the account, so re-inserting a key can
// never leak budget. Only budget evictions count into
// serve.cache.evictions; a replacement is an overwrite, not an
// eviction. Either way an artifact leaving memory leaves artKeys too.
func (c *cache) insertLocked(fullKey string, ent *entry) {
	if el, ok := c.entries[fullKey]; ok {
		c.removeLocked(el)
	}
	ent.key = fullKey
	c.entries[fullKey] = c.lru.PushFront(ent)
	c.bytes += ent.size
	for c.bytes > c.budget && c.lru.Len() > 1 {
		c.removeLocked(c.lru.Back())
		mCacheEvictions.Inc()
	}
	gCacheBytes.Set(c.bytes)
}

func (c *cache) removeLocked(el *list.Element) {
	ent := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, ent.key)
	c.bytes -= ent.size
	if ent.art != nil {
		delete(c.artKeys, ent.art.Program)
	}
}

// putArtifactLocked holds art in memory as the artifact for key,
// registering its program for run memoisation.
func (c *cache) putArtifactLocked(key string, art *core.Artifact) {
	c.insertLocked("a:"+key, &entry{art: art, size: artifactSize(art)})
	c.artKeys[art.Program] = key
}

// getArtifact returns the cached artifact for a build key from memory
// or, failing that, from disk. A disk hit is promoted into memory and
// registered under the same lock, so it can never stay registered
// after an eviction.
func (c *cache) getArtifact(key string) (*core.Artifact, bool) {
	if art, ok := c.getMemArtifact(key); ok {
		return art, true
	}
	art, ok := c.readArtifact(key)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	c.putArtifactLocked(key, art)
	c.mu.Unlock()
	return art, true
}

// getMemArtifact looks the artifact for key up in the memory tier only.
func (c *cache) getMemArtifact(key string) (*core.Artifact, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.lookupLocked("a:" + key); ok {
		return ent.art, true
	}
	return nil, false
}

// readArtifact reads and decodes the disk tier's artifact for key.
// Undecodable bytes (an older format, an unregistered strategy) are a
// miss; the entry is removed so that it stops counting as recently
// used and the rebuild's write replaces it.
func (c *cache) readArtifact(key string) (*core.Artifact, bool) {
	if c.disk == nil {
		return nil, false
	}
	payload, ok := c.disk.Get("a:" + key)
	if !ok {
		mDiskMisses.Inc()
		return nil, false
	}
	art, err := core.DecodeArtifact(payload)
	if err != nil {
		c.disk.Remove("a:" + key)
		mDiskMisses.Inc()
		return nil, false
	}
	mDiskHits.Inc()
	return art, true
}

// writeArtifact writes art through to the disk tier, if it is
// persistable.
func (c *cache) writeArtifact(key string, art *core.Artifact) {
	if c.disk == nil {
		return
	}
	payload, ok, err := core.EncodeArtifact(art)
	if err != nil || !ok {
		return
	}
	if c.disk.Put("a:"+key, payload) == nil {
		mDiskWrites.Inc()
	}
}

// startFlight joins or starts the singleflight for fullKey. The second
// return is true for the leader — the caller that must compile (or
// run) and then end the flight; false means wait on the returned
// flight's done channel.
func (c *cache) startFlight(fullKey string) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[fullKey]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	c.flights[fullKey] = f
	return f, true
}

// finishFlight records the leader's build outcome, stores a successful
// artifact in both tiers (a failed build writes nothing), and releases
// every waiter. The artifact is stored before the flight ends, so a
// leader that started its flight after this one ended finds the
// artifact when it looks again (see Engine.BuildContext) instead of
// compiling the key a second time.
func (c *cache) finishFlight(key string, f *flight, art *core.Artifact, err error) {
	if err == nil {
		c.mu.Lock()
		c.putArtifactLocked(key, art)
		c.mu.Unlock()
		c.writeArtifact(key, art)
	}
	f.art, f.err = art, err
	c.endFlight("a:"+key, f)
}

// finishRun is finishFlight for a run: a memoised outcome is stored in
// both tiers before the flight ends, so a later leader finds it when it
// looks again (see Engine.RunContext), and the flight keeps a
// private copy for its waiters.
func (c *cache) finishRun(key string, f *flight, res *core.RunResult, runErr error, memoise bool) {
	if memoise {
		c.putRun(key, res, runErr)
		f.res, f.err, f.memoised = cloneRunResult(res), runErr, true
	}
	c.endFlight("r:"+key, f)
}

// endFlight removes the flight and releases its waiters with the
// outcome the leader recorded in it.
func (c *cache) endFlight(fullKey string, f *flight) {
	c.mu.Lock()
	delete(c.flights, fullKey)
	c.mu.Unlock()
	close(f.done)
}

// runKey returns the run-cache key for an artifact and whether its runs
// are memoisable. Only runs of a program the cache holds are — the
// cached artifact's and those of its views; other artifacts run for real
// every time. The key is the artifact's run key (core.Artifact.RunKey),
// a digest of the program and the run options, so every cached artifact
// that compiles to the same program shares its runs.
func (c *cache) runKey(art *core.Artifact) (string, bool) {
	c.mu.Lock()
	_, ok := c.artKeys[art.Program]
	c.mu.Unlock()
	if !ok {
		return "", false
	}
	return art.RunKey(), true
}

// getRun returns the memoised run outcome for a run key, from memory
// or, failing that, from disk (promoting the hit). The result is a
// private copy per call, so callers may mutate what they receive.
func (c *cache) getRun(key string) (*core.RunResult, error, bool) {
	if res, runErr, ok := c.getMemRun(key); ok {
		return res, runErr, true
	}
	res, runErr, ok := c.readRun(key)
	if !ok {
		return nil, nil, false
	}
	// Memory clones on put, so the decoded copy stays private to this
	// caller.
	c.putMemRun(key, res, runErr)
	return res, runErr, true
}

// getMemRun is getRun's memory tier alone.
func (c *cache) getMemRun(key string) (*core.RunResult, error, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.lookupLocked("r:" + key)
	if !ok {
		return nil, nil, false
	}
	return cloneRunResult(ent.res), ent.runErr, true
}

// readRun reads and decodes the disk tier's run outcome for key. As in
// readArtifact, undecodable bytes are a miss and are removed: writeRun
// skips keys still present, so the entry must go for the rerun's
// outcome to be written.
func (c *cache) readRun(key string) (*core.RunResult, error, bool) {
	if c.disk == nil {
		return nil, nil, false
	}
	payload, ok := c.disk.Get("r:" + key)
	if !ok {
		mDiskMisses.Inc()
		return nil, nil, false
	}
	res, runErr, err := core.DecodeRunOutcome(payload)
	if err != nil {
		c.disk.Remove("r:" + key)
		mDiskMisses.Inc()
		return nil, nil, false
	}
	mDiskHits.Inc()
	return res, runErr, true
}

// putRun memoises a run outcome (result, error, or both) in both tiers.
// First writer wins in each: a key already present keeps its value.
func (c *cache) putRun(key string, res *core.RunResult, runErr error) {
	c.putMemRun(key, res, runErr)
	c.writeRun(key, res, runErr)
}

func (c *cache) putMemRun(key string, res *core.RunResult, runErr error) {
	ent := &entry{res: cloneRunResult(res), runErr: runErr, size: runResultSize(res)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries["r:"+key]; !ok {
		c.insertLocked("r:"+key, ent)
	}
}

// writeRun writes a run outcome through to the disk tier, if it is
// persistable and not already there.
func (c *cache) writeRun(key string, res *core.RunResult, runErr error) {
	if c.disk == nil || c.disk.Has("r:"+key) {
		return // deterministic outcome, identical bytes: skip the rewrite
	}
	payload, ok := core.EncodeRunOutcome(res, runErr)
	if !ok {
		return
	}
	if c.disk.Put("r:"+key, payload) == nil {
		mDiskWrites.Inc()
	}
}

// close releases the disk tier, when there is one.
func (c *cache) close() error {
	if c.disk == nil {
		return nil
	}
	return c.disk.Close()
}

// artifactSize estimates an artifact's retained bytes for the cache
// budget: the predecoded program dominates, at roughly one exec closure
// plus cost/note bytes per instruction, plus the data image and a fixed
// overhead.
func artifactSize(art *core.Artifact) int64 {
	p := art.Program
	return int64(len(p.Instrs))*96 + int64(len(p.Data)) + 4096
}

// runResultSize estimates a memoised run result's retained bytes.
func runResultSize(res *core.RunResult) int64 {
	if res == nil || res.Result == nil {
		return 256
	}
	return int64(len(res.Output))*4 + 512
}

// cloneRunResult deep-copies a run result so cached state and caller
// state can never alias. The *vm.Fault violation is shared: faults are
// immutable once returned.
func cloneRunResult(res *core.RunResult) *core.RunResult {
	if res == nil {
		return nil
	}
	out := *res
	if res.Result != nil {
		r := *res.Result
		r.Output = append([]int32(nil), res.Result.Output...)
		if res.Result.SB != nil {
			sb := *res.Result.SB
			r.SB = &sb
		}
		out.Result = &r
	}
	return &out
}
