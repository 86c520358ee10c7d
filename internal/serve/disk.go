package serve

import (
	"sync"

	"cash/internal/core"
	"cash/internal/obs"
	"cash/internal/store"
)

// Disk-layer metrics. Registered lazily — the first engine that opens a
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

func diskMetrics() {
	diskMetricsOnce.Do(func() {
		mDiskHits = obs.Default().Counter("store.disk.hits")
		mDiskMisses = obs.Default().Counter("store.disk.misses")
		mDiskWrites = obs.Default().Counter("store.disk.writes")
		mDiskEvictions = obs.Default().Counter("store.disk.evictions")
	})
}

// diskStore adapts the content-addressed file store (internal/store)
// to the Store interface: artifacts and run outcomes are serialised
// with the core codecs, keyed by the same "a:"/"r:"-prefixed build
// keys as the memory layer. Unpersistable values (trace-bearing
// artifacts, non-deterministic outcomes) and I/O failures degrade to
// "not cached" — a disk store never fails a request.
type diskStore struct {
	dir *store.Dir
}

// newDiskStore opens (or creates) the store rooted at dirPath.
func newDiskStore(dirPath string, budget int64) (*diskStore, error) {
	diskMetrics()
	dir, err := store.Open(dirPath, store.Options{
		Budget:  budget,
		OnEvict: func(string) { mDiskEvictions.Inc() },
	})
	if err != nil {
		return nil, err
	}
	return &diskStore{dir: dir}, nil
}

func (s *diskStore) GetArtifact(key string) (*core.Artifact, bool) {
	payload, ok := s.dir.Get("a:" + key)
	if !ok {
		mDiskMisses.Inc()
		return nil, false
	}
	art, err := core.DecodeArtifact(payload)
	if err != nil {
		// Undecodable bytes (an older format, an unregistered strategy)
		// are a miss. The entry is removed so that it stops counting as
		// recently used and the rebuild's Put rewrites it.
		s.dir.Remove("a:" + key)
		mDiskMisses.Inc()
		return nil, false
	}
	mDiskHits.Inc()
	return art, true
}

func (s *diskStore) PutArtifact(key string, art *core.Artifact) {
	payload, ok, err := core.EncodeArtifact(art)
	if err != nil || !ok {
		return
	}
	if s.dir.Put("a:"+key, payload) == nil {
		mDiskWrites.Inc()
	}
}

func (s *diskStore) GetRun(key string) (*core.RunResult, error, bool) {
	payload, ok := s.dir.Get("r:" + key)
	if !ok {
		mDiskMisses.Inc()
		return nil, nil, false
	}
	res, runErr, err := core.DecodeRunOutcome(payload)
	if err != nil {
		// As in GetArtifact; PutRun skips keys still present, so the
		// entry must go for the rerun's outcome to be written.
		s.dir.Remove("r:" + key)
		mDiskMisses.Inc()
		return nil, nil, false
	}
	mDiskHits.Inc()
	return res, runErr, true
}

func (s *diskStore) PutRun(key string, res *core.RunResult, runErr error) {
	if s.dir.Has("r:" + key) {
		return // deterministic outcome, identical bytes: skip the rewrite
	}
	payload, ok := core.EncodeRunOutcome(res, runErr)
	if !ok {
		return
	}
	if s.dir.Put("r:"+key, payload) == nil {
		mDiskWrites.Inc()
	}
}

func (s *diskStore) Bytes() int64 { return s.dir.Bytes() }

func (s *diskStore) Close() error { return s.dir.Close() }
