// Package serve is the serving runtime of the reproduction: an Engine
// that owns every piece of cross-request state the per-call API
// (core.Build, Artifact.Run) rebuilds from scratch — a content-addressed
// artifact cache with singleflight build deduplication, a run cache for
// deterministic executions, and admission control bounding concurrent
// requests. Machines come from the vm package's parts recycler, which
// every caller shares. The paper amortizes Cash's fixed costs (§4.1
// per-program and per-array setup) across many references; the Engine
// amortizes the host-side analogues — compilation and arena allocation
// — across many requests.
//
// Everything the Engine does is observable through the shared
// internal/obs registry (serve.cache.*, serve.build.*,
// serve.admission.*) and none of it changes any simulated number: a
// cache-hit artifact is the same artifact, a recycled machine is reset
// to exactly the fresh-build state (pinned by equivalence tests), and
// results served from the run cache are deep copies of a real run's
// result.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"cash/internal/core"
	"cash/internal/obs"
	"cash/internal/par"
	"cash/internal/store"
	"cash/internal/vm"
)

// Engine-level metrics in the shared observability registry.
var (
	mCacheHits      = obs.Default().Counter("serve.cache.hits")
	mCacheMisses    = obs.Default().Counter("serve.cache.misses")
	mCacheEvictions = obs.Default().Counter("serve.cache.evictions")
	mCacheRunHits   = obs.Default().Counter("serve.cache.run_hits")
	gCacheBytes     = obs.Default().Gauge("serve.cache.bytes")

	mBuildCompiles  = obs.Default().Counter("serve.build.compiles")
	mBuildCoalesced = obs.Default().Counter("serve.build.coalesced")

	mAdmWaits    = obs.Default().Counter("serve.admission.waits")
	mAdmCanceled = obs.Default().Counter("serve.admission.canceled")
)

// ErrEngineClosed is returned by every Engine method once Close has
// been called: the engine has a lifecycle end a server can hook
// shutdown into, and work submitted after that end is rejected with
// this typed error rather than queued forever.
var ErrEngineClosed = errors.New("serve: engine closed")

// DefaultCacheBytes is the artifact/run cache budget when
// EngineConfig.CacheBytes is zero.
const DefaultCacheBytes = 64 << 20

// DefaultStoreBytes is the on-disk store budget when
// EngineConfig.StoreBytes is zero and a StoreDir is configured.
const DefaultStoreBytes = 1 << 30

// EngineConfig tunes an Engine. The zero value is a fully enabled
// engine with default sizing and GOMAXPROCS parallelism, so
// NewEngine(EngineConfig{}) behaves like the pre-Engine API, only
// faster.
type EngineConfig struct {
	// CacheBytes bounds the artifact + run-result cache. 0 means
	// DefaultCacheBytes; Open rejects a negative budget.
	CacheBytes int64
	// MaxInFlight bounds concurrently admitted requests. 0 derives the
	// bound from Parallelism.
	MaxInFlight int
	// Parallelism is the worker budget for this Engine's table fan-outs.
	// 0 means GOMAXPROCS.
	Parallelism int
	// StoreDir, when non-empty, roots a content-addressed on-disk store
	// under the in-memory cache: compiled artifacts and deterministic
	// run outcomes are written through to disk and survive the process,
	// so a restarted engine warm-starts from its predecessor's work.
	// Open reports an unusable directory as an error.
	StoreDir string
	// StoreBytes bounds the on-disk store. 0 means DefaultStoreBytes;
	// negative means unlimited.
	StoreBytes int64
}

// Engine owns all cross-request serving state. Engines are safe for
// concurrent use; create one per logical service.
type Engine struct {
	cfg   EngineConfig
	cache *cache
	adm   admission
}

// NewEngine returns an Engine for the given configuration and panics
// where Open would return an error. Open a configuration with a
// StoreDir instead, to handle an unusable directory.
func NewEngine(cfg EngineConfig) *Engine {
	e, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Open returns an Engine for the given configuration. It fails on a
// negative CacheBytes, and when the StoreDir cannot be opened.
func Open(cfg EngineConfig) (*Engine, error) {
	if cfg.CacheBytes < 0 {
		return nil, fmt.Errorf("serve: negative CacheBytes %d", cfg.CacheBytes)
	}
	budget := cfg.CacheBytes
	if budget == 0 {
		budget = DefaultCacheBytes
	}
	var disk *store.Dir
	if cfg.StoreDir != "" {
		storeBudget := cfg.StoreBytes
		if storeBudget == 0 {
			storeBudget = DefaultStoreBytes
		}
		if storeBudget < 0 {
			storeBudget = 0 // unlimited
		}
		var err error
		if disk, err = openDisk(cfg.StoreDir, storeBudget); err != nil {
			return nil, err
		}
	}
	return &Engine{cfg: cfg, cache: newCache(budget, disk)}, nil
}

// Close shuts the Engine down: new work — builds, runs, comparisons —
// is rejected with ErrEngineClosed, queued admission waiters fail with
// the same error immediately, and Close blocks until every admitted
// request has finished and released its slot (the drain). Close is
// idempotent and safe to call concurrently; every call returns only
// once the engine is drained. The caches are left intact so
// in-flight requests finish normally; they are simply unreachable once
// the last reference to the Engine drops.
func (e *Engine) Close() error {
	e.adm.closeAndDrain()
	return e.cache.close()
}

// closed reports whether Close has begun.
func (e *Engine) closed() bool {
	e.adm.mu.Lock()
	defer e.adm.mu.Unlock()
	return e.adm.closed
}

// Parallelism resolves this Engine's worker budget.
func (e *Engine) Parallelism() int {
	if e.cfg.Parallelism > 0 {
		return e.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// limit resolves the admission bound.
func (e *Engine) limit() int {
	if e.cfg.MaxInFlight > 0 {
		return e.cfg.MaxInFlight
	}
	if p := e.Parallelism(); p > 1 {
		return p
	}
	return 1
}

// workers is the fan-out budget for Do/DoCollect: capped at the
// admission limit so the Engine's own fan-outs never queue against
// themselves — internal waits would make the serve.admission.waits
// counter scheduling-dependent.
func (e *Engine) workers() int {
	p := e.Parallelism()
	if l := e.limit(); l < p {
		p = l
	}
	return p
}

// Do runs f(0) … f(n-1) with this Engine's worker budget (see par.DoN
// for the error contract).
func (e *Engine) Do(n int, f func(i int) error) error {
	return par.DoN(e.workers(), n, f)
}

// DoCollect runs every index to completion and returns the per-index
// error slice (see par.DoCollectN).
func (e *Engine) DoCollect(n int, f func(i int) error) []error {
	return par.DoCollectN(e.workers(), n, f)
}

// BuildContext returns the artifact for (source, mode, opts), serving
// its program from the content-addressed cache when possible. The cache
// holds one artifact per build key (core.BuildKey), compiled from the
// build part of the options: a request with no run options gets that
// artifact itself, any other a view of it with the request's run
// options (core.Artifact.WithRun), so requests that differ only in how
// they run share one compile. Concurrent misses for the same key
// compile once (singleflight); waiters block on the flight or ctx,
// whichever finishes first.
//
// Logical-build accounting: cache hits and coalesced waiters still
// count into core.builds.* (via core.NoteCachedBuild), so those
// counters track build requests independent of cache state; the
// physical compile count is serve.build.compiles.
func (e *Engine) BuildContext(ctx context.Context, source string, mode core.Mode, opts core.Options) (*core.Artifact, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.closed() {
		return nil, ErrEngineClosed
	}
	opts, err := core.NormalizeOptions(mode, opts)
	if err != nil {
		return nil, err
	}
	art, err := e.build(ctx, core.BuildKey(source, mode, opts), source, mode, opts)
	if err != nil {
		return nil, err
	}
	return art.WithRun(opts), nil
}

// build returns the cached artifact for key, compiling it on a miss.
func (e *Engine) build(ctx context.Context, key, source string, mode core.Mode, opts core.Options) (*core.Artifact, error) {
	if art, ok := e.cache.getArtifact(key); ok {
		mCacheHits.Inc()
		core.NoteCachedBuild(mode)
		return art, nil
	}
	f, leader := e.cache.startFlight("a:" + key)
	if !leader {
		mBuildCoalesced.Inc()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err != nil {
			return nil, f.err
		}
		core.NoteCachedBuild(mode)
		return f.art, nil
	}
	// A flight for the key can end between the lookup above and
	// startFlight; its artifact is stored in memory before it ends, so
	// look there once more before compiling. The disk tier was read
	// above and holds nothing a finished flight did not also put in
	// memory.
	if art, ok := e.cache.getMemArtifact(key); ok {
		f.art = art
		e.cache.endFlight("a:"+key, f)
		mCacheHits.Inc()
		core.NoteCachedBuild(mode)
		return art, nil
	}
	mCacheMisses.Inc()
	mBuildCompiles.Inc()
	art, err := core.Build(source, mode, opts)
	if err == nil {
		art = art.WithRun(core.Options{})
	}
	e.cache.finishFlight(key, f, art, err)
	return art, err
}

// NewMachine prepares a machine for the artifact; its parts come from
// the vm recycler when a released set fits. The extra options apply to
// this machine alone (vm.WithEvents traces it). The returned release
// func is the machine's Release: idempotent, and not to be called
// before the machine's last use.
func (e *Engine) NewMachine(art *core.Artifact, extra ...vm.Option) (*vm.Machine, func(), error) {
	m, err := art.NewMachine(extra...)
	if err != nil {
		return nil, nil, err
	}
	return m, m.Release, nil
}

// RunContext executes the artifact once, honoring ctx between simulated
// basic blocks (a canceled ctx surfaces as ctx.Err, never as a *Fault).
// Runs of artifacts whose program the cache holds — those BuildContext
// returned, views included — are memoised under their run key, a
// digest of the program and the run options (core.Artifact.RunKey): a
// run of any such artifact that compiles to a program already run with
// the same options returns a deep copy of the recorded result —
// including deterministic error outcomes such as step-limit faults —
// without simulating, and concurrent runs of one run key share one
// simulation. Artifacts the cache does not hold (built elsewhere, or
// evicted) always run for real. A request slot is held for the
// duration (admission control).
func (e *Engine) RunContext(ctx context.Context, art *core.Artifact) (*core.RunResult, error) {
	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	return e.runNoAdmission(ctx, art)
}

// runNoAdmission is RunContext minus the admission slot, for internal
// callers that already hold one.
func (e *Engine) runNoAdmission(ctx context.Context, art *core.Artifact) (*core.RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key, cacheable := e.cache.runKey(art)
	if !cacheable {
		res, runErr, _ := simulate(ctx, art)
		return res, runErr
	}
	for {
		if res, err, ok := e.cache.getMemRun(key); ok {
			mCacheRunHits.Inc()
			return res, err
		}
		f, leader := e.cache.startFlight("r:" + key)
		if !leader {
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if !f.memoised {
				continue // the leader's run ended without an outcome: look again
			}
			mCacheRunHits.Inc()
			return cloneRunResult(f.res), f.err
		}
		// The leader looks in both tiers: memory again, since a flight
		// can end between the lookup above and startFlight with its
		// outcome stored, and then disk.
		if res, err, ok := e.cache.getRun(key); ok {
			e.cache.endFlight("r:"+key, f)
			mCacheRunHits.Inc()
			return res, err
		}
		res, runErr, memoise := simulate(ctx, art)
		e.cache.finishRun(key, f, res, runErr, memoise)
		return res, runErr
	}
}

// simulate runs the artifact on a machine that polls ctx. memoise
// reports whether the outcome belongs to the program: a deterministic
// machine gives a deterministic outcome, so errors (e.g. a runaway
// program's step-limit fault) are as memoisable as successes, but a
// cancellation or a machine that could not be provisioned is not.
func simulate(ctx context.Context, art *core.Artifact) (res *core.RunResult, runErr error, memoise bool) {
	m, err := art.NewMachine(vm.WithCancel(ctx))
	if err != nil {
		return nil, err, false
	}
	res, runErr = art.RunOn(m)
	m.Release()
	if f := (*vm.Fault)(nil); errors.As(runErr, &f) && f.Kind == vm.FaultCanceled {
		return nil, ctx.Err(), false
	}
	return res, runErr, true
}

// engineRunner adapts the Engine to core.Runner for
// CompareStrategiesContext. The comparison holds one admission slot for
// its whole build/run sequence, so the internal steps never queue.
type engineRunner struct {
	ctx context.Context
	e   *Engine
}

func (r engineRunner) BuildArtifact(source string, mode core.Mode, opts core.Options) (*core.Artifact, error) {
	return r.e.BuildContext(r.ctx, source, mode, opts)
}

func (r engineRunner) RunArtifact(art *core.Artifact) (*core.RunResult, error) {
	return r.e.runNoAdmission(r.ctx, art)
}

// CompareStrategiesContext is core.CompareStrategies through the
// Engine: every strategy's build and run is served from the caches and
// recycled machines, under one admission slot.
func (e *Engine) CompareStrategiesContext(ctx context.Context, name, source string, cfg core.CompareConfig) (*core.Comparison, error) {
	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	return core.CompareStrategiesUsing(engineRunner{ctx: ctx, e: e}, name, source, cfg)
}
