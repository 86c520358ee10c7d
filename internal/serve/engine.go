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
	"runtime"

	"cash/internal/core"
	"cash/internal/obs"
	"cash/internal/par"
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
	// DefaultCacheBytes; negative disables caching entirely.
	CacheBytes int64
	// MaxInFlight bounds concurrently admitted requests. 0 derives the
	// bound from Parallelism.
	MaxInFlight int
	// Parallelism is the worker budget for this Engine's table fan-outs.
	// 0 means GOMAXPROCS.
	Parallelism int
	// EventTrace receives the Engine's consumers' structured events
	// (netsim serving decisions). Nil records none.
	EventTrace *obs.Trace
	// StoreDir, when non-empty, roots a content-addressed on-disk store
	// layered under the in-memory cache: compiled artifacts and
	// deterministic run outcomes are written through to disk and survive
	// the process, so a restarted engine warm-starts from its
	// predecessor's work. Requires caching (CacheBytes >= 0); ignored
	// when caching is disabled. Open reports an unusable directory as an
	// error; NewEngine degrades to a memory-only engine.
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

// NewEngine returns an Engine for the given configuration. A StoreDir
// that cannot be opened is dropped: the engine runs memory-only rather
// than failing (use Open to observe the error).
func NewEngine(cfg EngineConfig) *Engine {
	e, err := Open(cfg)
	if err != nil {
		cfg.StoreDir = ""
		e, _ = Open(cfg)
	}
	return e
}

// Open returns an Engine for the given configuration, reporting an
// unusable StoreDir as an error instead of degrading silently.
func Open(cfg EngineConfig) (*Engine, error) {
	e := &Engine{cfg: cfg}
	if cfg.CacheBytes >= 0 {
		budget := cfg.CacheBytes
		if budget == 0 {
			budget = DefaultCacheBytes
		}
		if cfg.StoreDir != "" {
			storeBudget := cfg.StoreBytes
			if storeBudget == 0 {
				storeBudget = DefaultStoreBytes
			}
			if storeBudget < 0 {
				storeBudget = 0 // unlimited
			}
			disk, err := newDiskStore(cfg.StoreDir, storeBudget)
			if err != nil {
				return nil, err
			}
			e.cache = newLayeredCache(budget, disk)
		} else {
			e.cache = newCache(budget)
		}
	}
	return e, nil
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
	if e.cache != nil {
		return e.cache.close()
	}
	return nil
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

// EventTrace returns the trace the Engine's consumers should emit into
// (EngineConfig.EventTrace; nil when none is configured).
func (e *Engine) EventTrace() *obs.Trace {
	return e.cfg.EventTrace
}

// BuildContext returns the artifact for (source, mode, opts), serving
// it from the content-addressed cache when possible. Concurrent misses
// for the same key compile once (singleflight); waiters block on the
// flight or ctx, whichever finishes first. The cache key excludes
// opts.EventTrace — a requested trace is attached to a clone of the
// cached artifact, and such clones bypass the run-result cache so their
// events always fire.
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
	if e.cache == nil {
		return buildForServing(source, mode, opts)
	}
	reqTrace := opts.EventTrace
	opts.EventTrace = nil
	passes, err := core.NormalizePasses(opts.Passes)
	if err != nil {
		return nil, err
	}
	opts.Passes = passes
	key := buildKey(source, mode, opts)

	if art, ok := e.cache.getArtifact(key); ok {
		mCacheHits.Inc()
		core.NoteCachedBuild(mode)
		return withTrace(art, reqTrace), nil
	}
	f, leader := e.cache.startFlight(key)
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
		return withTrace(f.art, reqTrace), nil
	}
	// A flight for the key can end between the lookup above and
	// startFlight; its artifact is stored before it ends, so look once
	// more before compiling.
	if art, ok := e.cache.getArtifact(key); ok {
		e.cache.endFlight(key, f, art, nil)
		mCacheHits.Inc()
		core.NoteCachedBuild(mode)
		return withTrace(art, reqTrace), nil
	}
	mCacheMisses.Inc()
	mBuildCompiles.Inc()
	art, err := buildForServing(source, mode, opts)
	e.cache.finishFlight(key, f, art, err)
	if err != nil {
		return nil, err
	}
	return withTrace(art, reqTrace), nil
}

// buildForServing compiles an artifact without its IR module: only
// DumpIR reads the IR, and it would nearly double a cached artifact's
// footprint. Engine artifacts thus match store-decoded ones.
func buildForServing(source string, mode core.Mode, opts core.Options) (*core.Artifact, error) {
	art, err := core.Build(source, mode, opts)
	if err != nil {
		return nil, err
	}
	art.DropIR()
	return art, nil
}

// withTrace attaches a requested event trace to a cached artifact.
func withTrace(art *core.Artifact, tr *obs.Trace) *core.Artifact {
	if tr == nil {
		return art
	}
	return art.WithEventTrace(tr)
}

// NewMachine prepares a machine for the artifact; its parts come from
// the vm recycler when a released set fits. The returned release func
// is the machine's Release: idempotent, and not to be called before
// the machine's last use.
func (e *Engine) NewMachine(art *core.Artifact, extra ...vm.Option) (*vm.Machine, func(), error) {
	m, err := art.NewMachine(extra...)
	if err != nil {
		return nil, nil, err
	}
	return m, m.Release, nil
}

// RunContext executes the artifact once, honoring ctx between simulated
// basic blocks (a canceled ctx surfaces as ctx.Err, never as a *Fault).
// Runs of canonical cached artifacts are memoised: a repeat run returns
// a deep copy of the recorded result — including deterministic error
// outcomes such as step-limit faults — without simulating. Trace-
// bearing artifact clones and engines with caching disabled always run
// for real. A request slot is held for the duration (admission
// control).
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
	key, cacheable := "", false
	if e.cache != nil {
		key, cacheable = e.cache.runKey(art)
	}
	if cacheable {
		if res, err, ok := e.cache.getRun(key); ok {
			mCacheRunHits.Inc()
			return res, err
		}
	}
	m, err := art.NewMachine(vm.WithCancel(ctx))
	if err != nil {
		return nil, err
	}
	res, runErr := art.RunOn(m)
	m.Release()
	if f := (*vm.Fault)(nil); errors.As(runErr, &f) && f.Kind == vm.FaultCanceled {
		return nil, ctx.Err()
	}
	if cacheable {
		// Deterministic machine, deterministic outcome: errors (e.g. a
		// runaway program's step-limit fault) are as cacheable as
		// successes. Cancellation never reaches here.
		e.cache.putRun(key, res, runErr)
	}
	return res, runErr
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
