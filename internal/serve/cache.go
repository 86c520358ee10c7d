package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"

	"cash/internal/core"
)

// buildKey derives the content address of an artifact: a SHA-256 over
// the source text, the strategy name, and every semantic build option.
// The strategy is hashed by name, so a Mode constant and its string
// spelling (core.ModeCash and "cash") address the same cache entry.
// Options.EventTrace is deliberately excluded (the caller nils it
// first): a trace changes what is observed, never what is built, so
// traced and untraced requests share one compiled artifact.
//
// The key addresses the same artifact in every layer of the store —
// and, through the disk layer, across processes: a restarted server
// computes the same key and finds the previous process's artifact.
func buildKey(source string, mode core.Mode, opts core.Options) string {
	h := sha256.New()
	h.Write([]byte(mode))
	h.Write([]byte{0})
	var fixed [32]byte
	binary.LittleEndian.PutUint32(fixed[4:], uint32(opts.SegRegs))
	if opts.SkipReadChecks {
		fixed[8] = 1
	}
	if opts.UseBoundInstr {
		fixed[9] = 1
	}
	if opts.WithoutCallGate {
		fixed[10] = 1
	}
	if opts.ElectricFence {
		fixed[11] = 1
	}
	// StepOnly selects which execution engine the artifact's machines
	// use, so step and tier-2 artifacts are distinct cache entries even
	// though they compile the same code.
	if opts.StepOnly {
		fixed[12] = 1
	}
	// An oracle build carries a site table and runs under the oracle.
	// The flag takes a byte that is zero when it is off, so the keys of
	// default builds, and the store entries filed under them, stay valid.
	if opts.Oracle {
		fixed[13] = 1
	}
	binary.LittleEndian.PutUint64(fixed[16:], opts.StepLimit)
	binary.LittleEndian.PutUint64(fixed[24:], uint64(len(source)))
	h.Write(fixed[:])
	// Optimization passes change the emitted program, so they are part
	// of the content address. The engine normalised the list before
	// keying (core.NormalizePasses), so equivalent spellings collide.
	for _, p := range opts.Passes {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	h.Write([]byte{0xff})
	h.Write([]byte(source))
	return hex.EncodeToString(h.Sum(nil))
}

// entry is one memory-layer cached value: an artifact ("a:"-prefixed
// key) or a run result ("r:"-prefixed key). Both kinds share the single
// LRU list and byte budget.
type entry struct {
	key  string
	size int64

	art *core.Artifact

	res    *core.RunResult
	runErr error
}

// flight is one in-progress build that concurrent identical requests
// coalesce onto.
type flight struct {
	done chan struct{}
	art  *core.Artifact
	err  error
}

// cache front-ends the engine's layered Store with the pieces that are
// engine policy rather than storage: the singleflight table that
// coalesces concurrent identical builds, and the artifact→key table
// that makes runs of canonical cached artifacts memoisable.
type cache struct {
	store Store

	mu sync.Mutex
	// artKeys maps canonical cached artifacts back to their build key,
	// enabling the run-result cache. Trace-bearing clones are absent by
	// construction, so their runs are never memoised. Artifacts promoted
	// from the disk layer register here exactly like compiled ones.
	artKeys map[*core.Artifact]string
	flights map[string]*flight
}

// newCache builds the memory-only cache (no disk layer).
func newCache(budget int64) *cache {
	c := &cache{
		artKeys: make(map[*core.Artifact]string),
		flights: make(map[string]*flight),
	}
	c.store = newMemStore(budget, c.dropEntry)
	return c
}

// newLayeredCache stacks the memory layer over a disk layer: reads
// fall through to disk on a memory miss (promoting hits), writes go
// through both, so compiled artifacts and deterministic run outcomes
// survive the process.
func newLayeredCache(budget int64, disk Store) *cache {
	c := &cache{
		artKeys: make(map[*core.Artifact]string),
		flights: make(map[string]*flight),
	}
	mem := newMemStore(budget, c.dropEntry)
	c.store = newLayered(mem, disk, c.registerArtifact)
	return c
}

// dropEntry is the memory layer's eviction hook: an artifact leaving
// memory loses its run-memoisation registration (holders of the old
// pointer run for real; the next build-key lookup re-registers a
// canonical artifact, from disk or a fresh compile).
func (c *cache) dropEntry(ent *entry) {
	if ent.art == nil {
		return
	}
	c.mu.Lock()
	delete(c.artKeys, ent.art)
	c.mu.Unlock()
}

// registerArtifact marks art as the canonical artifact for a build key
// so its runs hit the run cache.
func (c *cache) registerArtifact(key string, art *core.Artifact) {
	c.mu.Lock()
	c.artKeys[art] = key
	c.mu.Unlock()
}

// getArtifact returns the cached artifact for a build key, from any
// layer.
func (c *cache) getArtifact(key string) (*core.Artifact, bool) {
	return c.store.GetArtifact(key)
}

// startFlight joins or starts the singleflight for key. The second
// return is true for the leader — the caller that must compile and then
// finishFlight; false means wait on the returned flight's done channel.
func (c *cache) startFlight(key string) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	return f, true
}

// finishFlight records the leader's build outcome, stores a successful
// artifact (through every layer — a failed build writes nothing, to
// memory or disk), and releases every waiter. The artifact is stored
// before the flight ends, so a leader that started its flight after
// this one ended finds the artifact when it looks again (see
// Engine.BuildContext) instead of compiling the key a second time.
func (c *cache) finishFlight(key string, f *flight, art *core.Artifact, err error) {
	if err == nil {
		c.registerArtifact(key, art)
		// Outside c.mu: the disk layer does real I/O and the memory
		// layer's eviction hook takes c.mu itself.
		c.store.PutArtifact(key, art)
	}
	c.endFlight(key, f, art, err)
}

// endFlight removes the flight and releases its waiters with the
// outcome.
func (c *cache) endFlight(key string, f *flight, art *core.Artifact, err error) {
	f.art, f.err = art, err
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
}

// runKey returns the run-cache key for an artifact and whether its runs
// are memoisable (only canonical cached artifacts are; trace-bearing
// clones and uncached artifacts run for real every time).
func (c *cache) runKey(art *core.Artifact) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key, ok := c.artKeys[art]
	return key, ok
}

// getRun returns the memoised run outcome for a run key. The result is
// a private copy per call, so callers may mutate what they receive.
func (c *cache) getRun(key string) (*core.RunResult, error, bool) {
	return c.store.GetRun(key)
}

// putRun memoises a run outcome (result, error, or both).
func (c *cache) putRun(key string, res *core.RunResult, runErr error) {
	c.store.PutRun(key, res, runErr)
}

// close releases the cache's store layers (the disk layer, when
// present; the memory layer is a no-op).
func (c *cache) close() error {
	return c.store.Close()
}

// artifactSize estimates an artifact's retained bytes for the cache
// budget: the predecoded program dominates, at roughly one exec closure
// plus cost/note bytes per instruction, plus the data image and AST.
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
