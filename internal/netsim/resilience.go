package netsim

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"cash/internal/chaos"
	"cash/internal/core"
	"cash/internal/ldt"
	"cash/internal/minic"
	"cash/internal/obs"
	"cash/internal/serve"
	"cash/internal/vm"
	"cash/internal/workload"
)

// Resilience accounting in the shared observability registry. Each
// mode's serving loop accumulates privately and publishes once at the
// end (counter adds and one histogram merge), so totals are identical
// at any par fan-out budget.
var (
	nmRequests  = obs.Default().Counter("netsim.requests")
	nmInjected  = obs.Default().Counter("netsim.injected")
	nmServed    = obs.Default().Counter("netsim.served")
	nmOK        = obs.Default().Counter("netsim.outcome.ok")
	nmTolerated = obs.Default().Counter("netsim.outcome.tolerated")
	nmDegraded  = obs.Default().Counter("netsim.outcome.degraded")
	nmShed      = obs.Default().Counter("netsim.outcome.shed")
	nmTimedOut  = obs.Default().Counter("netsim.outcome.timed_out")
	nmDetected  = obs.Default().Counter("netsim.outcome.detected")
	nmRetries   = obs.Default().Counter("netsim.retries")
	nmChecker   = obs.Default().Counter("netsim.checker_violations")

	nmLatency = obs.Default().Histogram("netsim.latency.cycles", obs.DefaultCycleBounds())
)

// This file is the resilient request-serving loop: the same fork-per-
// request server model as Measure, but driven through a deterministic
// fault-injection plane (internal/chaos) and hardened against every
// fault it injects. A faulting handler is a counted failed request, never
// an aborted run — the server survives transient kernel failures (retry
// with backoff), LDT exhaustion (graceful degradation to flat segments,
// §3.4), runaway handlers (per-request cycle-budget watchdog), corrupted
// descriptor state (post-fault invariant checker) and malformed or
// unmapped request buffers (fault isolation).
//
// Determinism contract: every injection decision is a pure function of
// (seed, application/mode scope, request index, attempt), so two runs
// with the same seed and rate produce byte-identical reports, regardless
// of scheduling. The chaos plane never consults wall-clock time or a
// shared PRNG stream.

// Retry policy for transient modify_ldt failures (EAGAIN-style).
const (
	// MaxAttempts bounds how often one request is retried before it is
	// shed. The first attempt plus three retries.
	MaxAttempts = 4
	// BackoffBaseCycles is the first retry's backoff, doubled per
	// attempt up to BackoffCapCycles. Backoff is charged to the
	// request's latency, mirroring a server that sleeps before
	// re-forking the handler.
	BackoffBaseCycles = 500
	BackoffCapCycles  = 4000
)

// Degradation and shedding policy.
const (
	// DegradeThreshold is how many consecutive LDT-exhaustion
	// degradations flip the server into flat-segment mode (§3.4): it
	// stops asking the kernel for per-array segments entirely instead
	// of paying the allocation cost just to fall back each time.
	DegradeThreshold = 3
	// ProbeInterval is how often (in requests) a degraded server probes
	// with a fully checked handler; a clean probe re-arms checking.
	ProbeInterval = 32
	// ShedWindow/ShedThreshold implement load shedding: when at least
	// ShedThreshold of the last ShedWindow outcomes were failures
	// (timeouts or detected corruption), the next request is refused
	// outright rather than served into a struggling system.
	ShedWindow    = 8
	ShedThreshold = 4
)

// DefaultCleanBudget is the watchdog step budget used when the caller
// sets no explicit core.Options.StepLimit. It is far above any clean
// handler's instruction count, so only runaway handlers hit it.
const DefaultCleanBudget = 50_000_000

// ModeResilience is one compiler mode's resilience numbers for one
// application under chaos.
type ModeResilience struct {
	Mode core.Mode

	Requests int // requests offered
	Injected int // requests the chaos plane picked for fault injection
	Served   int // requests that produced a response (OK + Tolerated + Degraded)

	OK        int // served by a fully checked, uninjected-equivalent handler
	Tolerated int // injected, but the handler absorbed it with correct output
	Retries   int // transient-failure retries performed (attempts, not requests)
	Shed      int // refused: retries exhausted or load shedding tripped
	Degraded  int // served in flat-segment fallback mode (§3.4)
	TimedOut  int // killed by the per-request watchdog budget
	Detected  int // handler fault or corruption caught (the system worked)

	// CheckerViolations counts Detected outcomes found only by the
	// post-fault LDT invariant checker (silent-corruption catches).
	CheckerViolations int

	// Handler latency percentiles over served requests, in cycles
	// (including retry backoff for retried requests).
	P50, P95, P99 uint64
}

// AvailabilityPct is the fraction of offered requests that were served.
func (m *ModeResilience) AvailabilityPct() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.Served) / float64(m.Requests) * 100
}

// ResilienceReport aggregates the three compiler modes for one
// application.
type ResilienceReport struct {
	Name     string
	Paper    string
	Requests int
	Modes    [3]ModeResilience // GCC, Cash, BCC in order
}

// requestOutcome classifies one request for the accounting above.
type requestOutcome int

const (
	outcomeOK requestOutcome = iota
	outcomeTolerated
	outcomeDegraded
	outcomeTimedOut
	outcomeDetected
	outcomeShed
)

// served reports whether the outcome produced a response.
func (o requestOutcome) served() bool {
	return o == outcomeOK || o == outcomeTolerated || o == outcomeDegraded
}

// bad reports whether the outcome counts against the shedding window.
func (o requestOutcome) bad() bool {
	return o == outcomeTimedOut || o == outcomeDetected
}

// inputGlobal locates the application's embedded request buffer: the
// first global array of source with an initialiser (every network
// workload in the corpus embeds its request bytes that way), placed
// where prog's data image holds it. Returns ok=false for programs
// without one; buffer-targeting injection sites are then inapplicable.
func inputGlobal(source string, prog *vm.Program) (addr uint32, size int, ok bool) {
	ast, err := minic.Parse(source)
	if err != nil {
		return 0, 0, false
	}
	for _, g := range ast.Globals {
		if g.Type.Kind != minic.TypeArray {
			continue
		}
		if g.InitStr == "" && len(g.InitList) == 0 {
			continue
		}
		pg, found := prog.Globals[g.Name]
		return pg.Addr, int(pg.Size), found
	}
	return 0, 0, false
}

// cleanRun is the memoised outcome of an uninjected handler execution.
type cleanRun struct {
	cycles uint64
	instrs uint64
	output []int32
	fault  *vm.Fault // non-nil when even the clean handler faults
}

// runClean executes the artifact once with no injection and caches the
// quantities every subsequent clean request reuses (the machine is
// deterministic, so one execution is exact for all of them). It runs
// the machine directly — not through the Engine's run cache — so the
// core.runs accounting counts this execution exactly once.
func runClean(art *core.Artifact, budget uint64) (*cleanRun, error) {
	m, err := art.NewMachine(vm.WithStepLimit(budget))
	if err != nil {
		return nil, err
	}
	res, runErr := m.Run()
	m.Release()
	cr := &cleanRun{cycles: res.Cycles, instrs: res.Stats.Instructions, output: res.Output}
	if runErr != nil {
		var f *vm.Fault
		if !errors.As(runErr, &f) {
			return nil, runErr
		}
		cr.fault = f
	}
	return cr, nil
}

// modeServer holds the per-mode state of the resilient serving loop.
type modeServer struct {
	art     *core.Artifact
	flatArt *core.Artifact // Cash with checking disabled: the degraded server
	budget  uint64
	plan    *chaos.Plan
	scope   string
	sites   []chaos.Site

	reqAddr uint32
	reqSize int
	hasReq  bool

	clean     *cleanRun
	flatClean *cleanRun // lazily built on first degradation
	flatErr   error

	degraded    bool
	consecExh   int
	window      []bool // ring of recent outcome.bad() flags
	windowBad   int
	mr          *ModeResilience
	lat         *obs.Histogram // served-request latencies, in cycles
	shedArmed   bool
	sinceDegron int // requests since entering degraded mode, for probing
}

// vmOptions maps one injection decision to the machine options that
// realise it. The bool result is false when the site cannot apply to
// this program (no request buffer); such injections are absorbed.
func (s *modeServer) vmOptions(inj chaos.Injection, budget uint64) ([]vm.Option, bool) {
	opts := []vm.Option{vm.WithStepLimit(budget), vm.WithLDTAudit()}
	switch inj.Site {
	case chaos.SiteTransientLDT:
		opts = append(opts, vm.WithTransientAllocFault())
	case chaos.SiteExhaustLDT:
		opts = append(opts, vm.WithLDTReserve(ldt.UsableEntries))
	case chaos.SiteCorruptDescriptor:
		opts = append(opts, vm.WithDescriptorCorruption())
	case chaos.SiteCorruptShadow:
		opts = append(opts, vm.WithShadowCorruption())
	case chaos.SiteUnmapPage:
		if !s.hasReq {
			return nil, false
		}
		opts = append(opts, vm.WithPaging(64<<20), vm.WithPageUnmap(s.reqAddr))
	case chaos.SiteMalformedRequest:
		if !s.hasReq || s.reqSize < 2 {
			return nil, false
		}
		garbage := make([]byte, s.reqSize-1)
		for i := range garbage {
			garbage[i] = 0xFF
		}
		opts = append(opts, vm.WithPoke(s.reqAddr, garbage))
	case chaos.SiteRunawayHandler:
		// A handler stuck in a loop: model it by a budget the clean
		// instruction count already exceeds, so the watchdog must fire.
		runaway := s.clean.instrs / 2
		if runaway < 1 {
			runaway = 1
		}
		opts = []vm.Option{vm.WithStepLimit(runaway), vm.WithLDTAudit()}
	default:
		return nil, false
	}
	return opts, true
}

// record books one finished request.
func (s *modeServer) record(o requestOutcome, latency uint64, injected bool) {
	switch o {
	case outcomeOK:
		s.mr.OK++
	case outcomeTolerated:
		s.mr.Tolerated++
	case outcomeDegraded:
		s.mr.Degraded++
	case outcomeTimedOut:
		s.mr.TimedOut++
	case outcomeDetected:
		s.mr.Detected++
	case outcomeShed:
		s.mr.Shed++
	}
	if injected {
		s.mr.Injected++
	}
	if o.served() {
		s.mr.Served++
		s.lat.Observe(latency)
	}
	// Shedding window: push the outcome's badness, evict the oldest.
	s.window = append(s.window, o.bad())
	if o.bad() {
		s.windowBad++
	}
	if len(s.window) > ShedWindow {
		if s.window[0] {
			s.windowBad--
		}
		s.window = s.window[1:]
	}
	s.shedArmed = s.windowBad >= ShedThreshold
}

// ensureFlat lazily builds the degraded-mode artifact (unchecked
// handler: no per-array segments, hence no LDT pressure) and its clean
// run. Only Cash mode degrades; the flat server is the GCC-compiled
// handler, which is exactly what §3.4's flat-segment fallback executes.
// The build goes through the Engine, so it is a cache hit whenever the
// GCC mode server already compiled the same source.
func (s *modeServer) ensureFlat(ctx context.Context, eng *serve.Engine, source string, opts core.Options) {
	if s.flatClean != nil || s.flatErr != nil {
		return
	}
	art, err := eng.BuildContext(ctx, source, core.ModeGCC, opts)
	if err != nil {
		s.flatErr = err
		return
	}
	s.flatArt = art
	cr, err := runClean(art, s.budget)
	if err != nil {
		s.flatErr = err
		return
	}
	s.flatClean = cr
}

// serveInjected runs one injected request to completion (including
// retries) and returns its outcome and latency.
func (s *modeServer) serveInjected(req int, inj chaos.Injection) (requestOutcome, uint64) {
	var backoff uint64
	for attempt := 0; ; attempt++ {
		opts, applicable := s.vmOptions(inj, s.budget)
		if !applicable {
			// Site cannot bite this program: the request is served
			// normally, the injection is absorbed.
			return outcomeTolerated, s.clean.cycles
		}
		if s.degraded && s.flatClean != nil &&
			inj.Site != chaos.SiteUnmapPage && inj.Site != chaos.SiteMalformedRequest && inj.Site != chaos.SiteRunawayHandler {
			// A degraded server makes no segment allocations, so the
			// LDT-targeting sites have nothing to hit: the request is
			// served by the flat handler.
			return outcomeDegraded, s.flatClean.cycles + backoff
		}
		m, err := s.art.NewMachine(opts...)
		if err != nil {
			return outcomeDetected, 0
		}
		res, runErr := m.Run()
		// The machine's last use is the post-run invariant check; after it
		// the parts are released no matter how the run ended (reset-on-
		// reuse erases any injected damage).
		var invErr error
		if runErr == nil {
			invErr = m.LDTManager().CheckInvariants()
		}
		m.Release()
		latency := res.Cycles + backoff
		if runErr != nil {
			var f *vm.Fault
			if !errors.As(runErr, &f) {
				return outcomeDetected, latency
			}
			switch f.Kind {
			case vm.FaultTransient:
				s.mr.Retries++
				if attempt+1 >= MaxAttempts {
					return outcomeShed, latency
				}
				b := uint64(BackoffBaseCycles) << uint(attempt)
				if b > BackoffCapCycles {
					b = BackoffCapCycles
				}
				backoff += b
				// Redraw for the retry: the fault may not recur.
				inj = s.plan.Draw(s.scope, req, attempt+1, s.sites)
				if !inj.Active() {
					return s.serveCleanRetried(backoff)
				}
				continue
			case vm.FaultStepLimit:
				return outcomeTimedOut, latency
			default:
				// Bound violation, page fault, #GP from a corrupted
				// descriptor, …: the fault was contained to this
				// handler and counted — exactly what the paper's
				// process-per-request isolation buys.
				return outcomeDetected, latency
			}
		}
		// The handler completed. Corruption may still be latent: the
		// invariant checker ran over the descriptor table and shadow state
		// before the parts were recycled.
		if invErr != nil {
			s.mr.CheckerViolations++
			return outcomeDetected, latency
		}
		if res.Stats.FlatFallbacks > 0 {
			s.noteExhaustion()
			return outcomeDegraded, latency
		}
		if s.hasReq && !slices.Equal(res.Output, s.clean.output) {
			// Malformed input changed the response: the handler's own
			// validation path rejected it. Count as detected.
			return outcomeDetected, latency
		}
		return outcomeTolerated, latency
	}
}

// serveCleanRetried serves a request whose injected transient fault did
// not recur on retry.
func (s *modeServer) serveCleanRetried(backoff uint64) (requestOutcome, uint64) {
	if s.clean.fault != nil {
		if s.clean.fault.Kind == vm.FaultStepLimit {
			return outcomeTimedOut, 0
		}
		return outcomeDetected, 0
	}
	return outcomeTolerated, s.clean.cycles + backoff
}

// noteExhaustion tracks consecutive LDT-exhaustion fallbacks and flips
// the server into degraded mode past the threshold.
func (s *modeServer) noteExhaustion() {
	s.consecExh++
	if s.consecExh >= DegradeThreshold && !s.degraded {
		s.degraded = true
		s.sinceDegron = 0
	}
}

// serve handles request i end to end.
func (s *modeServer) serve(i int) {
	if s.shedArmed {
		// Load shedding: refuse the request, give the window one
		// neutral slot so the server can recover.
		s.record(outcomeShed, 0, false)
		return
	}
	inj := s.plan.Draw(s.scope, i, 0, s.sites)
	if inj.Active() {
		o, lat := s.serveInjected(i, inj)
		if o != outcomeDegraded {
			s.consecExh = 0
		}
		s.record(o, lat, true)
		return
	}
	// Uninjected request.
	if s.degraded {
		s.sinceDegron++
		if s.sinceDegron%ProbeInterval == 0 && s.clean.fault == nil {
			// Probe with a fully checked handler; a clean result
			// re-arms checking.
			s.degraded = false
			s.consecExh = 0
			s.record(outcomeOK, s.clean.cycles, false)
			return
		}
		if s.flatClean != nil {
			s.record(outcomeDegraded, s.flatClean.cycles, false)
		} else {
			s.record(outcomeDetected, 0, false)
		}
		return
	}
	s.consecExh = 0
	if s.clean.fault != nil {
		// Even the uninjected handler fails: a step-limit means every
		// request times out; anything else is detected per request.
		if s.clean.fault.Kind == vm.FaultStepLimit {
			s.record(outcomeTimedOut, 0, false)
		} else {
			s.record(outcomeDetected, 0, false)
		}
		return
	}
	s.record(outcomeOK, s.clean.cycles, false)
}

// publishResilience adds one finished mode run's accounting to the
// shared registry: counter sums plus one latency-histogram merge, all
// commutative, so registry totals are independent of fan-out order.
func publishResilience(mr *ModeResilience, lat *obs.Histogram) {
	nmRequests.Add(uint64(mr.Requests))
	nmInjected.Add(uint64(mr.Injected))
	nmServed.Add(uint64(mr.Served))
	nmOK.Add(uint64(mr.OK))
	nmTolerated.Add(uint64(mr.Tolerated))
	nmDegraded.Add(uint64(mr.Degraded))
	nmShed.Add(uint64(mr.Shed))
	nmTimedOut.Add(uint64(mr.TimedOut))
	nmDetected.Add(uint64(mr.Detected))
	nmRetries.Add(uint64(mr.Retries))
	nmChecker.Add(uint64(mr.CheckerViolations))
	if err := nmLatency.Merge(lat); err != nil {
		// Both sides are built over DefaultCycleBounds; a mismatch is a
		// programming error, not a data condition.
		panic(err)
	}
}

// measureModeResilience runs the resilient serving loop for one
// application and mode.
func measureModeResilience(ctx context.Context, eng *serve.Engine, w workload.Workload, mode core.Mode, requests int, opts core.Options, plan *chaos.Plan) (ModeResilience, error) {
	art, err := eng.BuildContext(ctx, w.Source, mode, opts)
	if err != nil {
		return ModeResilience{}, err
	}
	budget := opts.StepLimit
	if budget == 0 {
		budget = DefaultCleanBudget
	}
	clean, err := runClean(art, budget)
	if err != nil {
		return ModeResilience{}, err
	}
	mr := ModeResilience{Mode: mode, Requests: requests}
	s := &modeServer{
		art:    art,
		budget: budget,
		plan:   plan,
		scope:  w.Name + "/" + mode.String(),
		clean:  clean,
		mr:     &mr,
		lat:    obs.NewCycleHistogram(),
	}
	if mode == core.ModeCash {
		s.sites = chaos.AllSites()
	} else {
		// Only Cash allocates per-array segments; the LDT-targeting
		// sites cannot bite the other modes.
		s.sites = chaos.UniversalSites()
	}
	s.reqAddr, s.reqSize, s.hasReq = inputGlobal(w.Source, art.Program)
	if mode == core.ModeCash && plan.Enabled() {
		// Degradation needs the flat handler; build it up front so the
		// serving loop never hits a build error mid-run.
		s.ensureFlat(ctx, eng, w.Source, opts)
	}
	for i := 0; i < requests; i++ {
		if err := ctx.Err(); err != nil {
			return ModeResilience{}, err
		}
		s.serve(i)
	}
	// Nearest-rank quantiles from the shared histogram. The population is
	// well inside the exact-sample cap, so these are exact order
	// statistics — the ceil(q·N/100)-th smallest latency — not the
	// floored linear index the old local percentile() computed.
	mr.P50 = s.lat.Quantile(50)
	mr.P95 = s.lat.Quantile(95)
	mr.P99 = s.lat.Quantile(99)
	publishResilience(&mr, s.lat)
	return mr, nil
}

// MeasureResilienceContext runs one network application's resilient
// server under all three compiler modes against the given chaos plan,
// through eng. Build failures are errors; injected faults never are —
// they surface only in the report's accounting. The published serve.*
// and core.builds.* deltas depend on what eng has cached; a caller that
// needs them to be a pure function of (w, requests, opts, plan) passes
// a fresh Engine (the metrics goldens pin this).
func MeasureResilienceContext(ctx context.Context, eng *serve.Engine, w workload.Workload, requests int, opts core.Options, plan *chaos.Plan) (*ResilienceReport, error) {
	if w.Category != workload.CategoryNetwork {
		return nil, fmt.Errorf("netsim: %s is not a network workload", w.Name)
	}
	if requests <= 0 {
		requests = DefaultRequests
	}
	rep := &ResilienceReport{Name: w.Name, Paper: w.Paper, Requests: requests}
	for i, mode := range []core.Mode{core.ModeGCC, core.ModeCash, core.ModeBCC} {
		mr, err := measureModeResilience(ctx, eng, w, mode, requests, opts, plan)
		if err != nil {
			return nil, fmt.Errorf("%s [%v]: %w", w.Name, mode, err)
		}
		rep.Modes[i] = mr
	}
	return rep, nil
}

// MeasureAllResilienceContext runs every network application against
// the plan through eng, fanned out with the Engine's worker budget. Like
// MeasureAllContext it returns partial results: failed applications
// stay nil in the slice and their errors are joined.
func MeasureAllResilienceContext(ctx context.Context, eng *serve.Engine, requests int, opts core.Options, plan *chaos.Plan) ([]*ResilienceReport, error) {
	apps := workload.NetworkApps()
	out := make([]*ResilienceReport, len(apps))
	errs := eng.DoCollect(len(apps), func(i int) error {
		rep, err := MeasureResilienceContext(ctx, eng, apps[i], requests, opts, plan)
		if err != nil {
			return err
		}
		out[i] = rep
		return nil
	})
	return out, errors.Join(errs...)
}
