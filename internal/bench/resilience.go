package bench

import (
	"context"
	"fmt"

	"cash/internal/chaos"
	"cash/internal/core"
	"cash/internal/netsim"
	"cash/internal/serve"
)

// ResilienceTable runs the resilient network servers (internal/netsim)
// against the deterministic chaos plane and reports availability and
// latency tails per application and compiler mode. It is not part of
// AllTablesTimed: the paper's tables are chaos-free, and keeping this
// table separate keeps their goldens byte-identical. It takes only the
// worker budget of s.Engine and deliberately measures on a fresh
// private Engine, so the serve-layer metrics it publishes are a pure
// function of (requests, seed, rate) — the property the metrics golden
// checks.
func (s Suite) ResilienceTable(ctx context.Context, requests int, seed uint64, rate float64) (*Table, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	plan := chaos.NewPlan(chaos.Config{Seed: seed, Rate: rate})
	private := serve.NewEngine(serve.EngineConfig{Parallelism: s.Engine.Parallelism()})
	reps, err := netsim.MeasureAllResilienceContext(ctx, private, requests, s.opt(core.Options{}), plan)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "resilience",
		Title: fmt.Sprintf("server resilience under fault injection (%d requests, seed %d, rate %.0f%%)",
			requests, seed, rate*100),
		Columns: []string{"Program", "Mode", "Avail", "p50", "p95", "p99",
			"Inj", "Retry", "Shed", "Degr", "Tmo", "Det", "Tol"},
		Notes: []string{
			"Avail = served/offered; p50/p95/p99 = handler latency percentiles over served requests (K cycles, incl. retry backoff)",
			"Inj = requests picked by the chaos plane; Retry = transient modify_ldt retries; Shed = refused (retries exhausted or load shedding)",
			"Degr = served in flat-segment fallback mode (§3.4); Tmo = killed by the watchdog budget; Det = fault or corruption caught; Tol = injection absorbed",
			"gcc/bcc see only the universal sites (page unmap, malformed request, runaway handler); LDT sites apply to cash alone",
			"deterministic: identical seed and rate reproduce this table exactly",
		},
	}
	for _, rep := range reps {
		for i := range rep.Modes {
			mr := &rep.Modes[i]
			t.Rows = append(t.Rows, []string{
				rep.Paper,
				mr.Mode.String(),
				pct(mr.AvailabilityPct()),
				kcycles(mr.P50),
				kcycles(mr.P95),
				kcycles(mr.P99),
				fmt.Sprintf("%d", mr.Injected),
				fmt.Sprintf("%d", mr.Retries),
				fmt.Sprintf("%d", mr.Shed),
				fmt.Sprintf("%d", mr.Degraded),
				fmt.Sprintf("%d", mr.TimedOut),
				fmt.Sprintf("%d", mr.Detected),
				fmt.Sprintf("%d", mr.Tolerated),
			})
		}
	}
	return t, nil
}
