// Package netsim reproduces the paper's network-application methodology
// (§4.4): a server handles each incoming request with a freshly forked
// process, so the per-program and per-array set-up costs of Cash are paid
// on every request. The experiment sends 2000 requests; latency is the
// mean CPU time of the handler processes and throughput is requests
// divided by the span from first fork to last exit.
//
// The simulated machine is deterministic, so one run per mode yields the
// exact per-request handler cost. The span adds a fixed per-request
// operating-system cost (fork, scheduling, network stack) that is
// identical across compiler modes — which is why the paper's throughput
// penalties sit slightly below its latency penalties.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cash/internal/core"
	"cash/internal/serve"
	"cash/internal/workload"
)

// OSOverheadCycles is the per-request fork/network cost added to the
// server span. It is mode-independent.
const OSOverheadCycles = 20000

// DefaultRequests matches the paper's client workload.
const DefaultRequests = 2000

// LibReplicas is the static-link replication factor for the libc corpus
// (see internal/bench: the library dominates statically linked binaries).
const LibReplicas = 24

// ModeNumbers are one compiler mode's measurements for one application.
type ModeNumbers struct {
	HandlerCycles uint64  // CPU cycles of one handler process
	CodeSize      int     // binary text estimate
	Latency       float64 // mean per-request latency in cycles
	Throughput    float64 // requests per million cycles of server span
}

// AppReport is one row of Table 8 (plus the BCC column the paper could
// not produce because BCC miscompiled the nss library).
type AppReport struct {
	Name     string
	Paper    string
	Requests int
	GCC      ModeNumbers
	Cash     ModeNumbers
	BCC      ModeNumbers

	// Penalties of Cash relative to the unchecked baseline, in percent.
	LatencyPenaltyPct    float64
	ThroughputPenaltyPct float64
	SpaceOverheadPct     float64
}

// Measure runs one network application under GCC, Cash and BCC and
// computes the Table 8 quantities, through the process-default serving
// engine.
func Measure(w workload.Workload, requests int, opts core.Options) (*AppReport, error) {
	return MeasureContext(context.Background(), serve.Default(), w, requests, opts)
}

// MeasureContext is Measure through an explicit Engine: builds are
// served from the artifact cache, handler executions from recycled
// machines and the run cache, and ctx cancels between (and inside)
// runs.
func MeasureContext(ctx context.Context, eng *serve.Engine, w workload.Workload, requests int, opts core.Options) (*AppReport, error) {
	if w.Category != workload.CategoryNetwork {
		return nil, fmt.Errorf("netsim: %s is not a network workload", w.Name)
	}
	if requests <= 0 {
		requests = DefaultRequests
	}
	rep := &AppReport{Name: w.Name, Paper: w.Paper, Requests: requests}
	lib := workload.LibCorpus()
	for _, mode := range []core.Mode{core.ModeGCC, core.ModeCash, core.ModeBCC} {
		nums, err := measureMode(ctx, eng, w, mode, requests, opts)
		if err != nil {
			return nil, fmt.Errorf("%s [%v]: %w", w.Name, mode, err)
		}
		// Space overhead compares statically linked binaries (§4.4): the
		// per-mode recompiled library text is part of every server.
		libArt, err := eng.BuildContext(ctx, lib.Source, mode, opts)
		if err != nil {
			return nil, fmt.Errorf("libc corpus [%v]: %w", mode, err)
		}
		nums.CodeSize += libArt.CodeSize() * LibReplicas
		switch mode {
		case core.ModeGCC:
			rep.GCC = nums
		case core.ModeCash:
			rep.Cash = nums
		case core.ModeBCC:
			rep.BCC = nums
		}
	}
	rep.LatencyPenaltyPct = pctIncrease(rep.Cash.Latency, rep.GCC.Latency)
	// Throughput is better when higher: the penalty is the relative drop
	// from the unchecked server's throughput.
	rep.ThroughputPenaltyPct = (rep.GCC.Throughput - rep.Cash.Throughput) / rep.GCC.Throughput * 100
	rep.SpaceOverheadPct = pctIncrease(float64(rep.Cash.CodeSize), float64(rep.GCC.CodeSize))
	return rep, nil
}

func measureMode(ctx context.Context, eng *serve.Engine, w workload.Workload, mode core.Mode, requests int, opts core.Options) (ModeNumbers, error) {
	art, err := eng.BuildContext(ctx, w.Source, mode, opts)
	if err != nil {
		return ModeNumbers{}, err
	}
	res, err := eng.RunContext(ctx, art)
	if err != nil {
		return ModeNumbers{}, err
	}
	if res.Violation != nil {
		return ModeNumbers{}, fmt.Errorf("unexpected bound violation: %v", res.Violation)
	}
	handler := res.Cycles
	span := float64(requests) * (float64(handler) + OSOverheadCycles)
	return ModeNumbers{
		HandlerCycles: handler,
		CodeSize:      art.CodeSize(),
		Latency:       float64(handler),
		Throughput:    float64(requests) / span * 1e6,
	}, nil
}

// pctIncrease returns how much larger v is than base, in percent. A zero
// baseline has no meaningful relative increase, so the result is the NaN
// sentinel rather than a silent 0 — callers that format percentages
// render it as "n/a" (see bench.Table), and callers that compute with it
// can test math.IsNaN instead of mistaking "no baseline" for "no change".
func pctIncrease(v, base float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (v - base) / base * 100
}

// MeasureAll runs every network application through the process-default
// engine. Applications are measured independently: when some fail, the
// returned slice still carries every completed report (failed
// applications stay nil) alongside an error joining all per-application
// failures, so one bad app no longer discards the rows that did
// complete.
func MeasureAll(requests int, opts core.Options) ([]*AppReport, error) {
	return MeasureAllContext(context.Background(), serve.Default(), requests, opts)
}

// MeasureAllContext is MeasureAll through an explicit Engine, fanned
// out with the Engine's worker budget.
func MeasureAllContext(ctx context.Context, eng *serve.Engine, requests int, opts core.Options) ([]*AppReport, error) {
	apps := workload.NetworkApps()
	out := make([]*AppReport, len(apps))
	errs := eng.DoCollect(len(apps), func(i int) error {
		rep, err := MeasureContext(ctx, eng, apps[i], requests, opts)
		if err != nil {
			return err
		}
		out[i] = rep
		return nil
	})
	return out, errors.Join(errs...)
}
