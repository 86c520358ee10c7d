package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"cash/internal/core"
	"cash/internal/obs"
	"cash/internal/serve"
	"cash/internal/srv"
)

// The serve-open load: a fixed arrival rate a tenth of the knee (sheds
// start near 1 200 req/s on two cores), two client connections, two
// server workers, and 30% fresh programs. At twice this rate the
// generator shares the two cores with the fresh runs and goes out late
// often enough that its lateness, not the server, sets the tail.
const (
	serveRate        = 125.0
	serveConns       = 2
	serveWorkers     = 2
	serveFreshPerTen = 3
	// serveBehindMS flags a run in which more than 1% of requests went
	// out this late: the generator, not the server, then shaped the tail.
	serveBehindMS = 10.0
)

// serveRequest is one request of the serve-open workload.
type serveRequest struct {
	prog, strat int
	// fresh requests carry a unique comment, so they build and run;
	// hot ones repeat a base program the run cache already answered.
	fresh, hot bool
	source     string
}

// serveStream generates n requests in blocks: each block sends every
// (program, strategy) pair ten times, three of them fresh, in an order
// the seed shuffles. A repeat of a pair sent before is hot.
func serveStream(seed uint64, progs []program, n int) []serveRequest {
	r := newRNG(seed)
	var block []serveRequest
	for p := range progs {
		for m := range strategies() {
			for k := 0; k < 10; k++ {
				block = append(block, serveRequest{prog: p, strat: m, fresh: k < serveFreshPerTen})
			}
		}
	}
	seen := make(map[[2]int]bool)
	out := make([]serveRequest, n)
	for i := range out {
		pos := i % len(block)
		if pos == 0 {
			shuffle(r, len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		req := block[pos]
		req.source = progs[req.prog].source
		base := [2]int{req.prog, req.strat}
		if req.fresh {
			req.source += uniqueTag(seed, i, r)
		} else {
			req.hot = seen[base]
			seen[base] = true
		}
		out[i] = req
	}
	return out
}

type serveState struct {
	eng     *serve.Engine
	server  *srv.Server
	served  chan error
	clients []*srv.Client
	// refs are each base program's core.Build, indexed by (program,
	// strategy). They run after the load, not in set-up: how fast this
	// process runs the simulator varies by half from one process to the
	// next, and set-up time would inherit it.
	refs   []*core.Artifact
	counts codegenCounts
}

func serveSetup(progs []program) (*serveState, error) {
	st := &serveState{}
	var err error
	st.refs, err = referenceBuilds(progs, nil)
	if err != nil {
		return nil, err
	}
	st.counts = countCodegen(st.refs)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.eng = serve.NewEngine(serve.EngineConfig{})
	st.server = srv.New(srv.Config{Engine: st.eng, Workers: serveWorkers})
	st.served = make(chan error, 1)
	go func() { st.served <- st.server.Serve(l) }()
	for i := 0; i < serveConns; i++ {
		c, err := srv.Dial(l.Addr().String())
		if err != nil {
			serveTeardown(st)
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	return st, nil
}

// serveTeardown closes the clients, drains the server, waits for its
// accept loop to return and closes the engine.
func serveTeardown(st *serveState) {
	for _, c := range st.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st.server.Shutdown(ctx)
	<-st.served
	st.eng.Close()
}

// serveResult is what one request's client saw.
type serveResult struct {
	sent, done time.Time
	resp       *srv.RunResponse
	err        error
}

// runServeOpen is an open loop: request k is due at start + k/rate and
// is sent then whether or not earlier ones have returned. Latency counts
// from the due time, so a stall delays every request queued behind it.
func runServeOpen(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	return serveOpenRun(ctx, cfg, tr, smallPrograms(), serveRate)
}

func serveOpenRun(ctx context.Context, cfg config, tr *tracer, progs []program, rate float64) (*outcome, error) {
	want, err := expectedOutputs()
	if err != nil {
		return nil, err
	}
	st, setups, err := timeSetups(func() (*serveState, error) { return serveSetup(progs) }, serveTeardown)
	if err != nil {
		return nil, err
	}
	defer serveTeardown(st)
	// p75 lies among the fresh requests (30% of the stream); higher
	// quantiles move 2-3 times as much as the median when the shared host
	// slows, too much to hold a regression bound.
	out := &outcome{setups: setups, tailQ: 0.75, layer: make(map[string]float64)}
	modes := strategies()
	reqs := serveStream(cfg.seed, progs, int(rate*cfg.seconds.Seconds()))
	results := make([]serveResult, len(reqs))
	late := make([]float64, len(reqs))

	runCtx, cancel := context.WithTimeout(ctx, cfg.seconds+60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	before := obs.Default().Snapshot()
	start := time.Now()
	dueAt := func(k int) time.Time { return start.Add(time.Duration(float64(k) * float64(time.Second) / rate)) }
	for k := range reqs {
		due := dueAt(k)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		late[k] = ms(sent.Sub(due))
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			req := srv.RunRequest{Source: reqs[k].source, Mode: string(modes[reqs[k].strat])}
			resp, err := st.clients[k%serveConns].Run(runCtx, req)
			results[k] = serveResult{sent: sent, done: time.Now(), resp: resp, err: err}
		}(k)
	}
	wg.Wait()
	delta := obs.Default().Snapshot().Delta(before)

	refs := make([]*core.RunResult, len(st.refs))
	for i, art := range st.refs {
		if refs[i], err = art.Run(); err != nil {
			return nil, fmt.Errorf("%s/%s: reference run: %w", progs[i/len(modes)].name, art.Mode, err)
		}
	}
	var last time.Time
	roundtrips := make([]int, len(reqs)) // span id of each request's round trip
	for k, r := range results {
		req := reqs[k]
		out.attempted++
		if err := checkResponse(r, want, progs[req.prog].name, refs[req.prog*len(modes)+req.strat]); err != nil {
			out.fail("request %d (%s/%s): %v", k, progs[req.prog].name, modes[req.strat], err)
			out.ops = append(out.ops, math.Inf(1))
			roundtrips[k] = -1
			continue
		}
		out.ops = append(out.ops, ms(r.done.Sub(dueAt(k))))
		out.completed++
		if r.done.After(last) {
			last = r.done
		}
		kind := "srv.roundtrip_first"
		if req.fresh {
			kind = "srv.roundtrip_fresh"
		} else if req.hot {
			kind = "srv.roundtrip_hot"
		}
		roundtrips[k] = tr.record(kind, -1, k, r.sent, r.done)
	}
	out.elapsed = last.Sub(start)
	lateP99 := quantile(late, 0.99)
	out.notes = append(out.notes, fmt.Sprintf("open loop at %.0f req/s over %d connections: %d requests; generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms",
		rate, serveConns, len(reqs), quantile(late, 0.5), lateP99, slices.Max(late)))
	if lateP99 > serveBehindMS {
		out.notes = append(out.notes, fmt.Sprintf("WARNING: the generator fell behind its schedule: 1%% of requests went out more than %.1f ms late", lateP99))
	}

	if tr != nil {
		if err := serveReplay(ctx, tr, st, reqs, roundtrips, out, want, progs); err != nil {
			return nil, err
		}
	}
	spans := tr.byName()
	hot, buildHit, runHit := spans["srv.roundtrip_hot"], spans["serve.build_hit"], spans["serve.run_hit"]
	out.layer["srv.roundtrip_hot_us"] = hot.meanUS()
	out.layer["srv.roundtrip_fresh_us"] = spans["srv.roundtrip_fresh"].meanUS()
	out.layer["srv.wire_us"] = hot.meanUS() - buildHit.meanUS() - runHit.meanUS()
	out.layer["srv.shed"] = float64(delta.Counters["srv.requests.shed"])
	out.layer["load.late_ms"] = lateP99
	out.layer["serve.build_hit_us"] = buildHit.meanUS()
	out.layer["serve.run_hit_us"] = runHit.meanUS()
	out.layer["vm.new_us"] = spans["vm.new"].meanUS()
	out.layer["vm.run_us"] = spans["vm.run"].meanUS()
	st.counts.addTo(out.layer)
	addServeCounters(out.layer, delta)
	return out, nil
}

// checkResponse compares a response with the program's checksum and
// the reference run's simulated cycles.
func checkResponse(r serveResult, want map[string][]int32, name string, ref *core.RunResult) error {
	switch {
	case r.err != nil:
		return r.err
	case r.resp.Violation != "":
		return fmt.Errorf("violation %s", r.resp.Violation)
	case r.resp.Cycles != ref.Cycles:
		return fmt.Errorf("%d cycles, the reference run took %d", r.resp.Cycles, ref.Cycles)
	}
	return checkOutput(want, name, r.resp.Output)
}

// serveReplay repeats the load in-process, from outside the server:
// each fresh request through core.Build, Engine.NewMachine and
// Artifact.RunOn, each hot one through Engine.BuildContext and
// Engine.RunContext. Each replay's spans are children of the request's
// round trip, so the round trip's self time is what the wire and the
// server's own handling added.
func serveReplay(ctx context.Context, tr *tracer, st *serveState, reqs []serveRequest, roundtrips []int, out *outcome, want map[string][]int32, progs []program) error {
	modes := strategies()
	r := newRNG(^uint64(0))
	var instrs uint64
	var runTime time.Duration
	for k, req := range reqs {
		parent := roundtrips[k]
		if parent < 0 || !(req.fresh || req.hot) {
			continue
		}
		mode := modes[req.strat]
		var res *core.RunResult
		if req.fresh {
			src := progs[req.prog].source + uniqueTag(0, k, r)
			id := tr.start("core.build", parent, k)
			art, err := core.Build(src, mode, core.Options{})
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.start("vm.new", parent, k)
			m, release, err := st.eng.NewMachine(art)
			tr.end(id)
			if err != nil {
				return err
			}
			t0 := time.Now()
			res, err = art.RunOn(m)
			t1 := time.Now()
			tr.record("vm.run", parent, k, t0, t1)
			release()
			if err != nil {
				return err
			}
			instrs += res.Stats.Instructions
			runTime += t1.Sub(t0)
		} else {
			id := tr.start("serve.build_hit", parent, k)
			art, err := st.eng.BuildContext(ctx, req.source, mode, core.Options{})
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.start("serve.run_hit", parent, k)
			res, err = st.eng.RunContext(ctx, art)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		out.attempted++
		if err := checkOutput(want, progs[req.prog].name, res.Output); err != nil {
			out.fail("replay of request %d: %v", k, err)
		}
	}
	if runTime > 0 {
		out.layer["vm.mips"] = float64(instrs) / runTime.Seconds() / 1e6
	}
	return nil
}
