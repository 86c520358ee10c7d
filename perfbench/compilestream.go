package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"cash/internal/codegen"
	"cash/internal/core"
	"cash/internal/minic"
	"cash/internal/obs"
	"cash/internal/serve"
)

// compileRequest is one build of the compile-stream workload.
type compileRequest struct {
	prog, strat, pipe int
	source            string
}

// compileStream generates the workload's request stream. Every
// (program, strategy, pipeline) triple comes once per block, in an order
// the seed shuffles, so the mix is the same for every seed. A unique
// trailing comment makes each request distinct, so every build misses
// the cache.
type compileStream struct {
	seed  uint64
	r     *rng
	i     int
	progs []program
	block []compileRequest
}

func newCompileStream(seed uint64, progs []program) *compileStream {
	s := &compileStream{seed: seed, r: newRNG(seed), progs: progs}
	for p := range progs {
		for m := range strategies() {
			for q := range pipelines {
				s.block = append(s.block, compileRequest{prog: p, strat: m, pipe: q})
			}
		}
	}
	return s
}

func (s *compileStream) next() compileRequest {
	pos := s.i % len(s.block)
	if pos == 0 {
		shuffle(s.r, len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	req := s.block[pos]
	req.source = s.progs[req.prog].source + uniqueTag(s.seed, s.i, s.r)
	s.i++
	return req
}

// compileSampleEvery keeps one built artifact in this many for the
// output check; compileSamples caps how many are run.
const (
	compileSampleEvery = 97
	compileSamples     = 12
)

type compileState struct {
	eng    *serve.Engine
	refs   map[[3]int]fingerprint
	counts codegenCounts
}

// compileSetup builds every (program, strategy, pipeline) once through
// core.Build as the reference the timed builds must reproduce, and opens
// a default Engine.
func compileSetup(progs []program) (*compileState, error) {
	st := &compileState{refs: make(map[[3]int]fingerprint)}
	var all []*core.Artifact
	for pi, passes := range pipelines {
		arts, err := referenceBuilds(progs, passes)
		if err != nil {
			return nil, err
		}
		nModes := len(strategies())
		for i, a := range arts {
			st.refs[[3]int{i / nModes, i % nModes, pi}] = fingerprintOf(a)
		}
		all = append(all, arts...)
	}
	st.counts = countCodegen(all)
	st.eng = serve.NewEngine(serve.EngineConfig{})
	return st, nil
}

// runCompileStream is a closed loop with one caller sending distinct
// Engine.BuildContext calls and running nothing; a seeded sample of the
// artifacts is run afterwards and checked against checksums.json.
func runCompileStream(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	return compileStreamRun(ctx, cfg, tr, suitePrograms())
}

func compileStreamRun(ctx context.Context, cfg config, tr *tracer, progs []program) (*outcome, error) {
	want, err := expectedOutputs()
	if err != nil {
		return nil, err
	}
	st, setups, err := timeSetups(func() (*compileState, error) { return compileSetup(progs) },
		func(s *compileState) { s.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer st.eng.Close()
	out := &outcome{setups: setups, tailQ: 0.99, layer: make(map[string]float64)}
	st.counts.addTo(out.layer)

	stream := newCompileStream(cfg.seed, progs)
	modes := strategies()
	type sample struct {
		prog int
		art  *core.Artifact
	}
	var samples []sample
	passCost := make([]time.Duration, len(codegenPasses)+1)
	passRuns := 0
	var lowerEmit time.Duration // costs[0] summed over every decomposed build
	decomposed := 0
	before := obs.Default().Snapshot()
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for time.Now().Before(deadline) {
		req := stream.next()
		out.attempted++
		opts := core.Options{Passes: pipelines[req.pipe]}
		t0 := time.Now()
		art, err := st.eng.BuildContext(ctx, req.source, modes[req.strat], opts)
		t1 := time.Now()
		lat := ms(t1.Sub(t0))
		if tr != nil {
			build := tr.record("serve.build_miss", -1, stream.i, t0, t1)
			costs, derr := decomposedBuild(tr, build, stream.i, req.source, modes[req.strat], req.pipe == 1)
			if derr != nil {
				out.fail("%s/%s: %v", progs[req.prog].name, modes[req.strat], derr)
			} else {
				lowerEmit += costs[0]
				decomposed++
			}
			if derr == nil && req.pipe == 1 {
				for k := range costs {
					passCost[k] += costs[k]
				}
				passRuns++
			}
		}
		if err != nil {
			out.fail("%s/%s: %v", progs[req.prog].name, modes[req.strat], err)
			out.ops = append(out.ops, math.Inf(1))
			continue
		}
		if fp := fingerprintOf(art); fp != st.refs[[3]int{req.prog, req.strat, req.pipe}] {
			out.fail("%s/%s pipeline %d: build differs from its reference build", progs[req.prog].name, modes[req.strat], req.pipe)
			out.ops = append(out.ops, math.Inf(1))
			continue
		}
		out.ops = append(out.ops, lat)
		out.completed++
		if (stream.i-1)%compileSampleEvery == int(cfg.seed%compileSampleEvery) && len(samples) < compileSamples {
			samples = append(samples, sample{req.prog, art})
		}
	}
	out.elapsed = time.Since(start)
	delta := obs.Default().Snapshot().Delta(before)

	for _, s := range samples {
		out.attempted++
		res, err := s.art.Run()
		if err != nil {
			out.fail("%s: run: %v", progs[s.prog].name, err)
			continue
		}
		if err := checkOutput(want, progs[s.prog].name, res.Output); err != nil {
			out.fail("%v", err)
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	out.notes = append(out.notes,
		fmt.Sprintf("closed loop, 1 caller: %d builds, %d sampled artifacts run and checked", out.completed, len(samples)),
		fmt.Sprintf("the artifact cache accounts %.1f MiB; the Go heap holds %.1f MiB", float64(delta.Gauges["serve.cache.bytes"])/(1<<20), float64(mem.HeapAlloc)/(1<<20)))

	spans := tr.byName()
	out.layer["minic.parse_us"] = spans["minic.parse"].meanUS()
	out.layer["minic.check_us"] = spans["minic.check"].meanUS()
	if decomposed > 0 {
		out.layer["codegen.lower_emit_us"] = float64(lowerEmit.Microseconds()) / float64(decomposed)
	}
	if passRuns > 0 {
		for k, p := range codegenPasses {
			out.layer["codegen.pass."+p+"_us"] = float64((passCost[k+1] - passCost[k]).Microseconds()) / float64(passRuns)
		}
	}
	out.layer["serve.build_miss_us"] = spans["serve.build_miss"].meanUS()
	addServeCounters(out.layer, delta)
	return out, nil
}

// codegenPasses is the all-passes pipeline in execution order.
var codegenPasses = pipelines[1]

// decomposedBuild repeats one build through its public steps:
// minic.Parse, minic.Check, and codegen.CompileIR once per prefix of the
// pipeline, so each pass's cost is the difference between consecutive
// prefixes; costs[k] is the compile with the first k passes. The steps
// the Engine's build itself performs (parse, check, the full-pipeline
// compile) are recorded as children of its span, so that span's self
// time is the Engine's own share. The shorter prefixes exist only in the
// traced run, so their spans get a layer of their own, codegen-prefix,
// and stay out of codegen's self time.
func decomposedBuild(tr *tracer, build, req int, source string, mode core.Mode, withPasses bool) ([]time.Duration, error) {
	id := tr.start("minic.parse", build, req)
	ast, err := minic.Parse(source)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("minic.check", build, req)
	err = minic.Check(ast)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	info, ok := codegen.StrategyByName(string(mode))
	if !ok {
		return nil, codegen.UnknownStrategyError(string(mode))
	}
	prefixes := 1
	if withPasses {
		prefixes = len(codegenPasses) + 1
	}
	costs := make([]time.Duration, prefixes)
	for k := 0; k < prefixes; k++ {
		name, parent := "codegen.compile", build
		if k < prefixes-1 {
			name, parent = fmt.Sprintf("codegen-prefix.%d", k), -1
		}
		t0 := time.Now()
		_, _, err := codegen.CompileIR(ast, codegen.Config{Mode: info.Mode, Passes: codegenPasses[:k]})
		t1 := time.Now()
		tr.record(name, parent, req, t0, t1)
		costs[k] = t1.Sub(t0)
		if err != nil {
			return nil, err
		}
	}
	return costs, nil
}

// addServeCounters reports the Engine's cache, pool and admission
// counters over a timed phase.
func addServeCounters(layer map[string]float64, d obs.Snapshot) {
	c := d.Counters
	layer["serve.cache_hit_ratio"] = ratio(c["serve.cache.hits"], c["serve.cache.hits"]+c["serve.cache.misses"])
	layer["serve.run_hit_ratio"] = ratio(c["serve.cache.run_hits"], c["serve.cache.run_hits"]+c["core.runs"])
	layer["serve.cache_evictions"] = float64(c["serve.cache.evictions"])
	layer["serve.admission_waits"] = float64(c["serve.admission.waits"])
	layer["serve.pool_recycle_ratio"] = ratio(c["serve.pool.recycled"], c["serve.pool.recycled"]+c["serve.pool.fresh"])
	layer["vm.sim_instructions"] = float64(c["vm.sim.instructions"])
	layer["vm.step_limit_faults"] = float64(c["vm.faults.step_limit"])
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
