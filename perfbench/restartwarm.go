package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"cash/internal/core"
	"cash/internal/obs"
	"cash/internal/serve"
	"cash/internal/store"
)

// restartState is one populated store directory and what the cold
// engine that wrote it produced.
type restartState struct {
	dir string
	// builds and runs are the cold results, in the order the timed phase
	// requests them.
	builds []restartBuild
	runs   []restartRun
	writes uint64 // store.disk.writes of the cold pass
	counts codegenCounts
	// side is a second store holding the same artifacts and run outcomes
	// under the benchmark's own keys, written in traced runs only, so the
	// trace can time store.Dir and the core codecs on their own.
	side string
}

type restartBuild struct {
	name   string
	mode   core.Mode
	source string
	fp     fingerprint
}

type restartRun struct {
	build int // index into builds
	prog  string
	res   *core.RunResult
}

// restartOrder is the seeded order the timed phase requests entries in:
// every suite program under every strategy, then the runs of the small
// programs.
func restartOrder(seed uint64, suite, small []program) ([]restartBuild, []restartRun) {
	var builds []restartBuild
	index := make(map[string]int)
	for _, p := range suite {
		for _, mode := range strategies() {
			index[p.name+"/"+string(mode)] = len(builds)
			builds = append(builds, restartBuild{name: p.name, mode: mode, source: p.source})
		}
	}
	var runs []restartRun
	for _, p := range small {
		for _, mode := range strategies() {
			runs = append(runs, restartRun{build: index[p.name+"/"+string(mode)], prog: p.name})
		}
	}
	r := newRNG(seed)
	shuffle(r, len(builds), func(i, j int) {
		builds[i], builds[j] = builds[j], builds[i]
		for k := range runs {
			switch runs[k].build {
			case i:
				runs[k].build = j
			case j:
				runs[k].build = i
			}
		}
	})
	shuffle(r, len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	return builds, runs
}

// restartSetup writes a fresh store: a cold engine builds every entry
// and runs the small programs, writing each through to disk.
// A failed set-up removes what it wrote.
func restartSetup(ctx context.Context, cfg config, tr *tracer, suite, small []program, want map[string][]int32) (_ *restartState, err error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "store-")
	if err != nil {
		return nil, err
	}
	st := &restartState{dir: dir}
	defer func() {
		if err != nil {
			restartTeardown(st)
		}
	}()
	st.builds, st.runs = restartOrder(cfg.seed, suite, small)
	before := obs.Default().Snapshot()
	eng, err := serve.Open(serve.EngineConfig{StoreDir: dir, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	arts := make([]*core.Artifact, len(st.builds))
	for i := range st.builds {
		b := &st.builds[i]
		arts[i], err = eng.BuildContext(ctx, b.source, b.mode, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", b.name, b.mode, err)
		}
		b.fp = fingerprintOf(arts[i])
	}
	st.counts = countCodegen(arts)
	for i := range st.runs {
		r := &st.runs[i]
		r.res, err = eng.RunContext(ctx, arts[r.build])
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", r.prog, err)
		}
		if err := checkOutput(want, r.prog, r.res.Output); err != nil {
			return nil, err
		}
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	st.writes = obs.Default().Snapshot().Delta(before).Counters["store.disk.writes"]
	if tr != nil {
		st.side = dir + "-side"
		if err := writeSideStore(tr, st, arts); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// writeSideStore encodes and stores every entry again under the
// benchmark's own keys, timing core's encoders and store.Dir.Put.
func writeSideStore(tr *tracer, st *restartState, arts []*core.Artifact) error {
	d, err := store.Open(st.side, store.Options{})
	if err != nil {
		return err
	}
	defer d.Close()
	for i, a := range arts {
		id := tr.start("core.encode_artifact", -1, i)
		data, ok, err := core.EncodeArtifact(a)
		tr.end(id)
		if err != nil || !ok {
			return fmt.Errorf("encode %s/%s: ok=%v err=%v", st.builds[i].name, st.builds[i].mode, ok, err)
		}
		id = tr.start("store.put", -1, i)
		err = d.Put(fmt.Sprintf("a:%d", i), data)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	for i, r := range st.runs {
		id := tr.start("core.encode_run", -1, i)
		data, ok := core.EncodeRunOutcome(r.res, nil)
		tr.end(id)
		if !ok {
			return fmt.Errorf("encode run of %s", r.prog)
		}
		id = tr.start("store.put", -1, i)
		err := d.Put(fmt.Sprintf("r:%d", i), data)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func restartTeardown(st *restartState) {
	os.RemoveAll(st.dir)
	if st.side != "" {
		os.RemoveAll(st.side)
	}
}

// runRestartWarm repeatedly opens a new Engine on the populated store
// and serves every build and run from disk. Each restart is one
// operation; its results must equal the cold ones and no lookup may miss.
func runRestartWarm(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	return restartWarmRun(ctx, cfg, tr, suitePrograms(), smallPrograms())
}

func restartWarmRun(ctx context.Context, cfg config, tr *tracer, suite, small []program) (*outcome, error) {
	want, err := expectedOutputs()
	if err != nil {
		return nil, err
	}
	st, setups, err := timeSetups(func() (*restartState, error) {
		return restartSetup(ctx, cfg, tr, suite, small, want)
	}, restartTeardown)
	if err != nil {
		return nil, err
	}
	defer restartTeardown(st)
	out := &outcome{setups: setups, tailQ: 0.9, layer: make(map[string]float64)}

	engCfg := serve.EngineConfig{StoreDir: st.dir, Parallelism: 1}
	arts := make([]*core.Artifact, len(st.builds))
	res := make([]*core.RunResult, len(st.runs))
	buildSpans := make([]int, len(st.builds))
	runSpans := make([]int, len(st.runs))
	restarts := 0
	before := obs.Default().Snapshot()
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	for time.Now().Before(deadline) {
		restarts++
		out.attempted += len(st.builds) + len(st.runs)
		root := tr.start("perfbench.restart", -1, restarts)
		t0 := time.Now()
		id := tr.start("serve.open", root, restarts)
		eng, err := serve.Open(engCfg)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		for i, b := range st.builds {
			buildSpans[i] = tr.start("serve.build_disk", root, restarts)
			arts[i], err = eng.BuildContext(ctx, b.source, b.mode, core.Options{})
			tr.end(buildSpans[i])
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", b.name, b.mode, err)
			}
		}
		for i, r := range st.runs {
			runSpans[i] = tr.start("serve.run_disk", root, restarts)
			res[i], err = eng.RunContext(ctx, arts[r.build])
			tr.end(runSpans[i])
			if err != nil {
				return nil, fmt.Errorf("%s: run: %w", r.prog, err)
			}
		}
		id = tr.start("serve.close", root, restarts)
		err = eng.Close()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		lat := ms(time.Since(t0))
		tr.end(root)

		ok := true
		for i, b := range st.builds {
			if fingerprintOf(arts[i]) != b.fp {
				ok = false
				out.fail("restart %d: %s/%s differs from its cold build", restarts, b.name, b.mode)
			}
		}
		for i, r := range st.runs {
			if err := checkOutput(want, r.prog, res[i].Output); err != nil || res[i].Cycles != r.res.Cycles {
				ok = false
				out.fail("restart %d: run of %s: %d cycles and output %v, cold run: %d cycles", restarts, r.prog, res[i].Cycles, res[i].Output, r.res.Cycles)
			}
		}
		if ok {
			out.ops = append(out.ops, lat)
			out.completed++
		} else {
			out.ops = append(out.ops, math.Inf(1))
		}
		if tr != nil {
			if err := readSideStore(tr, st, restarts, buildSpans, runSpans); err != nil {
				return nil, err
			}
		}
	}
	out.elapsed = time.Since(start)
	delta := obs.Default().Snapshot().Delta(before)
	if misses := delta.Counters["store.disk.misses"]; misses != 0 {
		out.fail("the timed phase missed the disk store %d times", misses)
	}
	out.notes = append(out.notes, fmt.Sprintf("closed loop, 1 caller: %d restarts of %d builds and %d runs each, %d entries written by the cold pass",
		restarts, len(st.builds), len(st.runs), st.writes))

	spans := tr.byName()
	out.layer["store.open_ms"] = spans["store.open"].meanUS() / 1000
	out.layer["store.get_us"] = spans["store.get"].meanUS()
	out.layer["store.put_us"] = spans["store.put"].meanUS()
	out.layer["core.decode_artifact_us"] = spans["core.decode_artifact"].meanUS()
	out.layer["core.decode_run_us"] = spans["core.decode_run"].meanUS()
	out.layer["core.encode_artifact_us"] = spans["core.encode_artifact"].meanUS()
	out.layer["store.disk_hits"] = float64(delta.Counters["store.disk.hits"]) / float64(restarts)
	out.layer["store.disk_writes"] = float64(st.writes)
	st.counts.addTo(out.layer)
	addServeCounters(out.layer, delta)
	return out, nil
}

// readSideStore repeats one restart's disk reads from outside the
// Engine: store.Open, then Dir.Get and the matching core decoder for
// every entry. Each read is a child of the Engine call that served the
// same entry, so that call's self time is the Engine's own share.
func readSideStore(tr *tracer, st *restartState, restart int, buildSpans, runSpans []int) error {
	id := tr.start("store.open", -1, restart)
	d, err := store.Open(st.side, store.Options{})
	tr.end(id)
	if err != nil {
		return err
	}
	defer d.Close()
	get := func(key string, parent int) ([]byte, error) {
		id := tr.start("store.get", parent, restart)
		data, ok := d.Get(key)
		tr.end(id)
		if !ok {
			return nil, fmt.Errorf("side store: %s missing", key)
		}
		return data, nil
	}
	for i := range st.builds {
		data, err := get(fmt.Sprintf("a:%d", i), buildSpans[i])
		if err != nil {
			return err
		}
		id := tr.start("core.decode_artifact", buildSpans[i], restart)
		_, err = core.DecodeArtifact(data)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	for i := range st.runs {
		data, err := get(fmt.Sprintf("r:%d", i), runSpans[i])
		if err != nil {
			return err
		}
		id := tr.start("core.decode_run", runSpans[i], restart)
		_, _, err = core.DecodeRunOutcome(data)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}
