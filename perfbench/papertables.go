package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cash/internal/bench"
	"cash/internal/core"
	"cash/internal/obs"
	"cash/internal/serve"
)

// paperRequests is the network-experiment size the committed golden
// was generated at.
const paperRequests = 200

const goldenAll = "internal/bench/testdata/golden_all_200.txt"

type paperState struct {
	golden string
	eng    *serve.Engine
	counts codegenCounts
}

// paperSetup reads the golden, builds the suite once under every
// strategy outside the measured Engine (the reference builds every
// workload's set-up makes), and opens a fresh Engine at parallelism 1.
func paperSetup(root string) (*paperState, error) {
	golden, err := os.ReadFile(filepath.Join(root, goldenAll))
	if err != nil {
		return nil, err
	}
	refs, err := referenceBuilds(suitePrograms(), nil)
	if err != nil {
		return nil, err
	}
	return &paperState{golden: string(golden), eng: serve.NewEngine(serve.EngineConfig{Parallelism: 1}), counts: countCodegen(refs)}, nil
}

// referenceBuilds compiles each program under every strategy with the
// given passes through core.Build.
func referenceBuilds(progs []program, passes []string) ([]*core.Artifact, error) {
	var out []*core.Artifact
	for _, p := range progs {
		for _, mode := range strategies() {
			art, err := core.Build(p.source, mode, core.Options{Passes: passes})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.name, mode, err)
			}
			out = append(out, art)
		}
	}
	return out, nil
}

// runPaperTables regenerates every table of `cashbench -all` and the
// Figure 1 trace once, cold, and diffs the output against the golden.
// The seed does not change the job: the golden pins its inputs.
func runPaperTables(ctx context.Context, cfg config, tr *tracer) (*outcome, error) {
	st, setups, err := timeSetups(func() (*paperState, error) { return paperSetup(cfg.root) },
		func(s *paperState) { s.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer st.eng.Close()
	out := &outcome{setups: setups, tailQ: 1, layer: make(map[string]float64)}

	before := obs.Default().Snapshot()
	start := time.Now()
	id := tr.start("bench.all_tables", -1, 0)
	tables, timings, err := bench.AllTablesTimedContext(ctx, st.eng, paperRequests)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	figStart := time.Now()
	id = tr.start("bench.figure1", -1, 0)
	fig, err := bench.Figure1TraceContext(ctx, st.eng)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	out.elapsed = time.Since(start)
	figElapsed := time.Since(figStart)
	delta := obs.Default().Snapshot().Delta(before)

	sections := make([]string, 0, len(tables)+1)
	for _, t := range tables {
		sections = append(sections, t.Format()+"\n")
	}
	sections = append(sections, fig)
	checkGolden(out, sections, st.golden, true)
	out.ops = []float64{ms(out.elapsed)}
	if out.failed == 0 {
		out.completed = 1
	}

	for _, t := range timings {
		out.layer["bench."+t.ID+"_s"] = float64(t.HostNS) / 1e9
	}
	out.layer["bench.figure1_s"] = figElapsed.Seconds()
	instrs := delta.Counters["vm.sim.instructions"]
	out.layer["vm.sim_instructions"] = float64(instrs)
	out.layer["vm.mips"] = float64(instrs) / out.elapsed.Seconds() / 1e6
	out.layer["vm.step_limit_faults"] = float64(delta.Counters["vm.faults.step_limit"])
	st.counts.addTo(out.layer)
	return out, nil
}

// checkGolden compares output sections with the golden: each section is
// one operation, and with whole set the concatenation must equal the
// golden byte for byte.
func checkGolden(out *outcome, sections []string, golden string, whole bool) {
	for _, s := range sections {
		out.attempted++
		if !strings.Contains(golden, s) {
			first, _, _ := strings.Cut(s, "\n")
			out.fail("section %q differs from %s", first, goldenAll)
		}
	}
	if whole && out.failed == 0 && strings.Join(sections, "") != golden {
		out.fail("output is not byte-identical to %s", goldenAll)
	}
}

// codegenCounts is the static size of a workload's reference builds:
// total instructions, and software checks the passes removed. Both are
// fixed by the program set, so a performance change must not move them.
type codegenCounts struct{ instrs, checksRemoved uint64 }

func countCodegen(arts []*core.Artifact) codegenCounts {
	var c codegenCounts
	for _, a := range arts {
		c.instrs += uint64(len(a.Program.Instrs))
		st := a.StaticStats()
		c.checksRemoved += st["sw_checks_eliminated"] + st["sw_checks_hoisted"] + st["sw_checks_affine"] + st["sw_checks_chop"]
	}
	return c
}

func (c codegenCounts) addTo(layer map[string]float64) {
	layer["codegen.instrs"] = float64(c.instrs)
	layer["codegen.checks_removed"] = float64(c.checksRemoved)
}
