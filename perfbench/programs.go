package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"

	"cash/internal/core"
	"cash/internal/workload"
)

// program is one mini-C input of the benchmark.
type program struct {
	name   string
	source string
}

// suitePrograms is every program the repository ships: the 19 paper
// workloads, the 4 range kernels and the 3 stencil kernels.
func suitePrograms() []program {
	ws := append(workload.All(), workload.RangeKernels()...)
	ws = append(ws, workload.StencilKernels()...)
	return toPrograms(ws)
}

// smallPrograms are the 12 programs whose runs take a few milliseconds:
// the six network-application handlers, the four range kernels,
// smooth256 and wave200.
func smallPrograms() []program {
	ws := append(workload.NetworkApps(), workload.RangeKernels()...)
	ws = append(ws, workload.Smooth(256, 8), workload.Wave1D(200, 12))
	return toPrograms(ws)
}

func toPrograms(ws []workload.Workload) []program {
	out := make([]program, len(ws))
	for i, w := range ws {
		out[i] = program{name: w.Name, source: w.Source}
	}
	return out
}

// strategies are the registered checking strategies, in registry order.
func strategies() []core.Mode {
	var out []core.Mode
	for _, name := range core.StrategyNames() {
		out = append(out, core.Mode(name))
	}
	return out
}

// pipelines are the two pass pipelines builds are requested with: none,
// and every pass.
var pipelines = [][]string{nil, {"rce", "hoist", "affine", "chop"}}

// expectedOutputs maps each program name to the output every strategy
// must print. For the 19 paper workloads these are internal/workload's
// golden checksums.
//
//go:embed checksums.json
var checksumsJSON []byte

func expectedOutputs() (map[string][]int32, error) {
	var m map[string][]int32
	if err := json.Unmarshal(checksumsJSON, &m); err != nil {
		return nil, fmt.Errorf("checksums.json: %w", err)
	}
	return m, nil
}

// checkOutput compares a run's output with the program's checksum.
func checkOutput(want map[string][]int32, name string, got []int32) error {
	w, ok := want[name]
	if !ok {
		return fmt.Errorf("%s: no expected checksum", name)
	}
	if !slices.Equal(w, got) {
		return fmt.Errorf("%s: output %v, want %v", name, got, w)
	}
	return nil
}

// fingerprint summarises a compiled program. A trailing comment must not
// change it, so every timed build is compared with its reference build.
type fingerprint struct {
	instrs, data int
	stats        string
}

func fingerprintOf(a *core.Artifact) fingerprint {
	stats, _ := json.Marshal(a.StaticStats()) // map keys marshal sorted
	return fingerprint{instrs: len(a.Program.Instrs), data: len(a.Program.Data), stats: string(stats)}
}

// rng is splitmix64: small, fast and stable across Go releases, so a
// seed names the same request stream forever.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle is a Fisher-Yates shuffle of n elements.
func shuffle(r *rng, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// uniqueTag is a trailing comment that makes a source distinct from
// every other request of the run, so its build misses every cache.
func uniqueTag(seed uint64, i int, r *rng) string {
	return fmt.Sprintf("\n// perfbench %d-%d-%016x\n", seed, i, r.next())
}
