package vm_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cash/internal/core"
	"cash/internal/vm"
	"cash/internal/workload"
)

func mustBuild(t *testing.T, src string, mode core.Mode, opts core.Options) *core.Artifact {
	t.Helper()
	art, err := core.Build(src, mode, opts)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// runArt executes an artifact on a fresh machine, faults as errors.
func runArt(t *testing.T, art *core.Artifact, extra ...vm.Option) (*vm.Result, error) {
	t.Helper()
	m, err := art.NewMachine(extra...)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

// TestLoopHeadsMatchBackedges pins that tier 2 finds the loops the
// compiler lowered. Over the suite programs under every strategy, with
// and without the pass pipeline, the targets of the jumps codegen
// notes as loop back-edges are exactly the heads of the regions tier 2
// derives, each head has one noted back-edge and its region ends there,
// and every head has a compiled trace.
func TestLoopHeadsMatchBackedges(t *testing.T) {
	progs := append(workload.All(), workload.RangeKernels()...)
	progs = append(progs, workload.StencilKernels()...)
	for _, w := range progs {
		for _, name := range core.StrategyNames() {
			for _, passes := range [][]string{nil, {"rce", "hoist", "affine", "chop"}} {
				label := w.Name + "/" + name + "/" + strings.Join(passes, ",")
				p := mustBuild(t, w.Source, core.Mode(name), core.Options{Passes: passes}).Program
				backedge := map[int]int{} // loop head -> its noted back-edge
				for j, in := range p.Instrs {
					if in.Note != vm.NoteLoopBackedge && in.Note != vm.NoteSpilledBackedge {
						continue
					}
					if k, dup := backedge[in.Target]; dup {
						t.Fatalf("%s: head %d has back-edges at %d and %d", label, in.Target, k, j)
					}
					backedge[in.Target] = j
				}
				regions := vm.Loops(p)
				if len(regions) != len(backedge) {
					t.Fatalf("%s: %d regions for %d noted back-edges", label, len(regions), len(backedge))
				}
				for _, r := range regions {
					j, ok := backedge[r.Start]
					if !ok {
						t.Fatalf("%s: region %s @%d has no noted back-edge", label, r.Name, r.Start)
					}
					if r.End != j+1 {
						t.Fatalf("%s: region %s @%d ends at %d, its back-edge is %d", label, r.Name, r.Start, r.End, j)
					}
					if !vm.TraceAt(p, r.Start) {
						t.Fatalf("%s: no trace at the head of region %s @%d", label, r.Name, r.Start)
					}
				}
			}
		}
	}
}

// TestTier2EveryHead pins that execution is correct with any trace
// heads at all, on heads the code does not imply. Four region sets put
// a trace head at every even, then every odd instruction: first each
// running to the end of the program, then each two instructions long.
// Long traces always run a compare and its jump together; the
// two-instruction traces split every compare from its jump on one of
// the parities, so the compare runs unfused (uGen) and the jump heads
// the next trace on its own. Every run must equal step execution, and
// the long sets' runs together must retire at least 99% of their
// instructions in traces.
func TestTier2EveryHead(t *testing.T) {
	var retired, total uint64
	progs := append(workload.RangeKernels(), workload.NetworkApps()...)
	progs = append(progs, workload.Smooth(32, 2), workload.Wave1D(24, 3))
	for _, w := range progs {
		for _, mode := range []core.Mode{core.ModeGCC, core.ModeBCC, core.ModeCash, core.ModeMPX} {
			for set := 0; set < 4; set++ {
				long := set < 2
				art := mustBuild(t, w.Source, mode, core.Options{})
				p := art.Program
				var heads []vm.Region
				for i := set % 2; i < len(p.Instrs); i += 2 {
					end := len(p.Instrs)
					if !long {
						end = min(i+2, end)
					}
					heads = append(heads, vm.Region{Name: "head", Start: i, End: end})
				}
				vm.BuildTable(p, heads)
				label := fmt.Sprintf("%s/%v/set %d", w.Name, mode, set)
				want, werr := runArt(t, art, vm.WithoutTier2())
				got, gerr := runArt(t, art)
				if fmt.Sprint(werr) != fmt.Sprint(gerr) {
					t.Fatalf("%s: errors differ\n step:  %v\n tier2: %v", label, werr, gerr)
				}
				c := *got
				c.SB = nil
				if !reflect.DeepEqual(*want, c) {
					t.Fatalf("%s: results differ\n step:  %+v\n tier2: %+v", label, *want, c)
				}
				if long {
					total += got.Stats.Instructions
					if got.SB != nil {
						retired += got.SB.InstrsRetired
					}
				}
			}
		}
	}
	if retired*100 < total*99 {
		t.Fatalf("%d of %d instructions retired in long traces, want at least 99%%", retired, total)
	}
}
