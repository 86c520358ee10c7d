package codegen

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"cash/internal/ir"
	"cash/internal/minic"
	"cash/internal/vm"
	"cash/internal/workload"
)

// The pinned-codegen golden records, for every shipped program under
// every strategy, segment-register budget and pass subset, a short hash
// of the generated code, of the static stats and of the optimized IR.
// The simulated-number goldens only notice a code change that moves a
// cycle count; this one notices any change in the emitted program.
// Regenerate with: go test ./internal/codegen -run TestPinnedCodegen -update

var updatePinned = flag.Bool("update", false, "rewrite testdata/pinned_codegen.txt from the current compiler")

const pinnedGolden = "testdata/pinned_codegen.txt"

// pinnedPrograms is every shipped program: the paper suite, the range
// kernels and the stencil kernels.
func pinnedPrograms() []workload.Workload {
	ws := append(workload.All(), workload.RangeKernels()...)
	return append(ws, workload.StencilKernels()...)
}

// pinnedTarget is one strategy and segment-register budget.
type pinnedTarget struct {
	name string
	cfg  Config
}

var pinnedTargets = []pinnedTarget{
	{"gcc", Config{Mode: vm.ModeGCC}},
	{"bcc", Config{Mode: vm.ModeBCC}},
	{"mpx", Config{Mode: vm.ModeMPX}},
	{"cash2", Config{Mode: vm.ModeCash, SegRegs: DefaultSegRegs[:2]}},
	{"cash3", Config{Mode: vm.ModeCash}},
	{"cash4", Config{Mode: vm.ModeCash, SegRegs: SegRegsWithSS}},
}

// passSubset returns the passes whose registry positions are set in
// mask, in registry order.
func passSubset(mask int) []string {
	var out []string
	for i, name := range PassNames() {
		if mask&(1<<i) != 0 {
			out = append(out, name)
		}
	}
	return out
}

// pinnedBuild is what the tests below read from one build.
type pinnedBuild struct {
	line   string            // the golden line
	checks map[int]string    // each check id's run: its opcodes in layout order
	stats  map[string]uint64 // the static stats
}

var (
	pinnedOnce   sync.Once
	pinnedBuilds []pinnedBuild
	pinnedErr    error
)

// buildPinned compiles every program under every target and pass subset
// once per test binary; build (program, target, mask) sits at index
// (program*len(pinnedTargets)+target)<<len(PassNames()) + mask.
func buildPinned(t *testing.T) []pinnedBuild {
	t.Helper()
	pinnedOnce.Do(func() {
		for _, w := range pinnedPrograms() {
			for _, tg := range pinnedTargets {
				for mask := 0; mask < 1<<len(PassNames()); mask++ {
					cfg := tg.cfg
					cfg.Passes = passSubset(mask)
					p, mod, err := compileSource(w.Source, cfg)
					if err != nil {
						pinnedErr = fmt.Errorf("%s %s %v: %w", w.Name, tg.name, cfg.Passes, err)
						return
					}
					pinnedBuilds = append(pinnedBuilds, pinnedBuild{
						line:   pinnedLine(w, tg, cfg.Passes, p, mod),
						checks: checkOps(mod),
						stats:  p.Stats,
					})
				}
			}
		}
	})
	if pinnedErr != nil {
		t.Fatal(pinnedErr)
	}
	return pinnedBuilds
}

// compileSource parses, checks and compiles src afresh (lowering writes
// addresses into the AST, so every build gets its own).
func compileSource(src string, cfg Config) (*vm.Program, *ir.Module, error) {
	prog, err := minic.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	if err := minic.Check(prog); err != nil {
		return nil, nil, err
	}
	return CompileIR(prog, cfg)
}

// checkOps renders each check id's instructions as their opcodes.
func checkOps(mod *ir.Module) map[int]string {
	ops := make(map[int]string)
	for _, f := range mod.Frags {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if id := b.Instrs[i].CheckID; id != 0 {
					ops[id] += b.Instrs[i].Op.String() + " "
				}
			}
		}
	}
	return ops
}

func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:6])
}

// pinnedLine renders one build: program, target and passes, then the
// hashes of the code (listing and data image), the stats and the IR.
func pinnedLine(w workload.Workload, tg pinnedTarget, passes []string, p *vm.Program, mod *ir.Module) string {
	var code strings.Builder
	code.WriteString(p.Disassemble())
	for _, r := range p.Data {
		fmt.Fprintf(&code, "data %d %x\n", r.Off, r.Bytes)
	}
	keys := make([]string, 0, len(p.Stats))
	for k := range p.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var stats strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&stats, "%s=%d\n", k, p.Stats[k])
	}
	name := "none"
	if len(passes) > 0 {
		name = strings.Join(passes, ",")
	}
	return fmt.Sprintf("%s %s %s code=%s stats=%s ir=%s", w.Name, tg.name, name,
		shortHash(code.String()), shortHash(stats.String()), shortHash(mod.Dump()))
}

func TestPinnedCodegen(t *testing.T) {
	var got []string
	for _, b := range buildPinned(t) {
		got = append(got, b.line)
	}
	if *updatePinned {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinnedGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d builds, golden has %d lines", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("generated code moved:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d builds moved in all", bad)
	}
}

// TestPassCountersMatchDeletions holds each pass to its counter. For a
// pass X and a set P of the passes that run before it, compare the
// build with P against the build with P and X: the check ids that have
// instructions after P but none after X must number exactly X's
// counter, every surviving id keeps its whole instruction run, and only
// hoist and affine add ids, their preheader checks, numbered above
// every check of the P build. sw_checks_static moves by the difference.
func TestPassCountersMatchDeletions(t *testing.T) {
	counter := map[string]string{
		"rce": StatChecksElim, "hoist": StatChecksHoisted,
		"affine": StatChecksAffine, "chop": StatChecksChop,
	}
	builds := buildPinned(t)
	n := 1 << len(PassNames())
	for pi, w := range pinnedPrograms() {
		for ti, tg := range pinnedTargets {
			set := builds[(pi*len(pinnedTargets)+ti)*n:][:n]
			for xi, x := range PassNames() {
				for mask := 0; mask < 1<<xi; mask++ {
					before, after := set[mask], set[mask|1<<xi]
					where := fmt.Sprintf("%s %s %v + %s", w.Name, tg.name, passSubset(mask), x)
					removed, maxBefore := 0, 0
					for id, ops := range before.checks {
						maxBefore = max(maxBefore, id)
						got, ok := after.checks[id]
						if !ok {
							removed++
						} else if got != ops {
							t.Errorf("%s: check %d changed its run: %q -> %q", where, id, ops, got)
						}
					}
					added := 0
					for id := range after.checks {
						if _, ok := before.checks[id]; ok {
							continue
						}
						added++
						if (x != "hoist" && x != "affine") || id <= maxBefore {
							t.Errorf("%s: unexpected new check %d", where, id)
						}
					}
					if got := after.stats[counter[x]]; got != uint64(removed) {
						t.Errorf("%s: %s = %d, but %d checks were deleted", where, counter[x], got, removed)
					}
					sw0, sw1 := before.stats[StatSWChecks], after.stats[StatSWChecks]
					if sw1 != sw0-uint64(removed)+uint64(added) {
						t.Errorf("%s: %s %d -> %d with %d deleted and %d added", where, StatSWChecks, sw0, sw1, removed, added)
					}
				}
			}
		}
	}
}
