package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cash/internal/codegen"
	"cash/internal/vm"
	"cash/internal/workload"
)

func mustBuildArt(t *testing.T, src string, mode Mode, opts Options) *Artifact {
	t.Helper()
	art, err := Build(src, mode, opts)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func mustRunKey(t *testing.T, label string, art *Artifact) string {
	t.Helper()
	key := art.RunKey()
	if len(key) != 64 {
		t.Fatalf("%s: run key %q; want a SHA-256 digest", label, key)
	}
	return key
}

// rehashed returns a's program as a fresh artifact, whose run keys come
// from encoding the program rather than from a's digest.
func rehashed(a *Artifact) *Artifact {
	return &Artifact{Mode: a.Mode, Program: a.Program, vmMode: a.vmMode, opts: a.opts, digest: &programDigest{}}
}

// oracleRun is the run options of an oracle run.
var oracleRun = Options{Oracle: true}

// TestRunKeyRoundtrip pins that a decoded artifact carries the run keys
// of the artifact it was encoded from, for a default and an oracle run:
// DecodeArtifact hashes the bytes it decoded, a built artifact hashes
// its program's encoding, and the two must agree for every suite
// program under every strategy, with no passes and with all of them. A
// restarted engine finds its predecessor's run outcomes only if they do.
func TestRunKeyRoundtrip(t *testing.T) {
	for _, w := range codecWorkloads() {
		for _, name := range StrategyNames() {
			for _, passes := range [][]string{nil, allPasses} {
				label := w.Name + "/" + name
				if passes != nil {
					label += "/passes"
				}
				art := mustBuildArt(t, w.Source, Mode(name), Options{Passes: passes})
				want := mustRunKey(t, label, art)
				data, ok, err := EncodeArtifact(art)
				if err != nil || !ok {
					t.Fatalf("%s: encode: ok=%v err=%v", label, ok, err)
				}
				back, err := DecodeArtifact(data)
				if err != nil {
					t.Fatalf("%s: decode: %v", label, err)
				}
				if got := mustRunKey(t, label, back); got != want {
					t.Fatalf("%s: decoded run key %s, built %s", label, got, want)
				}
				if got := rehashed(back).RunKey(); got != want {
					t.Fatalf("%s: decoded artifact re-hashes to %s, want %s", label, got, want)
				}
				if got, want := back.WithRun(oracleRun).RunKey(), art.WithRun(oracleRun).RunKey(); got != want {
					t.Fatalf("%s: decoded oracle run key %s, built %s", label, got, want)
				}
			}
		}
	}
}

// Two loops over at most two arrays each, and one loop over three.
const (
	twoArrayLoops = `
int a[8];
int b[8];
void main() {
	int s = 0;
	for (int i = 0; i < 8; i++) { a[i] = i; b[i] = a[i] * 2; }
	for (int i = 0; i < 8; i++) s += b[i];
	printi(s);
}`
	threeArrayLoop = `
int a[8];
int b[8];
int c[8];
void main() {
	for (int i = 0; i < 8; i++) { a[i] = i; b[i] = a[i] * 2; c[i] = b[i]; }
	printi(c[7]);
}`
)

// TestRunKeySharing pins which builds share a run key. Builds whose
// programs and run options are identical share it although their build
// requests differ; a change to any run option separates them.
func TestRunKeySharing(t *testing.T) {
	keyOf := func(src string, mode Mode, opts Options) string {
		return mustRunKey(t, string(mode), mustBuildArt(t, src, mode, opts))
	}
	key := func(mode Mode, opts Options) string { return keyOf(twoArrayLoops, mode, opts) }
	same := []struct {
		name string
		mode Mode
		a, b Options
	}{
		{"gcc SegRegs 2/3", ModeGCC, Options{SegRegs: 2}, Options{SegRegs: 3}},
		{"bcc SegRegs 2/3", ModeBCC, Options{SegRegs: 2}, Options{SegRegs: 3}},
		{"cash SegRegs 2/3", ModeCash, Options{SegRegs: 2}, Options{SegRegs: 3}},
		{"cash SegRegs 0/3", ModeCash, Options{}, Options{SegRegs: 3}},
		{"default step limit", ModeCash, Options{}, Options{StepLimit: vm.DefaultStepLimit}},
	}
	for _, c := range same {
		if ka, kb := key(c.mode, c.a), key(c.mode, c.b); ka != kb {
			t.Errorf("%s: run keys differ: %s vs %s", c.name, ka, kb)
		}
	}
	// Cash marks the back-edge of a loop over more arrays than segment
	// registers, for the spilled-iteration count (Tables 4 and 7), and a
	// budget of 4 moves stack references off SS, so there the budget
	// changes a cash program. gcc ignores the budget.
	if keyOf(threeArrayLoop, ModeCash, Options{SegRegs: 2}) == keyOf(threeArrayLoop, ModeCash, Options{}) {
		t.Error("cash builds with a spilled loop share a run key across register budgets")
	}
	if key(ModeCash, Options{SegRegs: 4}) == key(ModeCash, Options{}) {
		t.Error("cash builds share a run key across register budgets 3 and 4")
	}
	for _, regs := range []int{2, 4} {
		if keyOf(threeArrayLoop, ModeGCC, Options{SegRegs: regs}) != keyOf(threeArrayLoop, ModeGCC, Options{}) {
			t.Errorf("gcc builds at register budgets %d and 3 have distinct run keys", regs)
		}
	}
	base := key(ModeCash, Options{})
	for name, opts := range map[string]Options{
		"StepLimit":       {StepLimit: 1 << 20},
		"WithoutCallGate": {WithoutCallGate: true},
		"ElectricFence":   {ElectricFence: true},
		"StepOnly":        {StepOnly: true},
		"Oracle":          oracleRun,
	} {
		if key(ModeCash, opts) == base {
			t.Errorf("%s: shares the default build's run key", name)
		}
	}
	if key(ModeGCC, Options{}) == key(ModeBCC, Options{}) {
		t.Error("gcc and bcc builds share a run key")
	}
	if key(ModeGCC, Options{SegRegs: 2, Oracle: true}) != key(ModeGCC, oracleRun) {
		t.Error("oracle runs of one program have distinct run keys")
	}
}

// TestRunKeySiteTable pins that only an oracle run's key covers the
// site table: the table is the oracle's input alone, so default runs
// of programs that differ only there share a key, as they did before
// every build recorded one.
func TestRunKeySiteTable(t *testing.T) {
	art := mustBuildArt(t, twoArrayLoops, ModeGCC, Options{})
	p := copyProgram(t, art)
	p.Sites.Sites = p.Sites.Sites[1:]
	other := &Artifact{Mode: art.Mode, Program: p, vmMode: art.vmMode, opts: art.opts, digest: &programDigest{}}
	if other.RunKey() != art.RunKey() {
		t.Error("the site table changes a default run's key")
	}
	if other.WithRun(oracleRun).RunKey() == art.WithRun(oracleRun).RunKey() {
		t.Error("the site table does not change an oracle run's key")
	}
}

// TestWithRun pins the views: a request's own run part returns the
// artifact itself, another run part a view that shares the program and
// its digest and keeps the build options, and a view's build part is
// ignored.
func TestWithRun(t *testing.T) {
	art := mustBuildArt(t, twoArrayLoops, ModeCash, Options{SegRegs: 2})
	if art.WithRun(Options{SegRegs: 4, Passes: allPasses}) != art {
		t.Error("WithRun of the artifact's own run part made a view")
	}
	v := art.WithRun(Options{ElectricFence: true, StepLimit: 1 << 20, SegRegs: 4})
	if v == art || v.Program != art.Program || v.digest != art.digest {
		t.Fatal("a view does not share the artifact's program and digest")
	}
	want := Options{SegRegs: 2, ElectricFence: true, StepLimit: 1 << 20}
	if !reflect.DeepEqual(v.Options(), want) {
		t.Errorf("view options %+v, want %+v", v.Options(), want)
	}
	if v.WithRun(Options{}).RunKey() != art.RunKey() || v.RunKey() == art.RunKey() {
		t.Error("view run keys do not follow their run options")
	}
}

// TestSegRegsReachOnlyCash pins that the segment-register budget is an
// input of the strategies that allocate segment registers and of no
// other: under gcc, bcc and mpx, every shipped program normalises to
// one set of options and compiles to one run key at budgets 0, 2, 3 and
// 4. Unsupported budgets fail under every strategy. TestRunKeySharing
// pins that cash still reads the budget.
func TestSegRegsReachOnlyCash(t *testing.T) {
	ws := append(workload.All(), workload.RangeKernels()...)
	ws = append(ws, workload.StencilKernels()...)
	for _, n := range []int{8, 16, 32, 64} {
		ws = append(ws, workload.FFT2D(n), workload.Gaussian(n), workload.MatMul(n))
	}
	for _, info := range Strategies() {
		mode := Mode(info.Name)
		for _, regs := range []int{1, 5, -1} {
			if _, err := Build(twoArrayLoops, mode, Options{SegRegs: regs}); err == nil {
				t.Errorf("%s: budget %d builds", mode, regs)
			}
		}
		if info.UsesSegRegs != (mode == ModeCash) {
			t.Errorf("%s: UsesSegRegs = %v", mode, info.UsesSegRegs)
		}
		if info.UsesSegRegs {
			continue
		}
		for _, w := range ws {
			want := mustRunKey(t, w.Name, mustBuildArt(t, w.Source, mode, Options{}))
			for _, regs := range []int{2, 3, 4} {
				opts := Options{SegRegs: regs}
				if norm, err := NormalizeOptions(mode, opts); err != nil || !reflect.DeepEqual(norm, Options{}) {
					t.Fatalf("%s: budget %d normalises to %+v, %v; want the default options", mode, regs, norm, err)
				}
				art := mustBuildArt(t, w.Source, mode, opts)
				if got := mustRunKey(t, w.Name, art); got != want {
					t.Errorf("%s/%s: budget %d changes the run key", w.Name, mode, regs)
				}
				if art.Options().SegRegs != 0 {
					t.Errorf("%s/%s: budget %d is recorded as %d", w.Name, mode, regs, art.Options().SegRegs)
				}
			}
		}
	}
}

// TestRunKeyBoundInstrWithoutSoftwareChecks: a cash build whose
// software checks all became segment checks emits the same program with
// and without UseBoundInstr, so the two share a run key.
func TestRunKeyBoundInstrWithoutSoftwareChecks(t *testing.T) {
	shared := 0
	for _, w := range workload.Kernels() {
		art := mustBuildArt(t, w.Source, ModeCash, Options{})
		if art.Program.Stats[codegen.StatSWChecks] != 0 {
			continue
		}
		bound := mustBuildArt(t, w.Source, ModeCash, Options{UseBoundInstr: true})
		if mustRunKey(t, w.Name, bound) != mustRunKey(t, w.Name, art) {
			t.Errorf("%s: no software check, yet UseBoundInstr changed the run key", w.Name)
		}
		shared++
	}
	if shared == 0 {
		t.Fatal("no kernel compiles to a cash program without software checks")
	}
}

// TestBuildIsDeterministic pins that a build is a function of its
// source and options, which the run cache's content addressing needs.
// Every suite program, under every strategy with and without the pass
// pipeline, encodes to the same bytes on each of three builds; a
// strategy that keeps pointers in segment registers is built at
// budgets 2, 3 and 4. cjpeg at budget 4 and libc at budget 2, whose
// several outermost loops hold pointers in segment registers and get
// hoisting slots loop by loop, are built 20 times each.
func TestBuildIsDeterministic(t *testing.T) {
	same := func(label, src string, mode Mode, opts Options, builds int) {
		t.Helper()
		var first []byte
		for i := 0; i < builds; i++ {
			data, ok, err := EncodeArtifact(mustBuildArt(t, src, mode, opts))
			if err != nil || !ok {
				t.Fatalf("%s: encode: ok=%v err=%v", label, ok, err)
			}
			if i == 0 {
				first = data
			} else if !bytes.Equal(data, first) {
				t.Fatalf("%s: build %d encodes differently from build 0", label, i)
			}
		}
	}
	for _, c := range []struct {
		name    string
		segRegs int
	}{{"cjpeg", 4}, {"libc", 2}} {
		w, ok := workload.ByName(c.name)
		if !ok {
			t.Fatalf("no workload %q", c.name)
		}
		same(fmt.Sprintf("%s -segregs %d", c.name, c.segRegs), w.Source, ModeCash, Options{SegRegs: c.segRegs}, 20)
	}
	for _, info := range Strategies() {
		budgets := []int{0}
		if info.UsesSegRegs {
			budgets = []int{2, 3, 4}
		}
		for _, w := range codecWorkloads() {
			for _, passes := range [][]string{nil, allPasses} {
				for _, regs := range budgets {
					label := fmt.Sprintf("%s/%s/%s -segregs %d", w.Name, info.Name, strings.Join(passes, ","), regs)
					same(label, w.Source, Mode(info.Name), Options{SegRegs: regs, Passes: passes}, 3)
				}
			}
		}
	}
}
