package core

import (
	"bytes"
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
	key, ok := art.RunKey()
	if !ok || len(key) != 64 {
		t.Fatalf("%s: run key %q, ok=%v; want a SHA-256 digest", label, key, ok)
	}
	return key
}

// TestRunKeyRoundtrip pins that a decoded artifact carries the run key
// of the artifact it was encoded from: DecodeArtifact hashes the bytes
// it decoded, a built artifact hashes its program's encoding, and the
// two must agree for every suite program under every strategy, with no
// passes and with all of them. A restarted engine finds its
// predecessor's run outcomes only if they do.
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
				if got := back.digest(); got != want {
					t.Fatalf("%s: decoded artifact re-hashes to %s, want %s", label, got, want)
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
// programs and machine options are identical share it although their
// build requests differ; a change to any option that reaches vm.New
// separates them; oracle builds have none.
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
	// Every strategy marks the back-edge of a loop over more arrays than
	// segment registers, for the spilled-iteration count (Tables 4 and
	// 7), so there the register budget changes a gcc program too; and a
	// budget of 4 moves stack references off SS under every strategy.
	for _, mode := range []Mode{ModeGCC, ModeCash} {
		if keyOf(threeArrayLoop, mode, Options{SegRegs: 2}) == keyOf(threeArrayLoop, mode, Options{}) {
			t.Errorf("%s builds with a spilled loop share a run key across register budgets", mode)
		}
		if key(mode, Options{SegRegs: 4}) == key(mode, Options{}) {
			t.Errorf("%s builds share a run key across register budgets 3 and 4", mode)
		}
	}
	base := key(ModeCash, Options{})
	for name, opts := range map[string]Options{
		"StepLimit":       {StepLimit: 1 << 20},
		"WithoutCallGate": {WithoutCallGate: true},
		"ElectricFence":   {ElectricFence: true},
		"StepOnly":        {StepOnly: true},
	} {
		if key(ModeCash, opts) == base {
			t.Errorf("%s: shares the default build's run key", name)
		}
	}
	if key(ModeGCC, Options{}) == key(ModeBCC, Options{}) {
		t.Error("gcc and bcc builds share a run key")
	}
	oracle := mustBuildArt(t, twoArrayLoops, ModeCash, Options{Oracle: true})
	if k, ok := oracle.RunKey(); ok || k != "" {
		t.Errorf("oracle build has run key %q", k)
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
// source and options: repeated builds of programs with several
// outermost loops holding pointers in segment registers — whose
// hoisting slots the frame layout assigns loop by loop — encode to the
// same bytes every time.
func TestBuildIsDeterministic(t *testing.T) {
	for _, c := range []struct {
		name    string
		segRegs int
	}{{"cjpeg", 4}, {"libc", 2}} {
		w, ok := workload.ByName(c.name)
		if !ok {
			t.Fatalf("no workload %q", c.name)
		}
		var first []byte
		for i := 0; i < 20; i++ {
			data, ok, err := EncodeArtifact(mustBuildArt(t, w.Source, ModeCash, Options{SegRegs: c.segRegs}))
			if err != nil || !ok {
				t.Fatalf("%s: encode: ok=%v err=%v", c.name, ok, err)
			}
			if i == 0 {
				first = data
			} else if !bytes.Equal(data, first) {
				t.Fatalf("%s -segregs %d: build %d encodes differently from build 0", c.name, c.segRegs, i)
			}
		}
	}
}
