package codegen

import (
	"strings"
	"testing"

	"cash/internal/minic"
	"cash/internal/vm"
	"cash/internal/x86seg"
)

// mustParse parses and type-checks a test program.
func mustParse(t *testing.T, src string) *minic.Program {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

// --- Satellite 1: configuration validation -------------------------------

func TestConfigValidation(t *testing.T) {
	src := "int main() { return 0; }"
	prog := mustParse(t, src)
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the expected error; "" means valid
	}{
		{"missing mode", Config{}, "missing mode"},
		{"unknown mode", Config{Mode: vm.Mode(99)}, "unknown mode"},
		{"duplicate segreg", Config{Mode: vm.ModeCash,
			SegRegs: []x86seg.SegReg{x86seg.ES, x86seg.ES}}, "duplicate segment register"},
		{"ss not last", Config{Mode: vm.ModeCash,
			SegRegs: []x86seg.SegReg{x86seg.SS, x86seg.ES}}, "SS must be the last"},
		{"cs rejected", Config{Mode: vm.ModeCash,
			SegRegs: []x86seg.SegReg{x86seg.CS}}, "cannot hold array segments"},
		{"unknown pass", Config{Mode: vm.ModeBCC, Passes: []string{"vectorize"}}, "unknown pass"},
		{"duplicate pass", Config{Mode: vm.ModeBCC, Passes: []string{"rce", "rce"}}, "duplicate pass"},
		{"ss last ok", Config{Mode: vm.ModeCash,
			SegRegs: []x86seg.SegReg{x86seg.ES, x86seg.FS, x86seg.GS, x86seg.SS}}, ""},
		{"passes ok", Config{Mode: vm.ModeBCC, Passes: []string{"hoist", "rce"}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := CompileIR(prog, tc.cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted (want error containing %q)", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// --- Pass behavior -------------------------------------------------------

// dupReadSrc reads a[j] twice with no intervening write: the second
// check is dominated-redundant. The loop keeps the checks in a checked
// region under Cash too (checks only instrumented inside loops).
const dupReadSrc = `
int a[8];
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 8; i++) {
		s = s + a[i];
		s = s + a[i];
	}
	printi(s);
	return 0;
}
`

func TestRCEEliminatesDuplicateRead(t *testing.T) {
	off := compile(t, dupReadSrc, Config{Mode: vm.ModeBCC})
	on := compile(t, dupReadSrc, Config{Mode: vm.ModeBCC, Passes: []string{"rce"}})
	if on.Stats[StatChecksElim] == 0 {
		t.Fatal("rce eliminated nothing on a program with a duplicate read")
	}
	if on.Stats[StatSWChecks] >= off.Stats[StatSWChecks] {
		t.Fatalf("static sw checks not reduced: %d -> %d",
			off.Stats[StatSWChecks], on.Stats[StatSWChecks])
	}
	resOff := mustRunMode(t, dupReadSrc, Config{Mode: vm.ModeBCC})
	resOn := mustRunMode(t, dupReadSrc, Config{Mode: vm.ModeBCC, Passes: []string{"rce"}})
	if len(resOff.Output) != len(resOn.Output) || resOff.Output[0] != resOn.Output[0] {
		t.Fatalf("output changed: %v vs %v", resOff.Output, resOn.Output)
	}
	if resOn.Stats.SWChecks >= resOff.Stats.SWChecks {
		t.Fatalf("dynamic sw checks not reduced: %d -> %d",
			resOff.Stats.SWChecks, resOn.Stats.SWChecks)
	}
	if resOn.Cycles >= resOff.Cycles {
		t.Fatalf("cycles not reduced: %d -> %d", resOff.Cycles, resOn.Cycles)
	}
}

// hoistSrc is a canonical counted loop over one array: hoist replaces
// the per-iteration check with two preheader endpoint checks.
const hoistSrc = `
int a[100];
int main() {
	int i;
	for (i = 0; i < 100; i++) {
		a[i] = i;
	}
	printi(a[99]);
	return 0;
}
`

func TestHoistMovesLoopChecks(t *testing.T) {
	off := compile(t, hoistSrc, Config{Mode: vm.ModeBCC})
	on := compile(t, hoistSrc, Config{Mode: vm.ModeBCC, Passes: []string{"hoist"}})
	if on.Stats[StatChecksHoisted] == 0 {
		t.Fatal("hoist moved nothing on a canonical counted loop")
	}
	resOff := mustRunMode(t, hoistSrc, Config{Mode: vm.ModeBCC})
	resOn := mustRunMode(t, hoistSrc, Config{Mode: vm.ModeBCC, Passes: []string{"hoist"}})
	if resOff.Output[0] != resOn.Output[0] {
		t.Fatalf("output changed: %v vs %v", resOff.Output, resOn.Output)
	}
	if resOn.Stats.SWChecks >= resOff.Stats.SWChecks {
		t.Fatalf("dynamic sw checks not reduced: %d -> %d",
			resOff.Stats.SWChecks, resOn.Stats.SWChecks)
	}
	if resOn.Cycles >= resOff.Cycles {
		t.Fatalf("cycles not reduced: %d -> %d", resOff.Cycles, resOn.Cycles)
	}
	// Stat keys are additive: the stat appears only when its pass ran.
	if _, ok := off.Stats[StatChecksHoisted]; ok {
		t.Error("sw_checks_hoisted present without the hoist pass")
	}
}

// TestHoistBodySafety pins loopBodySafe's verdicts on a loop with a
// variable bound: each unsafe body keeps its per-iteration checks, and
// one unsafe node anywhere in the body is enough, whatever follows it.
func TestHoistBodySafety(t *testing.T) {
	const tmpl = `
int a[10];
int g() { return 1; }
int main() {
	int i; int n = 10; int k = 0; int *p = &k;
	for (i = 0; i < n; i++) {
		a[i] = i;
		%s
	}
	printi(k);
	return 0;
}
`
	cases := []struct {
		body  string
		hoist bool
	}{
		{"k++; k = k + a[i];", true},
		{"g();", false},           // a non-builtin call may write the bound
		{"k = g() + k++;", false}, // ... also when a safe node follows it
		{"n++;", false},
		{"n = 5;", false},
		{"i += 0;", false},
		{"*p = 1;", false},
		{"(*p)++;", false},
		{"if (k > 100) break;", false},
		{"if (k > 100) continue;", false},
		{"if (k > 100) return 1;", false},
	}
	for _, tc := range cases {
		prog := compile(t, strings.Replace(tmpl, "%s", tc.body, 1), Config{Mode: vm.ModeBCC, Passes: []string{"hoist"}})
		if got := prog.Stats[StatChecksHoisted] > 0; got != tc.hoist {
			t.Errorf("body %q: hoisted %v, want %v", tc.body, got, tc.hoist)
		}
	}
}

// hoistViolationSrc walks past the end of the array; hoisting must not
// lose the violation (it may trap earlier, at the preheader).
const hoistViolationSrc = `
int a[10];
int main() {
	int i;
	for (i = 0; i < 20; i++) {
		a[i] = i;
	}
	return 0;
}
`

func TestHoistPreservesViolation(t *testing.T) {
	for _, passes := range [][]string{nil, {"hoist"}, {"rce", "hoist"}} {
		_, err := runMode(t, hoistViolationSrc, Config{Mode: vm.ModeBCC, Passes: passes})
		f, ok := err.(*vm.Fault)
		if !ok || !f.IsBoundViolation() {
			t.Fatalf("passes=%v: want bound violation, got %v", passes, err)
		}
	}
}

// TestPassesByteIdenticalWhenOff pins the tentpole property directly:
// Compile with Passes == nil must reproduce the exact instruction stream
// of the historical direct emitter (also pinned transitively by every
// golden test, but this checks a nontrivial program in-place).
func TestPassesByteIdenticalWhenOff(t *testing.T) {
	for _, mode := range allModes {
		a := compile(t, dupReadSrc, Config{Mode: mode})
		b := compile(t, dupReadSrc, Config{Mode: mode, Passes: nil})
		if len(a.Instrs) != len(b.Instrs) {
			t.Fatalf("%v: instruction count differs", mode)
		}
		for i := range a.Instrs {
			if a.Instrs[i] != b.Instrs[i] {
				t.Fatalf("%v: instr %d differs: %v vs %v", mode, i, a.Instrs[i], b.Instrs[i])
			}
		}
	}
}

// TestPassesUnderCash checks the passes compose with segment-register
// allocation: spilled arrays keep software checks, and those checks are
// still optimizable.
func TestPassesUnderCash(t *testing.T) {
	src := `
int a[16];
int b[16];
int c[16];
int d[16];
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 16; i++) {
		s = s + a[i] + b[i] + c[i] + d[i];
	}
	printi(s);
	return 0;
}
`
	cfg := Config{Mode: vm.ModeCash, SegRegs: DefaultSegRegs[:2]}
	off := mustRunMode(t, src, cfg)
	cfgOn := cfg
	cfgOn.Passes = []string{"rce", "hoist"}
	on := mustRunMode(t, src, cfgOn)
	if off.Output[0] != on.Output[0] {
		t.Fatalf("output changed: %v vs %v", off.Output, on.Output)
	}
	if on.Stats.SWChecks > off.Stats.SWChecks {
		t.Fatalf("passes increased dynamic sw checks: %d -> %d",
			off.Stats.SWChecks, on.Stats.SWChecks)
	}
	if on.Stats.HWChecks != off.Stats.HWChecks {
		t.Fatalf("passes changed hardware check count: %d -> %d",
			off.Stats.HWChecks, on.Stats.HWChecks)
	}
}

// TestStatKeysDeterministic pins the -stats print order contract.
func TestStatKeysDeterministic(t *testing.T) {
	keys := StatKeys()
	if len(keys) == 0 {
		t.Fatal("no stat keys")
	}
	seen := make(map[string]bool)
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate stat key %q", k)
		}
		seen[k] = true
	}
	for _, want := range []string{StatHWChecks, StatSWChecks, StatChecksElim, StatChecksHoisted} {
		if !seen[want] {
			t.Errorf("StatKeys missing %q", want)
		}
	}
	again := StatKeys()
	for i := range keys {
		if keys[i] != again[i] {
			t.Fatal("StatKeys order not deterministic")
		}
	}
}

// TestPassNames pins the public registry: canonical order, no dups.
func TestPassNames(t *testing.T) {
	got := PassNames()
	if len(got) != 4 || got[0] != "rce" || got[1] != "hoist" || got[2] != "affine" || got[3] != "chop" {
		t.Fatalf("PassNames() = %v, want [rce hoist affine chop]", got)
	}
}
