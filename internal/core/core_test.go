package core

import (
	"strings"
	"testing"

	"cash/internal/workload"
)

const sumKernel = `
int a[32];
void main() {
	int s = 0;
	for (int r = 0; r < 100; r++) {
		for (int i = 0; i < 32; i++) a[i] = i;
		for (int i = 0; i < 32; i++) s += a[i];
	}
	printi(s / 100);
}`

func TestBuildAndRunAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		art, err := Build(sumKernel, mode, Options{})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		res, err := art.Run()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Violation != nil {
			t.Fatalf("%v: unexpected violation %v", mode, res.Violation)
		}
		if len(res.Output) != 1 || res.Output[0] != 496 {
			t.Fatalf("%v: output %v, want [496]", mode, res.Output)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("int x = ;", ModeGCC, Options{}); err == nil {
		t.Error("syntax error must fail")
	}
	if _, err := Build("void main() { y = 1; }", ModeGCC, Options{}); err == nil {
		t.Error("check error must fail")
	}
	if _, err := Build(sumKernel, ModeCash, Options{SegRegs: 7}); err == nil {
		t.Error("bad register budget must fail")
	}
}

func TestRunReportsViolation(t *testing.T) {
	src := `
int a[4];
void main() {
	for (int i = 0; i < 8; i++) a[i] = i;
}`
	art, err := Build(src, ModeCash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := art.Run()
	if err != nil {
		t.Fatalf("violations are results, not errors: %v", err)
	}
	if res.Violation == nil {
		t.Fatal("overflow must be reported")
	}
	if !res.Violation.IsBoundViolation() {
		t.Fatal("violation must be a bound violation")
	}
}

func TestCompare(t *testing.T) {
	cmp, err := CompareStrategies("sum", sumKernel, CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.GCC.Cycles == 0 || cmp.BCC.Cycles == 0 || cmp.Cash.Cycles == 0 {
		t.Fatal("all modes must report cycles")
	}
	if cmp.CashOverheadPct() >= cmp.BCCOverheadPct() {
		t.Fatalf("cash overhead %.1f%% must be below bcc %.1f%%",
			cmp.CashOverheadPct(), cmp.BCCOverheadPct())
	}
	if cmp.Cash.StaticHW == 0 {
		t.Error("cash must report static hardware checks")
	}
	if cmp.BCC.StaticSW == 0 {
		t.Error("bcc must report static software checks")
	}
	if cmp.CashSizeOverheadPct() <= 0 || cmp.BCCSizeOverheadPct() <= 0 {
		t.Error("both checkers must grow the binary")
	}
}

func TestCompareRejectsViolatingProgram(t *testing.T) {
	src := `
int a[4];
void main() { for (int i = 0; i <= 4; i++) a[i] = 0; }`
	if _, err := CompareStrategies("bad", src, CompareConfig{}); err == nil {
		t.Fatal("CompareStrategies must reject programs that violate bounds")
	}
}

func TestOverheadConstantsMatchPaper(t *testing.T) {
	oc, err := MeasureOverheadConstants()
	if err != nil {
		t.Fatal(err)
	}
	if err := oc.Verify(); err != nil {
		t.Fatal(err)
	}
	// Paper §4.1 reference values.
	if oc.PerProgram != 543 {
		t.Errorf("per-program = %d, paper: 543", oc.PerProgram)
	}
	if oc.PerArray != 263 {
		t.Errorf("per-array = %d, paper: 263", oc.PerArray)
	}
	if oc.PerArrayUse != 4 {
		t.Errorf("per-array-use = %d, paper: 4", oc.PerArrayUse)
	}
}

func TestCharacterize(t *testing.T) {
	src := `
int a[4]; int b[4]; int c[4]; int d[4];
void main() {
	for (int i = 0; i < 4; i++) a[i] = i;
	for (int i = 0; i < 4; i++) { a[i] = b[i]; c[i] = d[i]; }
	int x = 0;
	while (x < 10) x++;
}`
	ch, err := Characterize(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ch.ArrayUsingLoops != 2 {
		t.Errorf("ArrayUsingLoops = %d, want 2", ch.ArrayUsingLoops)
	}
	if ch.SpilledLoops != 1 {
		t.Errorf("SpilledLoops = %d, want 1", ch.SpilledLoops)
	}
	if ch.Lines != minicLines(src) {
		t.Errorf("Lines = %d, want %d", ch.Lines, minicLines(src))
	}
}

func minicLines(src string) int {
	n := 0
	for _, l := range strings.Split(src, "\n") {
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}

func TestSegRegBudgets(t *testing.T) {
	src := `
int a[4]; int b[4]; int c[4]; int d[4];
void main() {
	for (int i = 0; i < 4; i++) { a[i] = i; b[i] = i; c[i] = i; d[i] = i; }
}`
	swChecks := func(budget int) uint64 {
		art, err := Build(src, ModeCash, Options{SegRegs: budget})
		if err != nil {
			t.Fatal(err)
		}
		res, err := art.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatal(res.Violation)
		}
		return res.Stats.SWChecks
	}
	if got2, got3, got4 := swChecks(2), swChecks(3), swChecks(4); !(got2 > got3 && got3 > got4) {
		t.Fatalf("software checks must shrink with more registers: 2->%d 3->%d 4->%d", got2, got3, got4)
	}
	if swChecks(4) != 0 {
		t.Fatalf("4 registers must cover 4 arrays")
	}
}

// TestSpilledItersCountOnlySegmentStrategies pins that the
// core.segment_spilled_iters counter counts only runs of a strategy that
// holds arrays in segment registers: gcc and bcc programs mark the same
// spilled back-edges, but spill nothing.
func TestSpilledItersCountOnlySegmentStrategies(t *testing.T) {
	w, ok := workload.ByName("quat")
	if !ok {
		t.Fatal("no quat workload")
	}
	before := mSpilled.Value()
	var cash uint64
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		art, err := Build(w.Source, mode, Options{})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		res, err := art.Run()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if mode == ModeCash {
			cash = res.Stats.SpilledIters
		}
	}
	if cash != 3192 {
		t.Fatalf("quat under cash spills %d iterations, want 3192", cash)
	}
	if got := mSpilled.Value() - before; got != cash {
		t.Fatalf("core.segment_spilled_iters moved by %d over gcc, bcc and cash, want cash's %d", got, cash)
	}
}

func TestWithoutCallGateCostsMore(t *testing.T) {
	// Four distinct local-array sizes defeat the 3-entry segment cache,
	// so every allocation enters the kernel — through the 253-cycle call
	// gate normally, through the 781-cycle modify_ldt without the patch.
	src := `
int w1(int n) { int b[8];  for (int i = 0; i < 8; i++)  b[i] = n; return b[7]; }
int w2(int n) { int b[16]; for (int i = 0; i < 16; i++) b[i] = n; return b[15]; }
int w3(int n) { int b[24]; for (int i = 0; i < 24; i++) b[i] = n; return b[23]; }
int w4(int n) { int b[32]; for (int i = 0; i < 32; i++) b[i] = n; return b[31]; }
void main() {
	int s = 0;
	for (int i = 0; i < 50; i++) s += w1(i) + w2(i) + w3(i) + w4(i);
	printi(s);
}`
	fast, err := Build(src, ModeCash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Build(src, ModeCash, Options{WithoutCallGate: true})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fast.Run()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := slow.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Cycles <= fr.Cycles {
		t.Fatalf("modify_ldt path (%d) must cost more than call gate (%d)", sr.Cycles, fr.Cycles)
	}
}
