package core

import (
	"strings"
	"testing"

	"cash/internal/vm"
)

// TestStrategiesExposed pins the core-level registry view: four
// built-in strategies whose names are the valid Mode values.
func TestStrategiesExposed(t *testing.T) {
	names := StrategyNames()
	want := []string{"gcc", "bcc", "cash", "mpx"}
	if len(names) != len(want) {
		t.Fatalf("StrategyNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("StrategyNames() = %v, want %v", names, want)
		}
	}
	for i, info := range Strategies() {
		if info.Name != want[i] {
			t.Errorf("Strategies()[%d].Name = %q, want %q", i, info.Name, want[i])
		}
	}
}

// TestParseMode: every registered name resolves to itself, empty means
// cash, and an unknown name fails with the registry's error.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{{"gcc", ModeGCC, true}, {"bcc", ModeBCC, true}, {"cash", ModeCash, true},
		{"mpx", ModeMPX, true}, {"", ModeCash, true}, {"llvm", "", false}} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseMode(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if _, err := ParseMode("asan"); err == nil || !strings.Contains(err.Error(), `unknown strategy "asan"`) {
		t.Fatalf("want unknown-strategy error, got %v", err)
	}
}

// TestBuildUnknownStrategy: an unregistered name fails with an error
// listing the valid names.
func TestBuildUnknownStrategy(t *testing.T) {
	_, err := Build(sumKernel, Mode("asan"), Options{})
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, want := range []string{`"asan"`, "gcc", "bcc", "cash", "mpx"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// TestModeConstantsAreNames: the deprecated Mode constants are the
// strategy names themselves, so enum-based and name-based callers build
// byte-identical artifacts.
func TestModeConstantsAreNames(t *testing.T) {
	if ModeCash != Mode("cash") || ModeGCC != "gcc" || ModeBCC != "bcc" || ModeMPX != "mpx" {
		t.Fatal("Mode constants must equal their string spellings")
	}
	a, err := Build(sumKernel, ModeCash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(sumKernel, Mode("cash"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Disassemble() != b.Disassemble() {
		t.Fatal("constant and name spelling compiled different programs")
	}
}

// TestBuildAndRunMPX: the mpx strategy runs a bound-respecting kernel
// with the same output as the other strategies and reports bounds-table
// activity in the vm counters.
func TestBuildAndRunMPX(t *testing.T) {
	art, err := Build(sumKernel, ModeMPX, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := art.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if len(res.Output) != 1 || res.Output[0] != 496 {
		t.Fatalf("output %v, want [496]", res.Output)
	}
	if res.Stats.BndChecks == 0 {
		t.Error("mpx run reported no bndcl checks")
	}
}

// TestMPXDetectsViolation: an overflowing loop under mpx stops on a
// software-check fault, reported as a violation result like bcc's.
func TestMPXDetectsViolation(t *testing.T) {
	src := `
int a[4];
void main() {
	for (int i = 0; i < 8; i++) a[i] = i;
}`
	art, err := Build(src, ModeMPX, Options{})
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
	if res.Violation.Kind != vm.FaultSoftwareCheck {
		t.Fatalf("violation kind %v, want software check", res.Violation.Kind)
	}
}

// TestCompareStrategies: a four-strategy comparison fills Reports in
// request order, keeps the legacy three-mode fields, and generalizes
// the overhead accessors.
func TestCompareStrategies(t *testing.T) {
	cmp, err := CompareStrategies("sum", sumKernel,
		CompareConfig{Strategies: []string{"gcc", "bcc", "cash", "mpx"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Reports) != 4 {
		t.Fatalf("Reports has %d entries, want 4", len(cmp.Reports))
	}
	for i, name := range []string{"gcc", "bcc", "cash", "mpx"} {
		if string(cmp.Reports[i].Mode) != name {
			t.Errorf("Reports[%d].Mode = %v, want %s", i, cmp.Reports[i].Mode, name)
		}
		if cmp.Reports[i].Cycles == 0 {
			t.Errorf("%s reported no cycles", name)
		}
	}
	// Legacy layout still filled for the classic three.
	if cmp.GCC.Cycles != cmp.Reports[0].Cycles || cmp.Cash.Cycles != cmp.Reports[2].Cycles {
		t.Error("legacy GCC/Cash fields not filled from Reports")
	}
	// Generalized accessors agree with the legacy ones.
	if cmp.OverheadPct("cash") != cmp.CashOverheadPct() {
		t.Errorf("OverheadPct(cash) = %v, CashOverheadPct = %v",
			cmp.OverheadPct("cash"), cmp.CashOverheadPct())
	}
	if cmp.OverheadPct("mpx") <= 0 {
		t.Errorf("mpx overhead %.1f%% must be positive", cmp.OverheadPct("mpx"))
	}
	if cmp.SizeOverheadPct("bcc") != cmp.BCCSizeOverheadPct() {
		t.Error("SizeOverheadPct(bcc) disagrees with BCCSizeOverheadPct")
	}
	if _, ok := cmp.Report("asan"); ok {
		t.Error("Report resolved a strategy that was not compared")
	}
}

// TestCompareStrategiesUnknownName: a bad name in the set fails up
// front with the registry's unknown-strategy error.
func TestCompareStrategiesUnknownName(t *testing.T) {
	_, err := CompareStrategies("sum", sumKernel,
		CompareConfig{Strategies: []string{"gcc", "asan"}})
	if err == nil || !strings.Contains(err.Error(), `unknown strategy "asan"`) {
		t.Fatalf("want unknown-strategy error, got %v", err)
	}
}

// TestCompareDefaultTrio: an empty CompareConfig compares exactly gcc,
// bcc, cash, as naming the three explicitly does.
func TestCompareDefaultTrio(t *testing.T) {
	cmp, err := CompareStrategies("sum", sumKernel, CompareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Reports) != 3 {
		t.Fatalf("default comparison has %d reports, want 3", len(cmp.Reports))
	}
	named, err := CompareStrategies("sum", sumKernel, CompareConfig{Strategies: []string{"gcc", "bcc", "cash"}})
	if err != nil {
		t.Fatal(err)
	}
	if named.GCC.Cycles != cmp.GCC.Cycles || named.Cash.Cycles != cmp.Cash.Cycles {
		t.Fatal("the default strategy set disagrees with naming gcc, bcc, cash")
	}
}
