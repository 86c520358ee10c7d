package codegen

import (
	"strings"
	"testing"

	"cash/internal/vm"
)

// TestStrategyRegistry pins the registry contents: the four built-in
// strategies in registration order, with their kinds and vm modes.
func TestStrategyRegistry(t *testing.T) {
	got := Strategies()
	want := []struct {
		name string
		kind StrategyKind
		mode vm.Mode
	}{
		{"gcc", KindLowering, vm.ModeGCC},
		{"bcc", KindLowering, vm.ModeBCC},
		{"cash", KindHardware, vm.ModeCash},
		{"mpx", KindHardware, vm.ModeMPX},
	}
	if len(got) != len(want) {
		t.Fatalf("Strategies() = %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].Kind != w.kind || got[i].Mode != w.mode {
			t.Errorf("Strategies()[%d] = %+v, want name=%q kind=%q mode=%v",
				i, got[i], w.name, w.kind, w.mode)
		}
		if got[i].Description == "" {
			t.Errorf("strategy %q has no description", w.name)
		}
	}
	names := StrategyNames()
	for i, w := range want {
		if names[i] != w.name {
			t.Errorf("StrategyNames()[%d] = %q, want %q", i, names[i], w.name)
		}
	}
}

// TestStrategyByNameUnknown pins the unknown-name error: it must list
// every valid name so CLI users see their options.
func TestStrategyByNameUnknown(t *testing.T) {
	if _, ok := StrategyByName("asan"); ok {
		t.Fatal("unregistered strategy resolved")
	}
	err := UnknownStrategyError("asan")
	for _, want := range []string{`"asan"`, "gcc", "bcc", "cash", "mpx"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-strategy error %q does not mention %s", err, want)
		}
	}
}

// TestDuplicateStrategyRegistrationPanics: re-registering a taken name
// is a programming error and must fail loudly at init time, not shadow
// the existing strategy.
func TestDuplicateStrategyRegistrationPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate registration did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, `duplicate strategy registration "cash"`) {
			t.Fatalf("panic %v does not name the duplicate", r)
		}
	}()
	registerStrategy(StrategyInfo{Name: "cash", Mode: vm.ModeCash}, cashStrategy{})
}

// TestUnknownModeRejectedAtCompile: a vm mode with no registered
// strategy fails Config validation.
func TestUnknownModeRejected(t *testing.T) {
	prog := mustParse(t, "int main() { return 0; }")
	_, _, err := CompileIR(prog, Config{Mode: vm.Mode(99)})
	if err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("unregistered mode accepted: %v", err)
	}
}
