package core

import (
	"errors"
	"testing"

	"cash/internal/ldt"
	"cash/internal/vm"
)

// These tests drive each fault-injection mechanism (the vm.With*
// options that internal/netsim's resilience loop composes) directly
// against a small Cash-compiled program, verifying that every injected
// fault manifests exactly as the serving loop classifies it.

const sitesProgram = `
char request[16] = "GET /index HTTP";
int sum[1];
void main() {
	char *buf = malloc(16);
	for (int i = 0; i < 15; i++) buf[i] = request[i];
	for (int i = 0; i < 15; i++) sum[0] += buf[i];
	printi(sum[0]);
}`

func buildSites(t *testing.T, mode Mode) *Artifact {
	t.Helper()
	art, err := Build(sitesProgram, mode, Options{StepLimit: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func runMachine(t *testing.T, art *Artifact, extra ...vm.Option) (*vm.Machine, *vm.Result, *vm.Fault) {
	t.Helper()
	m, err := art.NewMachine(extra...)
	if err != nil {
		t.Fatal(err)
	}
	res, runErr := m.Run()
	if runErr == nil {
		return m, res, nil
	}
	var f *vm.Fault
	if !errors.As(runErr, &f) {
		t.Fatalf("non-fault run error: %v", runErr)
	}
	return m, res, f
}

func TestTransientAllocFaultIsRetryableKind(t *testing.T) {
	art := buildSites(t, ModeCash)
	_, _, f := runMachine(t, art, vm.WithTransientAllocFault())
	if f == nil {
		t.Fatal("injected transient failure but run completed")
	}
	if f.Kind != vm.FaultTransient {
		t.Fatalf("fault kind %v, want FaultTransient", f.Kind)
	}
	if !errors.Is(f, vm.ErrTransientLDT) {
		t.Fatalf("fault %v does not unwrap to ErrTransientLDT", f)
	}
	// A fresh machine without the injection must succeed — that is what
	// makes the fault retryable.
	_, _, f = runMachine(t, art)
	if f != nil {
		t.Fatalf("clean retry failed: %v", f)
	}
}

func TestLDTReserveForcesFlatFallback(t *testing.T) {
	art := buildSites(t, ModeCash)
	m, res, f := runMachine(t, art, vm.WithLDTReserve(ldt.UsableEntries), vm.WithLDTAudit())
	if f != nil {
		t.Fatalf("exhausted LDT must degrade, not fault: %v", f)
	}
	if res.Stats.FlatFallbacks == 0 {
		t.Fatal("full reservation but no flat-segment fallbacks recorded")
	}
	// Degradation is graceful: the descriptor-table invariants still
	// hold afterwards (reserved entries stay accounted for).
	if err := m.LDTManager().CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after degradation: %v", err)
	}
}

func TestDescriptorCorruptionIsDetected(t *testing.T) {
	art := buildSites(t, ModeCash)
	m, _, f := runMachine(t, art, vm.WithDescriptorCorruption(), vm.WithLDTAudit())
	checkErr := m.LDTManager().CheckInvariants()
	// The shrunk descriptor either faults the very next access through
	// it, or — if the segment register cache dodged the reload — the
	// post-run audit flags the drift. Silence on both channels would
	// mean corruption can hide.
	if f == nil && checkErr == nil {
		t.Fatal("descriptor corruption neither faulted nor failed the invariant check")
	}
}

func TestShadowCorruptionCaughtByChecker(t *testing.T) {
	art := buildSites(t, ModeCash)
	m, _, f := runMachine(t, art, vm.WithShadowCorruption(), vm.WithLDTAudit())
	checkErr := m.LDTManager().CheckInvariants()
	// The duplicated free-list entry either gets handed out again over
	// a live segment (the victim's next access then #GP-faults) or sits
	// latent until the post-run audit flags the duplicate. Either way
	// the corruption must not go unnoticed.
	if f == nil && checkErr == nil {
		t.Fatal("corrupted free list neither faulted nor failed the invariant check")
	}
}

func TestPokeChangesObservableOutput(t *testing.T) {
	for _, mode := range []Mode{ModeGCC, ModeCash, ModeBCC} {
		art := buildSites(t, mode)
		_, clean, f := runMachine(t, art)
		if f != nil {
			t.Fatalf("[%v] clean run faulted: %v", mode, f)
		}
		reqAddr := art.Program.Globals["request"].Addr
		garbage := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
		_, poked, _ := runMachine(t, art, vm.WithPoke(reqAddr, garbage))
		if len(poked.Output) == len(clean.Output) {
			same := true
			for i := range clean.Output {
				if poked.Output[i] != clean.Output[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("[%v] malformed request buffer left output unchanged", mode)
			}
		}
	}
}

func TestPageUnmapFaultsOnRequestAccess(t *testing.T) {
	art := buildSites(t, ModeGCC)
	reqAddr := art.Program.Globals["request"].Addr
	_, _, f := runMachine(t, art, vm.WithPaging(64<<20), vm.WithPageUnmap(reqAddr))
	if f == nil {
		t.Fatal("request page unmapped but the handler completed")
	}
	if f.Kind != vm.FaultPage {
		t.Fatalf("fault kind %v, want FaultPage", f.Kind)
	}
}

func TestStepLimitKillsRunawayHandler(t *testing.T) {
	art, err := Build(`void main() { int x = 1; while (x) { x = 1; } }`, ModeGCC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, f := runMachine(t, art, vm.WithStepLimit(10_000))
	if f == nil {
		t.Fatal("infinite loop terminated without the watchdog")
	}
	if f.Kind != vm.FaultStepLimit {
		t.Fatalf("fault kind %v, want FaultStepLimit", f.Kind)
	}
}
