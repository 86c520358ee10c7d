package core

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"cash/internal/vm"
	"cash/internal/workload"
)

// Tier-2 superblock execution must be invisible in everything but host
// speed: simulated output, cycle and check counters, fault identity and
// violation verdicts have to match step execution byte for byte, on the
// happy path and on every deopt path. These tests drive both engines
// over the same programs — including runs forced to stop or fault at
// every single instruction offset inside a compiled superblock — and
// compare the complete results.

// tierPair builds the same program twice: step-only and tier-2.
func tierPair(t *testing.T, source string, mode Mode, opts Options) (step, tier2 *Artifact) {
	t.Helper()
	stepOpts := opts
	stepOpts.StepOnly = true
	a1, err := Build(source, mode, stepOpts)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Build(source, mode, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a1, a2
}

// runRaw executes one artifact on a fresh machine without the Run
// classification layer, so faults surface as errors for comparison.
func runRaw(t *testing.T, art *Artifact, extra ...vm.Option) (*vm.Result, error) {
	t.Helper()
	m, err := art.NewMachine(extra...)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

// compareTiers runs both artifacts under identical machine options and
// requires the full results — and any faults — to be identical, modulo
// the tier-2 run's SB stats block.
func compareTiers(t *testing.T, label string, step, tier2 *Artifact, extra ...vm.Option) {
	t.Helper()
	r1, e1 := runRaw(t, step, extra...)
	r2, e2 := runRaw(t, tier2, extra...)
	if fmt.Sprint(e1) != fmt.Sprint(e2) || !reflect.DeepEqual(e1, e2) {
		t.Fatalf("%s: errors differ\n step:  %v\n tier2: %v", label, e1, e2)
	}
	if (r1 == nil) != (r2 == nil) {
		t.Fatalf("%s: one tier returned no result (step=%v tier2=%v)", label, r1 != nil, r2 != nil)
	}
	if r1 == nil {
		return
	}
	c2 := *r2
	c2.SB = nil
	if !reflect.DeepEqual(*r1, c2) {
		t.Fatalf("%s: results differ\n step:  %+v\n tier2: %+v", label, *r1, c2)
	}
}

// TestTier2Equivalence runs every Table 1 kernel in all three modes
// under both engines and requires identical results end to end.
func TestTier2Equivalence(t *testing.T) {
	for _, w := range workload.Kernels() {
		for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
			a1, a2 := tierPair(t, w.Source, mode, Options{SegRegs: 4})
			compareTiers(t, fmt.Sprintf("%s/%v", w.Name, mode), a1, a2)

			// The tier-2 run must actually have used superblocks —
			// equivalence by never entering them proves nothing.
			r2, err := runRaw(t, a2)
			if err != nil {
				t.Fatalf("%s %v tier2: %v", w.Name, mode, err)
			}
			if r2.SB == nil || r2.SB.Entries == 0 || r2.SB.InstrsRetired == 0 {
				t.Fatalf("%s %v: tier-2 run retired nothing in superblocks: %+v", w.Name, mode, r2.SB)
			}
		}
	}
}

// TestTier2PollKeepsTraces pins that a context poll is invisible in
// the result: a tier-2 run that polls a context (as every Engine run
// does) enters and retires the same superblock passes as one that does
// not, so the whole Result, Result.SB included, is equal. A pass that
// would cross the next poll polls early instead of stepping to it.
func TestTier2PollKeepsTraces(t *testing.T) {
	for _, w := range workload.Kernels() {
		for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
			art, err := Build(w.Source, mode, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := runRaw(t, art)
			if err != nil {
				t.Fatalf("%s %v: %v", w.Name, mode, err)
			}
			got, err := runRaw(t, art, vm.WithCancel(context.Background()))
			if err != nil {
				t.Fatalf("%s %v with a context: %v", w.Name, mode, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s %v: polling a context changed the result\n without: %+v %+v\n with:    %+v %+v",
					w.Name, mode, *want, *want.SB, *got, *got.SB)
			}
		}
	}
}

// TestTier2RangeKernels extends the equivalence sweep to the range
// kernels under the full pass pipeline: the affine pass's preheader
// blocks (guards, endpoint computations, skip detours) are new
// superblock-formation territory and must deopt identically.
func TestTier2RangeKernels(t *testing.T) {
	for _, w := range workload.RangeKernels() {
		for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
			opts := Options{SegRegs: 4, Passes: []string{"rce", "hoist", "affine"}}
			a1, a2 := tierPair(t, w.Source, mode, opts)
			compareTiers(t, fmt.Sprintf("%s/%v", w.Name, mode), a1, a2)

			r2, err := runRaw(t, a2)
			if err != nil {
				t.Fatalf("%s %v tier2: %v", w.Name, mode, err)
			}
			if r2.SB == nil || r2.SB.Entries == 0 || r2.SB.InstrsRetired == 0 {
				t.Fatalf("%s %v: tier-2 run retired nothing in superblocks: %+v", w.Name, mode, r2.SB)
			}
		}
	}
}

// tier2LoopProgram is small enough to sweep exhaustively but loops
// enough that most of its execution sits inside compiled superblocks.
const tier2LoopProgram = `
int a[8];
void main() {
	for (int i = 0; i < 20; i++) {
		a[i % 8] = a[i % 8] + i;
	}
	int s = 0;
	for (int i = 0; i < 8; i++) s = s + a[i];
	printi(s);
}`

// TestTier2StepLimitEveryOffset forces a stop at every instruction
// boundary of the whole program — including every offset inside each
// compiled superblock — by sweeping the step limit one instruction at a
// time. At each limit the tier-2 engine must deopt and deliver the same
// step-limit fault with the same counters as pure step execution.
func TestTier2StepLimitEveryOffset(t *testing.T) {
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		a1, a2 := tierPair(t, tier2LoopProgram, mode, Options{})
		clean, err := runRaw(t, a1)
		if err != nil {
			t.Fatalf("%v clean: %v", mode, err)
		}
		total := clean.Stats.Instructions
		for limit := uint64(1); limit <= total+1; limit++ {
			compareTiers(t, fmt.Sprintf("%v limit=%d", mode, limit), a1, a2,
				vm.WithStepLimit(limit))
		}
	}
}

// TestTier2DivideFaultInLoop faults with a divide error part-way
// through a hot loop — a deopt from deep inside a superblock pass —
// and requires the identical fault and counters from both engines.
func TestTier2DivideFaultInLoop(t *testing.T) {
	const src = `
void main() {
	int d = 13;
	int x = 0;
	for (int i = 0; i < 20; i++) {
		d = d - 1;
		x = x + 100 / d;
	}
	printi(x);
}`
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		a1, a2 := tierPair(t, src, mode, Options{})
		compareTiers(t, fmt.Sprintf("divide/%v", mode), a1, a2)
	}
}

// TestTier2ViolationVerdict drives an out-of-bound write from inside a
// hot loop. The checking modes must deliver the identical violation
// verdict from both engines, GCC the identical silent corruption.
func TestTier2ViolationVerdict(t *testing.T) {
	const src = `
int a[8];
int b[8];
void main() {
	for (int i = 0; i < 12; i++) {
		a[i] = i;
	}
	printi(b[0]);
}`
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		a1, a2 := tierPair(t, src, mode, Options{})
		r1, err1 := a1.Run()
		r2, err2 := a2.Run()
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("%v: run errors differ: %v vs %v", mode, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if (r1.Violation == nil) != (r2.Violation == nil) {
			t.Fatalf("%v: verdicts differ: step=%v tier2=%v", mode, r1.Violation, r2.Violation)
		}
		if mode != ModeGCC && r1.Violation == nil {
			t.Fatalf("%v: out-of-bound write went undetected", mode)
		}
		if r1.Violation != nil && !reflect.DeepEqual(r1.Violation, r2.Violation) {
			t.Fatalf("%v: violation faults differ\n step:  %+v\n tier2: %+v", mode, r1.Violation, r2.Violation)
		}
		c2 := *r2.Result
		c2.SB = nil
		if !reflect.DeepEqual(*r1.Result, c2) {
			t.Fatalf("%v: results differ\n step:  %+v\n tier2: %+v", mode, *r1.Result, c2)
		}
	}
}

// TestTier2ChaosDeoptSites reuses the fault-injection sites of the
// resilience suite against tier-2 execution: every injected fault must
// manifest identically — same fault, same counters, same output — as
// under step execution.
func TestTier2ChaosDeoptSites(t *testing.T) {
	a1, a2 := tierPair(t, sitesProgram, ModeCash, Options{StepLimit: 1_000_000})
	reqAddr := a1.Program.Globals["request"].Addr
	garbage := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	cases := []struct {
		name  string
		extra []vm.Option
	}{
		{"clean", nil},
		{"transient-alloc", []vm.Option{vm.WithTransientAllocFault()}},
		{"descriptor-corruption", []vm.Option{vm.WithDescriptorCorruption(), vm.WithLDTAudit()}},
		{"shadow-corruption", []vm.Option{vm.WithShadowCorruption(), vm.WithLDTAudit()}},
		{"poke", []vm.Option{vm.WithPoke(reqAddr, garbage)}},
		{"page-unmap", []vm.Option{vm.WithPaging(64 << 20), vm.WithPageUnmap(reqAddr)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compareTiers(t, tc.name, a1, a2, tc.extra...)
		})
	}
}

// tier2CallProgram calls a function inside a hot loop: the loop trace
// ends at the CALL, and tier 2 adds traces at the callee's entry, at its
// epilogue (which ends in the RET) and at the return continuation.
const tier2CallProgram = `
int a[8];
int f(int x) { return x * 3 + 1; }
void main() {
	int s = 0;
	for (int i = 0; i < 6; i++) {
		s = s + f(i);
		a[i % 8] = s;
	}
	printi(s + a[3]);
}`

// tier2IdiomProgram exercises every idiom tier 2 fuses into a superop
// (the GCC build all but Mov+CmpJ, which BCC's check sequences supply)
// inside a recursive function whose frames hold a 2400-byte array.
func tier2IdiomProgram(depth int) string {
	return fmt.Sprintf(`
int out[8];
int idioms(int n, int k) {
	int pad[600];
	int s = 0;
	int lim = 4;
	for (int i = 0; i < lim; i++) {
		int j = i * lim + k;
		pad[i + j] = j;
		s += (i + 1) * (j + 2);
		s++;
	}
	if (n > 0) s = s + idioms(n - 1, k);
	return s + pad[3];
}
void main() {
	for (int r = 0; r < 3; r++) out[r] = idioms(%d, r);
	printi(out[0] + out[1] + out[2]);
}`, depth)
}

// tier2Idioms lists the superop names DumpSuperblocks prints.
var tier2Idioms = []string{
	"load4f+mov+add+store4f", "load4f+mov+add+store4f+jmp",
	"load4f+cmpj", "load4f+cmprmj", "mov+cmpj", "push+load4f",
	"pop+mul", "addmf+shl", "mulmf+addmf", "addrmwf+load4f",
}

// requireTraces fails unless the tier-2 build compiled every idiom (over
// the given artifacts together) and traces that end in a call and a
// return.
func requireTraces(t *testing.T, arts ...*Artifact) {
	t.Helper()
	var dump strings.Builder
	for _, a := range arts {
		dump.WriteString(a.DumpSuperblocks())
	}
	for _, want := range append([]string{"(call, ", "(ret, "}, tier2Idioms...) {
		if strings.HasPrefix(want, "(") {
			if !strings.Contains(dump.String(), want) {
				t.Fatalf("no %q trace compiled", want)
			}
			continue
		}
		if !strings.Contains(dump.String(), "\t# "+want+"\n") {
			t.Fatalf("idiom %s not fused", want)
		}
	}
}

// TestTier2CallStepLimitEveryOffset sweeps the step limit over every
// instruction of a program that calls a function inside a hot loop, so
// the stop lands at every offset of the loop, callee, epilogue and
// continuation traces — and on each traced CALL and RET.
func TestTier2CallStepLimitEveryOffset(t *testing.T) {
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		a1, a2 := tierPair(t, tier2CallProgram, mode, Options{})
		if mode == ModeGCC {
			requireTraces(t, a2, mustBuildArt(t, tier2IdiomProgram(2), ModeBCC, Options{}))
		}
		clean, err := runRaw(t, a1)
		if err != nil {
			t.Fatalf("%v clean: %v", mode, err)
		}
		total := clean.Stats.Instructions
		for limit := uint64(1); limit <= total+1; limit++ {
			compareTiers(t, fmt.Sprintf("%v limit=%d", mode, limit), a1, a2,
				vm.WithStepLimit(limit))
		}
	}
}

// TestTier2DivideFaultInCallee raises a divide fault inside a callee
// entered through a traced CALL, on the twelfth trip round the loop.
func TestTier2DivideFaultInCallee(t *testing.T) {
	const src = `
int g(int d) { return 100 / d; }
void main() {
	int x = 0;
	for (int i = 0; i < 20; i++) {
		x = x + g(12 - i);
	}
	printi(x);
}`
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		a1, a2 := tierPair(t, src, mode, Options{})
		if !strings.Contains(a2.DumpSuperblocks(), "(call, ") {
			t.Fatalf("%v: the loop's CALL is not traced", mode)
		}
		compareTiers(t, fmt.Sprintf("callee-divide/%v", mode), a1, a2)
		if _, err := runRaw(t, a2); !isFault(err, vm.FaultDivide) {
			t.Fatalf("%v: got %v, want a divide fault", mode, err)
		}
	}
}

// TestTier2DeepRecursionLeavesWindow recurses until the frames lie
// below the 2 MiB stack window, where every superop's fast path refuses
// and its head runs as its original kind.
func TestTier2DeepRecursionLeavesWindow(t *testing.T) {
	src := tier2IdiomProgram(1000) // 1000 frames of about 2.4 KB
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		a1, a2 := tierPair(t, src, mode, Options{})
		compareTiers(t, fmt.Sprintf("deep/%v", mode), a1, a2)
		m, err := a2.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if m.Memory().PagesAllocated() == 0 {
			t.Fatalf("%v: the recursion never left the stack window", mode)
		}
		m.Release()
	}
}

// TestTier2IdiomsPaged runs every idiom on a paged machine, where every
// window is zero: each superop runs as its original kind, through the
// page walk.
func TestTier2IdiomsPaged(t *testing.T) {
	for _, mode := range []Mode{ModeGCC, ModeBCC, ModeCash} {
		a1, a2 := tierPair(t, tier2IdiomProgram(5), mode, Options{})
		compareTiers(t, fmt.Sprintf("paged/%v", mode), a1, a2, vm.WithPaging(64<<20))
		compareTiers(t, fmt.Sprintf("plain/%v", mode), a1, a2)
	}
}

func isFault(err error, kind vm.FaultKind) bool {
	f, ok := err.(*vm.Fault)
	return ok && f.Kind == kind
}

// TestTier2DumpSuperblocks pins the compiled form of the sweep programs:
// region selection, the call and return traces, trace layout and the
// fused idioms only change for a reason, and the dump is the first thing
// a reader sees of the engine. On a deliberate change, replace the
// golden with the dump the failure prints.
func TestTier2DumpSuperblocks(t *testing.T) {
	var got strings.Builder
	for _, src := range []string{tier2LoopProgram, tier2CallProgram} {
		art := mustBuildArt(t, src, ModeGCC, Options{})
		got.WriteString(art.DumpSuperblocks())
		if _, err := art.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const golden = "testdata/tier2_superblocks.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		line := 0
		for line < len(g) && line < len(w) && g[line] == w[line] {
			line++
		}
		t.Fatalf("superblock dump differs from %s at line %d; the dump:\n%s", golden, line+1, got.String())
	}
}
