package codegen

import (
	"errors"
	"testing"

	"cash/internal/minic"
	"cash/internal/vm"
)

func compile(t *testing.T, src string, cfg Config) *vm.Program {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	p, _, err := CompileIR(prog, cfg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func runMode(t *testing.T, src string, cfg Config, extra ...vm.Option) (*vm.Result, error) {
	t.Helper()
	p := compile(t, src, cfg)
	m, err := vm.New(p, cfg.Mode, extra...)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

func mustRunMode(t *testing.T, src string, cfg Config) *vm.Result {
	t.Helper()
	res, err := runMode(t, src, cfg)
	if err != nil {
		t.Fatalf("run (%v): %v", cfg.Mode, err)
	}
	return res
}

var allModes = []vm.Mode{vm.ModeGCC, vm.ModeBCC, vm.ModeCash, vm.ModeMPX}

// runAllModes runs src under every checking strategy and requires
// identical output.
func runAllModes(t *testing.T, src string) map[vm.Mode]*vm.Result {
	t.Helper()
	results := make(map[vm.Mode]*vm.Result, len(allModes))
	var ref []int32
	for _, mode := range allModes {
		res := mustRunMode(t, src, Config{Mode: mode})
		results[mode] = res
		if mode == vm.ModeGCC {
			ref = res.Output
			continue
		}
		if len(res.Output) != len(ref) {
			t.Fatalf("%v output length %d, gcc %d\n%v vs %v",
				mode, len(res.Output), len(ref), res.Output, ref)
		}
		for i := range ref {
			if res.Output[i] != ref[i] {
				t.Fatalf("%v output[%d] = %d, gcc %d", mode, i, res.Output[i], ref[i])
			}
		}
	}
	return results
}

func TestArithmeticPrograms(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want []int32
	}{
		{
			name: "constants and ops",
			src: `void main() {
				printi(1 + 2 * 3);
				printi((1 + 2) * 3);
				printi(100 / 7);
				printi(100 % 7);
				printi(-5);
				printi(~0);
				printi(1 << 10);
				printi(-64 >> 3);
				printi(0xff & 0x0f | 0x30 ^ 0x11);
			}`,
			want: []int32{7, 9, 14, 2, -5, -1, 1024, -8, 47},
		},
		{
			name: "comparisons",
			src: `void main() {
				printi(3 < 4); printi(4 < 3); printi(3 <= 3);
				printi(3 == 3); printi(3 != 3); printi(5 >= 9);
				printi(!0); printi(!7);
				printi(1 && 2); printi(1 && 0); printi(0 || 3); printi(0 || 0);
			}`,
			want: []int32{1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0},
		},
		{
			name: "variables and compound assignment",
			src: `void main() {
				int x = 10;
				x += 5; printi(x);
				x -= 3; printi(x);
				x *= 2; printi(x);
				x /= 4; printi(x);
				x %= 4; printi(x);
				x <<= 3; printi(x);
				x >>= 1; printi(x);
				x |= 0x10; printi(x);
				x &= 0x1c; printi(x);
				x ^= 0xff; printi(x);
			}`,
			want: []int32{15, 12, 24, 6, 2, 16, 8, 24, 24, 231},
		},
		{
			name: "inc dec",
			src: `void main() {
				int i = 5;
				printi(i++); printi(i);
				printi(++i); printi(i);
				printi(i--); printi(i);
				printi(--i); printi(i);
			}`,
			want: []int32{5, 6, 7, 7, 7, 6, 5, 5},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, mode := range allModes {
				res := mustRunMode(t, tt.src, Config{Mode: mode})
				if len(res.Output) != len(tt.want) {
					t.Fatalf("%v: output %v, want %v", mode, res.Output, tt.want)
				}
				for i, w := range tt.want {
					if res.Output[i] != w {
						t.Fatalf("%v: output[%d] = %d, want %d", mode, i, res.Output[i], w)
					}
				}
			}
		})
	}
}

func TestControlFlow(t *testing.T) {
	src := `
int collatzSteps(int n) {
	int steps = 0;
	while (n != 1) {
		if (n % 2 == 0) n = n / 2;
		else n = 3 * n + 1;
		steps++;
	}
	return steps;
}
void main() {
	printi(collatzSteps(27));
	int s = 0;
	for (int i = 0; i < 100; i++) {
		if (i % 3 == 0) continue;
		if (i > 50) break;
		s += i;
	}
	printi(s);
}`
	for _, mode := range allModes {
		res := mustRunMode(t, src, Config{Mode: mode})
		if res.Output[0] != 111 {
			t.Fatalf("%v: collatz(27) = %d, want 111", mode, res.Output[0])
		}
		// Sum of 0..50 excluding multiples of 3 (the break at i>50 is
		// only reached at i=52, the first non-multiple of 3 above 50).
		if res.Output[1] != 867 {
			t.Fatalf("%v: loop sum = %d, want 867", mode, res.Output[1])
		}
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int gcd(int a, int b) {
	while (b != 0) {
		int t = b;
		b = a % b;
		a = t;
	}
	return a;
}
void main() {
	printi(fib(15));
	printi(gcd(1071, 462));
}`
	for _, mode := range allModes {
		res := mustRunMode(t, src, Config{Mode: mode})
		if res.Output[0] != 610 || res.Output[1] != 21 {
			t.Fatalf("%v: output %v, want [610 21]", mode, res.Output)
		}
	}
}

func TestGlobalArraysAllModes(t *testing.T) {
	runAllModes(t, `
int a[10];
int init[5] = {10, 20, 30, 40, 50};
void main() {
	for (int i = 0; i < 10; i++) a[i] = i * i;
	int sum = 0;
	for (int i = 0; i < 10; i++) sum += a[i];
	printi(sum);
	for (int i = 0; i < 5; i++) printi(init[i]);
}`)
}

func TestLocalArraysAllModes(t *testing.T) {
	runAllModes(t, `
int sumSquares(int n) {
	int buf[16];
	for (int i = 0; i < n; i++) buf[i] = i * i;
	int s = 0;
	for (int i = 0; i < n; i++) s += buf[i];
	return s;
}
void main() {
	printi(sumSquares(16));
	printi(sumSquares(8));
}`)
}

func TestPointerWalkAllModes(t *testing.T) {
	runAllModes(t, `
int data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
void main() {
	int *p = data;
	int s = 0;
	for (int i = 0; i < 8; i++) {
		s += *p;
		p++;
	}
	printi(s);
	int *q = data;
	s = 0;
	while (q < data + 8) {
		s += *q++;
	}
	printi(s);
}`)
}

func TestMallocAllModes(t *testing.T) {
	runAllModes(t, `
void main() {
	int *buf = malloc(40);
	for (int i = 0; i < 10; i++) buf[i] = i * 3;
	int s = 0;
	for (int i = 0; i < 10; i++) s += buf[i];
	printi(s);
	free(buf);
	char *c = malloc(16);
	for (int i = 0; i < 16; i++) c[i] = i;
	int t = 0;
	for (int i = 0; i < 16; i++) t += c[i];
	printi(t);
	free(c);
}`)
}

func TestCharAndStringsAllModes(t *testing.T) {
	runAllModes(t, `
char msg[6] = "hello";
int strlen6(char *s) {
	int n = 0;
	while (s[n] != 0) n++;
	return n;
}
void main() {
	printi(strlen6(msg));
	for (int i = 0; i < 5; i++) printc(msg[i]);
	char local[4];
	local[0] = 'a'; local[1] = 'b'; local[2] = 0; local[3] = 0;
	printi(strlen6(local));
}`)
}

func TestMatrixMultiplyAllModes(t *testing.T) {
	runAllModes(t, `
int a[16];
int b[16];
int c[16];
void main() {
	for (int i = 0; i < 16; i++) {
		a[i] = i + 1;
		b[i] = 16 - i;
	}
	for (int i = 0; i < 4; i++) {
		for (int j = 0; j < 4; j++) {
			int s = 0;
			for (int k = 0; k < 4; k++) {
				s += a[i*4+k] * b[k*4+j];
			}
			c[i*4+j] = s;
		}
	}
	int sum = 0;
	for (int i = 0; i < 16; i++) sum += c[i];
	printi(sum);
}`)
}

func TestFunctionPointerArgsAllModes(t *testing.T) {
	runAllModes(t, `
int sum(int *p, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += p[i];
	return s;
}
void fill(int *p, int n, int v) {
	for (int i = 0; i < n; i++) p[i] = v + i;
}
int g[12];
void main() {
	fill(g, 12, 5);
	printi(sum(g, 12));
	printi(sum(&g[4], 4));
	int *h = malloc(20);
	fill(h, 5, 100);
	printi(sum(h, 5));
	free(h);
}`)
}

// --- Bound violation detection -----------------------------------------

const overflowLoop = `
int a[10];
int sink;
void main() {
	for (int i = 0; i <= 10; i++) {
		a[i] = i;
	}
	printi(a[0]);
}`

func TestOverflowDetection(t *testing.T) {
	// GCC: silently writes one past the end (into the next global).
	if _, err := runMode(t, overflowLoop, Config{Mode: vm.ModeGCC}); err != nil {
		t.Fatalf("gcc must not detect: %v", err)
	}
	// BCC: software check fault.
	_, err := runMode(t, overflowLoop, Config{Mode: vm.ModeBCC})
	var f *vm.Fault
	if !errors.As(err, &f) || f.Kind != vm.FaultSoftwareCheck {
		t.Fatalf("bcc: want software bound violation, got %v", err)
	}
	// Cash: the segment limit hardware raises #GP.
	_, err = runMode(t, overflowLoop, Config{Mode: vm.ModeCash})
	if !errors.As(err, &f) || f.Kind != vm.FaultSegmentation {
		t.Fatalf("cash: want segmentation fault, got %v", err)
	}
	if !f.IsBoundViolation() {
		t.Fatal("cash fault must count as a bound violation")
	}
}

func TestUnderflowDetection(t *testing.T) {
	src := `
int a[10];
void main() {
	for (int i = 0; i < 3; i++) {
		a[i - 2] = 7;
	}
}`
	_, err := runMode(t, src, Config{Mode: vm.ModeCash})
	var f *vm.Fault
	if !errors.As(err, &f) || !f.IsBoundViolation() {
		t.Fatalf("cash: lower bound violation must fault, got %v", err)
	}
	_, err = runMode(t, src, Config{Mode: vm.ModeBCC})
	if !errors.As(err, &f) || !f.IsBoundViolation() {
		t.Fatalf("bcc: lower bound violation must fault, got %v", err)
	}
}

func TestMallocOverflowDetection(t *testing.T) {
	src := `
void main() {
	char *buf = malloc(16);
	for (int i = 0; i < 32; i++) {
		buf[i] = 'A';
	}
}`
	_, err := runMode(t, src, Config{Mode: vm.ModeCash})
	var f *vm.Fault
	if !errors.As(err, &f) || f.Kind != vm.FaultSegmentation {
		t.Fatalf("cash: heap overflow must #GP, got %v", err)
	}
	_, err = runMode(t, src, Config{Mode: vm.ModeBCC})
	if !errors.As(err, &f) || f.Kind != vm.FaultSoftwareCheck {
		t.Fatalf("bcc: heap overflow must fail software check, got %v", err)
	}
}

func TestLocalArrayOverflowDetection(t *testing.T) {
	src := `
void smash(int n) {
	int buf[8];
	for (int i = 0; i < n; i++) buf[i] = i;
}
void main() {
	smash(9);
}`
	_, err := runMode(t, src, Config{Mode: vm.ModeCash})
	var f *vm.Fault
	if !errors.As(err, &f) || f.Kind != vm.FaultSegmentation {
		t.Fatalf("cash: stack-buffer overflow must #GP, got %v", err)
	}
}

// TestCashLoopOnlyPolicy: references outside loops are not checked (§1);
// the same overflow inside a loop is caught.
func TestCashLoopOnlyPolicy(t *testing.T) {
	outside := `
int a[4];
void main() {
	a[5] = 1;
	printi(a[5]);
}`
	res := mustRunMode(t, outside, Config{Mode: vm.ModeCash})
	if res.Output[0] != 1 {
		t.Fatalf("outside-loop write must succeed unchecked, got %v", res.Output)
	}
	if res.Stats.HWChecks != 0 {
		t.Fatalf("outside-loop refs must not be hardware-checked: %d", res.Stats.HWChecks)
	}

	inside := `
int a[4];
void main() {
	for (int i = 5; i < 6; i++) a[i] = 1;
}`
	_, err := runMode(t, inside, Config{Mode: vm.ModeCash})
	var f *vm.Fault
	if !errors.As(err, &f) || !f.IsBoundViolation() {
		t.Fatalf("inside-loop overflow must be caught, got %v", err)
	}
}

// TestSegRegSpill: a loop touching more arrays than segment registers
// falls back to software checks for the spilled arrays (§3.7).
func TestSegRegSpill(t *testing.T) {
	src := `
int a[4]; int b[4]; int c[4]; int d[4]; int e[4];
void main() {
	for (int i = 0; i < 4; i++) {
		a[i] = i; b[i] = i; c[i] = i; d[i] = i; e[i] = i;
	}
	printi(a[0] + b[1] + c[2] + d[3] + e[0]);
}`
	res := mustRunMode(t, src, Config{Mode: vm.ModeCash})
	if res.Stats.HWChecks == 0 {
		t.Fatal("first three arrays must use hardware checks")
	}
	if res.Stats.SWChecks == 0 {
		t.Fatal("arrays beyond the 3-register budget must use software checks")
	}
	// 3 arrays hardware-checked * 4 iterations = 12; 2 spilled * 4 = 8.
	if res.Stats.HWChecks != 12 {
		t.Fatalf("HWChecks = %d, want 12", res.Stats.HWChecks)
	}
	if res.Stats.SWChecks != 8 {
		t.Fatalf("SWChecks = %d, want 8", res.Stats.SWChecks)
	}

	// With 4 segment registers (SS freed, §3.7) only one array spills.
	res4 := mustRunMode(t, src, Config{Mode: vm.ModeCash, SegRegs: SegRegsWithSS})
	if res4.Stats.SWChecks != 4 {
		t.Fatalf("4-reg SWChecks = %d, want 4", res4.Stats.SWChecks)
	}
	// With 2 registers, three arrays spill.
	res2 := mustRunMode(t, src, Config{Mode: vm.ModeCash, SegRegs: DefaultSegRegs[:2]})
	if res2.Stats.SWChecks != 12 {
		t.Fatalf("2-reg SWChecks = %d, want 12", res2.Stats.SWChecks)
	}
}

// TestSpilledArrayStillChecked: the software fall-back must still catch
// overflows on spilled arrays.
func TestSpilledArrayStillChecked(t *testing.T) {
	src := `
int a[4]; int b[4]; int c[4]; int d[4];
void main() {
	for (int i = 0; i < 5; i++) {
		a[0] = 0; b[0] = 0; c[0] = 0;
		d[i] = i;
	}
}`
	_, err := runMode(t, src, Config{Mode: vm.ModeCash})
	var f *vm.Fault
	if !errors.As(err, &f) || f.Kind != vm.FaultSoftwareCheck {
		t.Fatalf("spilled array overflow must fail the software check, got %v", err)
	}
}

// TestMovingPointerInLoop: p++ keeps its segment register; the reference
// offset is recomputed from the live pointer (§3.3 variant).
func TestMovingPointerInLoop(t *testing.T) {
	src := `
int data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
void main() {
	int *p = data;
	int s = 0;
	for (int i = 0; i < 8; i++) {
		s += *p;
		p++;
	}
	printi(s);
}`
	res := mustRunMode(t, src, Config{Mode: vm.ModeCash})
	if res.Output[0] != 36 {
		t.Fatalf("sum = %d, want 36", res.Output[0])
	}
	if res.Stats.HWChecks != 8 {
		t.Fatalf("HWChecks = %d, want 8 (every deref hardware-checked)", res.Stats.HWChecks)
	}
	// And the overflowing variant faults.
	bad := `
int data[8];
void main() {
	int *p = data;
	int s = 0;
	for (int i = 0; i <= 8; i++) {
		s += *p;
		p++;
	}
	printi(s);
}`
	_, err := runMode(t, bad, Config{Mode: vm.ModeCash})
	var f *vm.Fault
	if !errors.As(err, &f) || f.Kind != vm.FaultSegmentation {
		t.Fatalf("walking past the end must #GP, got %v", err)
	}
}

// TestReassignedPointerExcluded: p = q inside the loop would make a held
// segment register stale, so such pointers take the software path.
func TestReassignedPointerExcluded(t *testing.T) {
	src := `
int a[4] = {1, 2, 3, 4};
int b[4] = {5, 6, 7, 8};
void main() {
	int *p = a;
	int s = 0;
	for (int i = 0; i < 4; i++) {
		s += p[i];
		p = b;
	}
	printi(s);
}`
	res := mustRunMode(t, src, Config{Mode: vm.ModeCash})
	if res.Output[0] != 1+6+7+8 {
		t.Fatalf("sum = %d, want 22", res.Output[0])
	}
}

func TestStaticStats(t *testing.T) {
	p := compile(t, overflowLoop, Config{Mode: vm.ModeCash})
	if p.Stats[StatHWChecks] == 0 {
		t.Error("cash must record static hardware checks")
	}
	if p.Stats[StatSegments] == 0 {
		t.Error("cash must record global segments")
	}
	pb := compile(t, overflowLoop, Config{Mode: vm.ModeBCC})
	if pb.Stats[StatSWChecks] == 0 {
		t.Error("bcc must record static software checks")
	}
	if pb.Stats[StatHWChecks] != 0 {
		t.Error("bcc must not emit hardware checks")
	}
}

// TestCodeSizeOrdering: generated text size must order GCC < Cash < BCC,
// the Table 2 / Table 6 shape.
func TestCodeSizeOrdering(t *testing.T) {
	// Large enough that per-reference check code dominates the fixed
	// Cash set-up (startup segment allocation, loop preambles).
	src := `
int a[64];
int b[64];
int c[64];
int dot(int *x, int *y, int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += x[i] * y[i];
	return s;
}
void scale(int *x, int n, int k) {
	for (int i = 0; i < n; i++) x[i] = x[i] * k + x[i] / 2 - x[i] % 3;
}
void main() {
	for (int i = 0; i < 64; i++) { a[i] = i; b[i] = 2 * i; c[i] = 3 * i; }
	for (int i = 0; i < 64; i++) b[i] = a[i] * 2 + c[i];
	for (int i = 1; i < 63; i++) c[i] = a[i-1] + a[i+1] + b[i] - c[i];
	scale(a, 64, 3);
	scale(b, 64, 5);
	printi(dot(a, b, 64) + dot(b, c, 64) + dot(a, c, 64));
	int s = 0;
	for (int i = 0; i < 64; i++) s += a[i] + b[i] + c[i];
	printi(s);
}`
	gcc := compile(t, src, Config{Mode: vm.ModeGCC}).CodeSize()
	cash := compile(t, src, Config{Mode: vm.ModeCash}).CodeSize()
	bcc := compile(t, src, Config{Mode: vm.ModeBCC}).CodeSize()
	if !(gcc < cash && cash < bcc) {
		t.Fatalf("code size ordering gcc=%d cash=%d bcc=%d, want gcc < cash < bcc", gcc, cash, bcc)
	}
}

// TestCycleOrdering: on an array-heavy kernel, Cash overhead over GCC must
// be far below BCC overhead — the paper's headline result (Table 1).
func TestCycleOrdering(t *testing.T) {
	src := `
int a[256];
int b[256];
int c[256];
void main() {
	for (int i = 0; i < 256; i++) { a[i] = i; b[i] = 2 * i; }
	for (int rep = 0; rep < 50; rep++) {
		for (int i = 0; i < 256; i++) {
			c[i] = a[i] * b[i] + c[i];
		}
	}
	int s = 0;
	for (int i = 0; i < 256; i++) s += c[i];
	printi(s);
}`
	results := runAllModes(t, src)
	gcc := results[vm.ModeGCC].Cycles
	cash := results[vm.ModeCash].Cycles
	bcc := results[vm.ModeBCC].Cycles
	cashOv := float64(cash-gcc) / float64(gcc)
	bccOv := float64(bcc-gcc) / float64(gcc)
	if cashOv > 0.15 {
		t.Errorf("cash overhead = %.1f%%, want small (paper: <4%%)", cashOv*100)
	}
	if bccOv < 0.3 {
		t.Errorf("bcc overhead = %.1f%%, want large (paper: ~100%%)", bccOv*100)
	}
	if cashOv >= bccOv {
		t.Errorf("cash (%.1f%%) must beat bcc (%.1f%%)", cashOv*100, bccOv*100)
	}
	// All Cash checks on this kernel are in hardware.
	if results[vm.ModeCash].Stats.SWChecks != 0 {
		t.Errorf("cash SWChecks = %d, want 0", results[vm.ModeCash].Stats.SWChecks)
	}
}

// TestLocalArraySegmentCache: a function with a local array called inside
// a loop reuses its segment through the 3-entry cache (§3.6).
func TestLocalArraySegmentCache(t *testing.T) {
	src := `
int work(int n) {
	int buf[8];
	for (int i = 0; i < 8; i++) buf[i] = n + i;
	int s = 0;
	for (int i = 0; i < 8; i++) s += buf[i];
	return s;
}
void main() {
	int total = 0;
	for (int i = 0; i < 100; i++) total += work(i);
	printi(total);
}`
	res := mustRunMode(t, src, Config{Mode: vm.ModeCash})
	st := res.LDTStats
	if st.AllocRequests < 100 {
		t.Fatalf("AllocRequests = %d, want >= 100", st.AllocRequests)
	}
	if st.HitRatio() < 0.9 {
		t.Fatalf("cache hit ratio = %.2f, want ~0.99", st.HitRatio())
	}
}

// TestSkipReadChecks: the §3.8 security-only variant checks writes but
// not reads.
func TestSkipReadChecks(t *testing.T) {
	read := `
int a[4];
int sink;
void main() {
	int s = 0;
	for (int i = 0; i < 6; i++) s += a[i];
	printi(s);
}`
	// Normal Cash catches the read overflow.
	if _, err := runMode(t, read, Config{Mode: vm.ModeCash}); err == nil {
		t.Fatal("read overflow must be caught by default")
	}
	// Security-only mode lets it pass...
	if _, err := runMode(t, read, Config{Mode: vm.ModeCash, SkipReadChecks: true}); err != nil {
		t.Fatalf("security-only mode must skip read checks: %v", err)
	}
	// ...but still catches write overflows.
	if _, err := runMode(t, overflowLoop, Config{Mode: vm.ModeCash, SkipReadChecks: true}); err == nil {
		t.Fatal("write overflow must still be caught")
	}
}

func TestGlobalSegmentsAllocatedAtStartup(t *testing.T) {
	src := `
int a[4]; int b[8]; char s[16];
void main() { printi(0); }
`
	p := compile(t, src, Config{Mode: vm.ModeCash})
	m, err := vm.New(p, vm.ModeCash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.LDTManager().Live(); got != 3 {
		t.Fatalf("live segments = %d, want 3 (one per global array)", got)
	}
}

func TestNestedLoopsOneSetup(t *testing.T) {
	// Segment set-up must hoist outside the outermost loop: the number of
	// segment register loads must not scale with the iteration count.
	src := `
int a[8];
void main() {
	for (int i = 0; i < 8; i++) {
		for (int j = 0; j < 8; j++) {
			a[j] = i * j;
		}
	}
	printi(a[7]);
}`
	res := mustRunMode(t, src, Config{Mode: vm.ModeCash})
	// One MOVSR for the preamble, plus possibly save/restore in main.
	if res.Stats.SegRegLoads > 4 {
		t.Fatalf("SegRegLoads = %d, want hoisted (<=4)", res.Stats.SegRegLoads)
	}
	if res.Stats.HWChecks != 64 {
		t.Fatalf("HWChecks = %d, want 64", res.Stats.HWChecks)
	}
}

func TestCastsAllModes(t *testing.T) {
	runAllModes(t, `
void main() {
	char *c = malloc(8);
	int *p = (int*)c;
	for (int i = 0; i < 2; i++) p[i] = 0x01020304;
	int s = 0;
	for (int i = 0; i < 8; i++) s += c[i];
	printi(s);
	free(c);
}`)
}

func TestAddressOfScalarAllModes(t *testing.T) {
	runAllModes(t, `
void bump(int *p) { *p = *p + 1; }
void main() {
	int x = 41;
	bump(&x);
	printi(x);
}`)
}

func TestPointerDifferenceAllModes(t *testing.T) {
	runAllModes(t, `
int a[16];
void main() {
	int *p = &a[3];
	int *q = &a[11];
	printi(q - p);
}`)
}

func TestCompoundOnArrayAllModes(t *testing.T) {
	runAllModes(t, `
int a[4] = {1, 2, 3, 4};
void main() {
	for (int i = 0; i < 4; i++) {
		a[i] += 10;
		a[i] *= 2;
	}
	for (int i = 0; i < 4; i++) printi(a[i]);
	int b[2];
	b[0] = 5; b[1] = 7;
	for (int i = 0; i < 2; i++) b[i]++;
	printi(b[0] + b[1]);
}`)
}

func TestWhileWithPointerCondAllModes(t *testing.T) {
	runAllModes(t, `
char s[12] = "hello world";
void main() {
	char *p = s;
	int n = 0;
	while (*p) {
		n++;
		p++;
	}
	printi(n);
}`)
}

func TestGlobalConstExprInit(t *testing.T) {
	runAllModes(t, `
int n = 4 * 4;
int mask = (1 << 6) - 1;
void main() { printi(n); printi(mask); }
`)
}

// TestFrameReuseAcrossCalls: deep call chains with local arrays must
// allocate and free segments in a balanced way.
func TestFrameReuseAcrossCalls(t *testing.T) {
	src := `
int leaf(int n) {
	int t[4];
	for (int i = 0; i < 4; i++) t[i] = n;
	return t[3];
}
int mid(int n) {
	int u[4];
	for (int i = 0; i < 4; i++) u[i] = leaf(n + i);
	return u[0] + u[3];
}
void main() {
	printi(mid(10));
}`
	res := mustRunMode(t, src, Config{Mode: vm.ModeCash})
	if res.Output[0] != 10+13 {
		t.Fatalf("output = %v, want [23]", res.Output)
	}
	// All segments freed at exit.
	if live := res.LDTStats.PeakLive; live < 2 {
		t.Fatalf("PeakLive = %d, want >= 2 (nested frames)", live)
	}
}
