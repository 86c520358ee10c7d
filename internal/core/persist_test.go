package core

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cash/internal/ldt"
	"cash/internal/obs"
	"cash/internal/vm"
	"cash/internal/workload"
	"cash/internal/x86seg"
)

// allPasses is the full optional pass pipeline.
var allPasses = []string{"rce", "hoist", "affine", "chop"}

// codecWorkloads are the 26 suite programs: every workload, the range
// kernels and the stencil kernels.
func codecWorkloads() []workload.Workload {
	ws := append(workload.All(), workload.RangeKernels()...)
	return append(ws, workload.StencilKernels()...)
}

// TestArtifactCodecRoundtrip pins that every suite program, under every
// strategy with and without the pass pipeline, decodes to exactly the
// Program and Options it was built with, encodes to the same bytes
// every time, and runs byte-identically to the compiled artifact.
func TestArtifactCodecRoundtrip(t *testing.T) {
	ws := codecWorkloads()
	if len(ws) != 26 {
		t.Fatalf("%d suite programs, want 26", len(ws))
	}
	for i, w := range ws {
		for _, name := range StrategyNames() {
			for _, passes := range [][]string{nil, allPasses} {
				art, err := Build(w.Source, Mode(name), Options{Passes: passes})
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, name, err)
				}
				// -short (the race lane) checks the codec for every
				// program but runs only the first one, under every
				// strategy and both pass sets.
				label := w.Name + "/" + name + "/" + strings.Join(passes, ",")
				assertArtifactRoundtrip(t, label, art, i == 0 || !testing.Short())
			}
		}
	}
}

func assertArtifactRoundtrip(t *testing.T, label string, art *Artifact, run bool) {
	t.Helper()
	data, ok, err := EncodeArtifact(art)
	if err != nil || !ok {
		t.Fatalf("%s: encode: ok=%v err=%v", label, ok, err)
	}
	if again, _, _ := EncodeArtifact(art); !bytes.Equal(again, data) {
		t.Fatalf("%s: two encodings differ", label)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	if back.Mode != art.Mode {
		t.Fatalf("%s: mode changed to %v", label, back.Mode)
	}
	if !reflect.DeepEqual(back.Options(), art.Options()) {
		t.Fatalf("%s: options drifted: %+v vs %+v", label, back.Options(), art.Options())
	}
	assertSameProgram(t, label, back.Program, art.Program)
	if back.DumpIR() != "" {
		t.Fatalf("%s: decoded artifact should have no IR", label)
	}
	if re, _, _ := EncodeArtifact(back); !bytes.Equal(re, data) {
		t.Fatalf("%s: decoded artifact re-encodes differently", label)
	}
	if !run {
		return
	}
	want, werr := art.Run()
	got, gerr := back.Run()
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("%s: run error %v, want %v", label, gerr, werr)
	}
	if want.Result == nil || got.Result == nil {
		t.Fatalf("%s: run produced no result", label)
	}
	if !reflect.DeepEqual(got.Output, want.Output) {
		t.Fatalf("%s: output %v, want %v", label, got.Output, want.Output)
	}
	if got.Cycles != want.Cycles || got.Stats != want.Stats {
		t.Fatalf("%s: decoded run diverged: cycles %d vs %d, stats %+v vs %+v",
			label, got.Cycles, want.Cycles, got.Stats, want.Stats)
	}
}

// assertSameProgram compares every exported field of two programs; the
// unexported predecode and superblock caches are per-process.
func assertSameProgram(t *testing.T, label string, got, want *vm.Program) {
	t.Helper()
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < g.NumField(); i++ {
		f := g.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Fatalf("%s: Program.%s drifted", label, f.Name)
		}
	}
}

// copyProgram returns a deep copy of art's program, made by a codec
// round trip (a Program must not be copied by value).
func copyProgram(t *testing.T, art *Artifact) *vm.Program {
	t.Helper()
	data, ok, err := EncodeArtifact(art)
	if err != nil || !ok {
		t.Fatalf("encode: ok=%v err=%v", ok, err)
	}
	back, err := DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	return back.Program
}

// TestArtifactCodecKeepsNilAndEmpty pins that nil and empty stay
// distinct for every slice and map the codec writes.
func TestArtifactCodecKeepsNilAndEmpty(t *testing.T) {
	art, err := Build(sumKernel, ModeCash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, empty := range []bool{false, true} {
		p := copyProgram(t, art)
		p.Instrs, p.Funcs, p.Data, p.Stats, p.Regions = nil, nil, nil, nil, nil
		opts := art.opts
		opts.Passes = nil
		if empty {
			p.Instrs, p.Funcs, p.Data = []vm.Instr{}, map[string]int{}, []byte{}
			p.Stats, p.Regions = map[string]uint64{}, []vm.Region{}
			opts.Passes = []string{}
		}
		a := &Artifact{Mode: art.Mode, Program: p, vmMode: art.vmMode, opts: opts}
		assertArtifactRoundtrip(t, "empty="+map[bool]string{false: "nil", true: "empty"}[empty], a, false)
	}
}

// TestArtifactCodecRefusesTrace pins that a trace-bearing artifact is
// never persisted — the trace is a live pointer into this process.
func TestArtifactCodecRefusesTrace(t *testing.T) {
	art, err := Build(sumKernel, ModeCash, Options{EventTrace: obs.NewTrace(8)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := EncodeArtifact(art); ok || err != nil {
		t.Fatalf("trace-bearing artifact must not encode: ok=%v err=%v", ok, err)
	}
}

// TestArtifactCodecRefusesLossyPrograms pins that a program the format
// cannot hold exactly is refused rather than silently changed.
func TestArtifactCodecRefusesLossyPrograms(t *testing.T) {
	art, err := Build(sumKernel, ModeCash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(p *vm.Program){
		"stray imm on a register operand": func(p *vm.Program) {
			p.Instrs[0].Dst = vm.Operand{Kind: vm.KindReg, Reg: vm.EAX, Imm: 7}
		},
		"stray mem on a none operand": func(p *vm.Program) {
			p.Instrs[0].Src = vm.Operand{Mem: vm.MemRef{Disp: 4}}
		},
		"unknown operand kind": func(p *vm.Program) {
			p.Instrs[0].Dst = vm.Operand{Kind: vm.KindSReg + 1}
		},
		"register out of range": func(p *vm.Program) {
			p.Instrs[0].Dst = vm.R(vm.NumRegs)
		},
		"segment register out of range": func(p *vm.Program) {
			p.Instrs[0].Src = vm.M(vm.MemRef{Seg: x86seg.NumSegRegs})
		},
		"data image above the cap": func(p *vm.Program) {
			p.Data = make([]byte, maxDataImage+1)
		},
	}
	for name, mutate := range cases {
		p := copyProgram(t, art)
		mutate(p)
		a := &Artifact{Mode: art.Mode, Program: p, vmMode: art.vmMode, opts: art.opts}
		if _, ok, err := EncodeArtifact(a); ok || err != nil {
			t.Errorf("%s: must be refused: ok=%v err=%v", name, ok, err)
		}
	}
}

// TestDecodeArtifactRejectsGarbage pins that malformed blobs fail to
// decode: garbage, a version mismatch, trailing bytes, a non-minimal
// varint, an unknown operand kind, and a blob of the other kind.
func TestDecodeArtifactRejectsGarbage(t *testing.T) {
	art, err := Build(sumKernel, ModeCash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, _, _ := EncodeArtifact(art)
	run, _ := EncodeRunOutcome(&RunResult{Result: &vm.Result{}}, nil)

	// The first instruction's kinds byte follows the tag, version, mode,
	// options, program name and instruction count.
	e := &encoder{}
	e.byte(tagArtifact)
	e.uint(persistVersion)
	e.str(string(art.Mode))
	e.options(&art.opts)
	e.str(art.Program.Name)
	e.count(len(art.Program.Instrs), false)
	badKind := append([]byte(nil), data...)
	badKind[len(e.buf)+1] = 0x0f

	for _, c := range []struct {
		name string
		blob []byte
		run  bool // decode as a run outcome, not an artifact
	}{
		{"garbage", []byte("not an artifact blob"), false},
		{"old version", append([]byte{tagArtifact, persistVersion - 1}, data[2:]...), false},
		{"trailing", append(append([]byte(nil), data...), 0), false},
		{"non-minimal", append([]byte{tagArtifact, persistVersion | 0x80, 0}, data[2:]...), false},
		{"bad kind", badKind, false},
		{"run blob as artifact", run, false},
		{"artifact blob as run", data, true},
		{"trailing after run", append(append([]byte(nil), run...), 0), true},
	} {
		if c.run {
			_, _, err = DecodeRunOutcome(c.blob)
		} else {
			_, err = DecodeArtifact(c.blob)
		}
		if err == nil {
			t.Errorf("%s: decode must fail", c.name)
		}
	}
}

// TestDecodePrefixesFail pins that every strict prefix of a valid blob
// is an error, never a panic or a shorter value.
func TestDecodePrefixesFail(t *testing.T) {
	art, err := Build(sumKernel, ModeCash, Options{Passes: allPasses})
	if err != nil {
		t.Fatal(err)
	}
	data, _, _ := EncodeArtifact(art)
	for n := 0; n < len(data); n++ {
		if _, err := DecodeArtifact(data[:n]); err == nil {
			t.Fatalf("artifact prefix of %d/%d bytes decoded", n, len(data))
		}
	}
	for _, c := range runOutcomeCases(t) {
		run, ok := EncodeRunOutcome(c.res, c.err)
		if !ok {
			t.Fatalf("%s: must encode", c.name)
		}
		for n := 0; n < len(run); n++ {
			if _, _, err := DecodeRunOutcome(run[:n]); err == nil {
				t.Fatalf("%s: run prefix of %d/%d bytes decoded", c.name, n, len(run))
			}
		}
	}
}

// TestDecodeHostileLengthsDoNotAllocate pins that a declared length is
// checked before it sizes an allocation: 2^31 instructions in a short
// blob, and a data image one byte above the cap.
func TestDecodeHostileLengthsDoNotAllocate(t *testing.T) {
	prefix := func() *encoder {
		e := &encoder{}
		e.byte(tagArtifact)
		e.uint(persistVersion)
		e.str(string(ModeCash))
		e.options(&Options{})
		e.str("hostile")
		return e
	}
	instrs := prefix()
	instrs.count(1<<31, false)
	instrs.buf = append(instrs.buf, make([]byte, 64)...)

	image := prefix()
	image.count(0, false) // no instructions
	image.int(0)          // entry
	image.count(0, true)  // nil funcs
	image.count(maxDataImage+1, false)
	image.uint(0) // no runs

	for name, blob := range map[string][]byte{"2^31 instructions": instrs.buf, "data above cap": image.buf} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeArtifact(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: must fail", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: decode allocated %d bytes", name, grew)
		}
	}
}

type runOutcomeCase struct {
	name string
	res  *RunResult
	err  error
}

// runOutcomeCases are the persistable outcome shapes: real runs (clean,
// violating, step-limited, step-only and tier-2) and synthetic edge
// cases for every optional part of an outcome.
func runOutcomeCases(t testing.TB) []runOutcomeCase {
	t.Helper()
	run := func(src string, opts Options) (*RunResult, error) {
		art, err := Build(src, ModeCash, opts)
		if err != nil {
			t.Fatal(err)
		}
		return art.Run()
	}
	clean, err := run(sumKernel, Options{})
	if err != nil || clean.SB == nil {
		t.Fatalf("clean tier-2 run: err=%v", err)
	}
	step, err := run(sumKernel, Options{StepOnly: true})
	if err != nil || step.SB != nil {
		t.Fatalf("clean step run: err=%v", err)
	}
	violation, err := run(`
int a[4];
void main() { for (int i = 0; i < 8; i++) a[i] = i; }`, Options{})
	if err != nil || violation.Violation == nil {
		t.Fatalf("expected a violation: err=%v", err)
	}
	limited, limitErr := run(sumKernel, Options{StepLimit: 10})
	if limitErr == nil {
		t.Fatal("expected a step-limit fault")
	}
	fault := &vm.Fault{Kind: vm.FaultDivide, IP: 12, Instr: "idiv %ecx"}
	full := &vm.Result{
		Cycles: math.MaxUint64, ExitCode: -3, Output: []int32{math.MinInt32, 0, math.MaxInt32},
		Stats:    vm.Stats{Instructions: 9, FlatFallbacks: 1},
		LDTStats: ldt.Stats{AllocRequests: 4, Frees: 2, PeakLive: 3},
		SB:       &vm.SBStats{Compiled: 1, InstrsRetired: 5},
	}
	return []runOutcomeCase{
		{"clean tier-2", clean, nil},
		{"clean step-only", step, nil},
		{"violation with cause", violation, nil},
		{"step-limit fault", limited, limitErr},
		{"nil result with a fault", nil, fault},
		{"fault with cause", nil, &vm.Fault{Kind: vm.FaultPage, Cause: errors.New("page not present")}},
		{"result without vm.Result", &RunResult{HeapSpan: 7}, nil},
		{"violation without cause", &RunResult{Result: full, Violation: &vm.Fault{Kind: vm.FaultSoftwareCheck, IP: 4}}, nil},
		{"nil output, nil SB", &RunResult{Result: &vm.Result{Cycles: 1}}, nil},
		{"empty output", &RunResult{Result: &vm.Result{Output: []int32{}}}, nil},
		{"every field set", &RunResult{Result: full, HeapSpan: math.MaxUint32}, fault},
	}
}

// TestRunOutcomeCodecRoundtrip covers every persistable outcome shape.
func TestRunOutcomeCodecRoundtrip(t *testing.T) {
	for _, c := range runOutcomeCases(t) {
		t.Run(c.name, func(t *testing.T) { assertOutcomeRoundtrip(t, c.res, c.err) })
	}
}

func assertOutcomeRoundtrip(t *testing.T, res *RunResult, runErr error) {
	t.Helper()
	data, ok := EncodeRunOutcome(res, runErr)
	if !ok {
		t.Fatalf("outcome (res=%v err=%v) must encode", res != nil, runErr)
	}
	if again, _ := EncodeRunOutcome(res, runErr); !bytes.Equal(again, data) {
		t.Fatal("two encodings differ")
	}
	gotRes, gotErr, err := DecodeRunOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if re, _ := EncodeRunOutcome(gotRes, gotErr); !bytes.Equal(re, data) {
		t.Fatal("decoded outcome re-encodes differently")
	}
	if (gotRes == nil) != (res == nil) {
		t.Fatalf("result presence changed: got %v want %v", gotRes != nil, res != nil)
	}
	if res != nil {
		if !reflect.DeepEqual(gotRes.Result, res.Result) {
			t.Fatalf("result drifted: %+v vs %+v", gotRes.Result, res.Result)
		}
		if gotRes.HeapSpan != res.HeapSpan {
			t.Fatalf("heap span %d, want %d", gotRes.HeapSpan, res.HeapSpan)
		}
		assertSameFault(t, "violation", gotRes.Violation, res.Violation)
	}
	var want *vm.Fault
	if runErr != nil {
		want = runErr.(*vm.Fault)
	}
	got, _ := gotErr.(*vm.Fault)
	if gotErr != nil && got == nil {
		t.Fatalf("run error %T is not a *vm.Fault", gotErr)
	}
	assertSameFault(t, "run error", got, want)
}

// assertSameFault compares a decoded fault with the original: every
// field, with the cause reduced to its presence and text.
func assertSameFault(t *testing.T, what string, got, want *vm.Fault) {
	t.Helper()
	switch {
	case want == nil && got == nil:
		return
	case want == nil:
		t.Fatalf("%s appeared from nowhere: %v", what, got)
	case got == nil:
		t.Fatalf("%s lost (want %v)", what, want)
	}
	if got.Kind != want.Kind || got.IP != want.IP || got.Instr != want.Instr ||
		(got.Cause == nil) != (want.Cause == nil) || got.Error() != want.Error() {
		t.Fatalf("%s %#v, want %#v", what, got, want)
	}
}

// TestRunOutcomeCodecRefusals pins the never-persist cases: canceled
// runs and non-Fault errors.
func TestRunOutcomeCodecRefusals(t *testing.T) {
	canceled := &vm.Fault{Kind: vm.FaultCanceled, IP: 3, Instr: "add"}
	if _, ok := EncodeRunOutcome(nil, canceled); ok {
		t.Fatal("canceled outcome must not encode")
	}
	if _, ok := EncodeRunOutcome(nil, errExotic{}); ok {
		t.Fatal("non-Fault error must not encode")
	}
}

type errExotic struct{}

func (errExotic) Error() string { return "exotic" }

// TestPersistedFieldSets pins the exported fields of every type the
// codecs write. A new field fails here until the codec — and this
// list — learn it; a reflection-based encoder would have carried it
// silently, a hand-written one would silently drop it.
func TestPersistedFieldSets(t *testing.T) {
	want := map[reflect.Type][]string{
		reflect.TypeOf(vm.Program{}): {
			"Name string", "Instrs []vm.Instr", "Entry int", "Funcs map[string]int",
			"Data []uint8", "DataBase uint32", "HeapBase uint32", "StackTop uint32",
			"Mode string", "Stats map[string]uint64", "Regions []vm.Region",
			"Sites *vm.SiteTable",
		},
		reflect.TypeOf(vm.Instr{}): {
			"Op vm.Op", "Dst vm.Operand", "Src vm.Operand", "Size uint8",
			"Target int", "Sym string", "Note vm.Note", "Label string",
		},
		reflect.TypeOf(vm.Operand{}): {
			"Kind vm.OperandKind", "Reg vm.Reg", "SReg x86seg.SegReg", "Imm int32", "Mem vm.MemRef",
		},
		reflect.TypeOf(vm.MemRef{}): {
			"Seg x86seg.SegReg", "Base vm.Reg", "HasBase bool", "Index vm.Reg",
			"HasIndex bool", "Scale uint8", "Disp int32",
		},
		reflect.TypeOf(vm.Region{}): {"Start int", "End int", "Name string"},
		reflect.TypeOf(vm.Result{}): {
			"Cycles uint64", "ExitCode int32", "Output []int32", "Stats vm.Stats",
			"LDTStats ldt.Stats", "SB *vm.SBStats",
		},
		reflect.TypeOf(vm.Stats{}): {
			"Instructions uint64", "HWChecks uint64", "SWChecks uint64", "BoundInstrs uint64",
			"BndChecks uint64", "BndLoads uint64", "BndStores uint64", "SegRegLoads uint64",
			"MallocCalls uint64", "PageWalks uint64", "LoopIters uint64", "SpilledIters uint64",
			"FlatFallbacks uint64",
		},
		reflect.TypeOf(vm.SBStats{}): {
			"Compiled uint64", "Entries uint64", "Deopts uint64", "InstrsRetired uint64",
		},
		reflect.TypeOf(ldt.Stats{}): {
			"AllocRequests uint64", "CacheHits uint64", "KernelCalls uint64", "Frees uint64", "PeakLive int",
		},
		reflect.TypeOf(vm.Fault{}): {
			"Kind vm.FaultKind", "IP int", "Instr string", "Cause error",
		},
		reflect.TypeOf(Options{}): {
			"SegRegs int", "SkipReadChecks bool", "UseBoundInstr bool", "WithoutCallGate bool",
			"ElectricFence bool", "Passes []string", "StepLimit uint64", "StepOnly bool",
			"Oracle bool", "EventTrace *obs.Trace",
		},
	}
	for ty, fields := range want {
		var got []string
		for i := 0; i < ty.NumField(); i++ {
			if f := ty.Field(i); f.IsExported() {
				got = append(got, f.Name+" "+f.Type.String())
			}
		}
		if !reflect.DeepEqual(got, fields) {
			t.Errorf("%v fields changed; update internal/core/persist.go and this list:\n got %q\nwant %q", ty, got, fields)
		}
	}
	// The counter helpers must list every uint64 field of their struct.
	for _, c := range []struct {
		v      any
		listed int
	}{
		{vm.Stats{}, len(vmStatsFields(&vm.Stats{}))},
		{vm.SBStats{}, len(sbStatsFields(&vm.SBStats{}))},
		{ldt.Stats{}, len(ldtStatsFields(&ldt.Stats{}))},
	} {
		ty, n := reflect.TypeOf(c.v), 0
		for i := 0; i < ty.NumField(); i++ {
			if ty.Field(i).Type.Kind() == reflect.Uint64 {
				n++
			}
		}
		if n != c.listed {
			t.Errorf("%v has %d uint64 fields, the codec lists %d", ty, n, c.listed)
		}
	}
}
