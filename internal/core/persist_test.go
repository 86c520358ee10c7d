package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"cash/internal/ldt"
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
		p.Instrs, p.Funcs, p.Globals, p.Data, p.Stats = nil, nil, nil, nil, nil
		p.DataSize = 0
		p.Sites = &vm.SiteTable{}
		opts := art.opts
		opts.Passes = nil
		if empty {
			p.Instrs, p.Funcs, p.Globals, p.Data = []vm.Instr{}, map[string]int{}, map[string]vm.Global{}, []vm.DataRun{}
			p.Stats = map[string]uint64{}
			p.Sites = &vm.SiteTable{Sites: []vm.Site{}, Statics: []vm.Object{}}
			opts.Passes = []string{}
		}
		a := &Artifact{Mode: art.Mode, Program: p, vmMode: art.vmMode, opts: opts}
		assertArtifactRoundtrip(t, "empty="+map[bool]string{false: "nil", true: "empty"}[empty], a, false)
	}
}

// TestDecodeRejectsNonCanonicalOptions: a build records its options as
// NormalizeOptions spells them, so a blob with any other spelling is
// not an encoding of a build, and the disk tier takes it for a miss.
func TestDecodeRejectsNonCanonicalOptions(t *testing.T) {
	for _, c := range []struct {
		mode Mode
		opts Options
	}{
		{ModeGCC, Options{SegRegs: 2}},
		{ModeMPX, Options{SegRegs: 4}},
		{ModeCash, Options{SegRegs: 3}},
		{ModeCash, Options{SegRegs: 7}},
		{ModeCash, Options{Passes: []string{"hoist", "rce"}}},
		{ModeCash, Options{Passes: []string{"rce", "rce"}}},
		{ModeCash, Options{Passes: []string{"unknown"}}},
	} {
		art := mustBuildArt(t, sumKernel, c.mode, Options{})
		art.opts = c.opts
		data, ok, err := EncodeArtifact(art)
		if err != nil || !ok {
			t.Fatalf("%s %+v: encode: ok=%v err=%v", c.mode, c.opts, ok, err)
		}
		if _, err := DecodeArtifact(data); err == nil {
			t.Errorf("%s %+v: decodes", c.mode, c.opts)
		}
	}
}

// blobGlobal is one global array of programBlob's program.
type blobGlobal struct {
	name       string
	addr, size uint32
}

// programBlob hand-encodes an artifact field by field — so a test can
// write what the encoder never would. Its program is a 4-byte all-zero
// data image at 0x1000, the given global arrays, written in the order
// given, and, when instr is not nil, the one instruction instr writes,
// starting at offset at.
func programBlob(instr func(e *encoder), globals ...blobGlobal) (blob []byte, at int) {
	e := &encoder{}
	e.byte(tagArtifact)
	e.uint(persistVersion)
	e.str(string(ModeCash))
	e.options(&Options{})
	e.str("hand")
	if instr == nil {
		e.count(0, false) // no instructions
	} else {
		e.count(1, false)
		at = len(e.buf)
		instr(e)
	}
	e.int(0)         // entry
	e.count(0, true) // nil funcs
	e.count(len(globals), false)
	for _, g := range globals {
		e.str(g.name)
		e.uint(uint64(g.addr))
		e.uint(uint64(g.size))
	}
	e.count(4, false) // an all-zero data image: no nonzero runs
	e.uint(0)
	e.uint(0x1000)   // data base
	e.uint(0x2000)   // heap base
	e.uint(0x3000)   // stack top
	e.count(0, true) // nil stats
	e.count(0, true) // no sites
	e.count(0, true) // no static objects
	return e.buf, at
}

// globalsBlob is programBlob with no instructions.
func globalsBlob(globals ...blobGlobal) []byte {
	blob, _ := programBlob(nil, globals...)
	return blob
}

// instrHead writes an instruction's fields before its operands: a MOV
// with the given operand kinds, target and label, and no symbol.
func instrHead(e *encoder, dst, src vm.OperandKind, target int64, label string) {
	e.byte(byte(vm.MOV))
	e.byte(byte(dst) | byte(src)<<4)
	e.byte(4) // size
	e.byte(0) // note
	e.int(target)
	e.str("") // symbol
	e.str(label)
}

// memOperand writes a memory operand field by field.
func memOperand(e *encoder, seg x86seg.SegReg, base, index vm.Reg, flags, scale byte, disp int64) {
	e.byte(byte(seg))
	e.byte(byte(base))
	e.byte(byte(index))
	e.byte(flags)
	e.byte(scale)
	e.int(disp)
}

// instrSeeds are one-instruction artifacts, keyed by what they hold,
// that reach every branch of the instruction decoder: valid ones that
// take its long paths, and bad ones that must not decode — one per
// rejection, plus a memory operand cut short at each of its bytes.
func instrSeeds() (valid, bad map[string][]byte) {
	blob := func(instr func(e *encoder)) []byte {
		b, _ := programBlob(instr)
		return b
	}
	memLoad := func(e *encoder) { // mov 4(%ebx), %eax
		instrHead(e, vm.KindReg, vm.KindMem, 0, "")
		e.byte(byte(vm.EAX))
		memOperand(e, x86seg.DS, vm.EBX, 0, memHasBase, 1, 4)
	}
	valid = map[string][]byte{
		"memory load": blob(memLoad),
		"3-byte target": blob(func(e *encoder) {
			instrHead(e, vm.KindNone, vm.KindNone, 8192, "")
		}),
		"128-byte label": blob(func(e *encoder) {
			instrHead(e, vm.KindNone, vm.KindNone, 0, strings.Repeat("l", 128))
		}),
		"long immediate and displacement": blob(func(e *encoder) {
			instrHead(e, vm.KindMem, vm.KindImm, 0, "")
			memOperand(e, x86seg.GS, vm.ESI, vm.EDI, memHasBase|memHasIndex, 4, math.MinInt32)
			e.int(math.MaxInt32)
		}),
		"segment register": blob(func(e *encoder) {
			instrHead(e, vm.KindSReg, vm.KindReg, 0, "")
			e.byte(byte(x86seg.FS))
			e.byte(byte(vm.EDX))
		}),
	}
	bad = map[string][]byte{
		"fixed fields cut short": blob(func(e *encoder) {
			e.buf = append(e.buf, byte(vm.MOV), 0, 4, 0, 0, 0)
		}),
		"non-minimal target": blob(func(e *encoder) {
			e.buf = append(e.buf, byte(vm.NOP), 0, 4, 0, 0x80, 0x80, 0x00, 0, 0)
		}),
		"oversized target": blob(func(e *encoder) {
			e.buf = append(e.buf, byte(vm.NOP), 0, 4, 0)
			e.buf = append(e.buf, bytes.Repeat([]byte{0xff}, 10)...)
			e.buf = append(e.buf, 1, 0, 0)
		}),
		"label past the input": blob(func(e *encoder) {
			e.buf = append(e.buf, byte(vm.NOP), 0, 4, 0, 0, 0)
			e.uint(1 << 20)
		}),
		"register out of range": blob(func(e *encoder) {
			instrHead(e, vm.KindReg, vm.KindNone, 0, "")
			e.byte(byte(vm.NumRegs))
		}),
		"segment register out of range": blob(func(e *encoder) {
			instrHead(e, vm.KindSReg, vm.KindNone, 0, "")
			e.byte(byte(x86seg.NumSegRegs))
		}),
		"immediate out of range": blob(func(e *encoder) {
			instrHead(e, vm.KindImm, vm.KindNone, 0, "")
			e.int(math.MaxInt32 + 1)
		}),
		"memory segment out of range": blob(func(e *encoder) {
			instrHead(e, vm.KindMem, vm.KindNone, 0, "")
			memOperand(e, x86seg.NumSegRegs, 0, 0, 0, 1, 0)
		}),
		"memory base out of range": blob(func(e *encoder) {
			instrHead(e, vm.KindMem, vm.KindNone, 0, "")
			memOperand(e, x86seg.DS, vm.NumRegs, 0, memHasBase, 1, 0)
		}),
		"memory index out of range": blob(func(e *encoder) {
			instrHead(e, vm.KindMem, vm.KindNone, 0, "")
			memOperand(e, x86seg.DS, 0, vm.NumRegs, memHasIndex, 1, 0)
		}),
		"unknown flag bits": blob(func(e *encoder) {
			instrHead(e, vm.KindMem, vm.KindNone, 0, "")
			memOperand(e, x86seg.DS, 0, 0, memAll+1, 1, 0)
		}),
		"displacement out of range": blob(func(e *encoder) {
			instrHead(e, vm.KindMem, vm.KindNone, 0, "")
			memOperand(e, x86seg.DS, 0, 0, 0, 1, math.MinInt32-1)
		}),
		"unknown operand kind": blob(func(e *encoder) {
			instrHead(e, vm.KindNone, vm.KindSReg+1, 0, "")
		}),
	}
	// The memory operand starts after the 7 head bytes and the register.
	full, at := programBlob(memLoad)
	for k := 0; k < 6; k++ {
		bad[fmt.Sprintf("memory operand cut after %d bytes", k)] = full[:at+8+k]
	}
	return valid, bad
}

// TestDecodeInstrBranches pins the instruction decoder's branches: each
// valid seed decodes and re-encodes to itself, each bad one fails.
func TestDecodeInstrBranches(t *testing.T) {
	valid, bad := instrSeeds()
	for name, blob := range valid {
		art, err := DecodeArtifact(blob)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if re, ok, err := EncodeArtifact(art); err != nil || !ok || !bytes.Equal(re, blob) {
			t.Errorf("%s: re-encodes differently: ok=%v err=%v", name, ok, err)
		}
	}
	for name, blob := range bad {
		if _, err := DecodeArtifact(blob); err == nil {
			t.Errorf("%s: decode must fail", name)
		}
	}
}

// siteTableBlob encodes art with the given site table, written field by
// field — so a test can write what the encoder never would.
func siteTableBlob(art *Artifact, sites []vm.Site, statics []vm.Object) []byte {
	e := &encoder{}
	e.byte(tagArtifact)
	e.uint(persistVersion)
	e.str(string(art.Mode))
	e.options(&art.opts)
	if e.program(art.Program) != nil {
		panic("unencodable program")
	}
	e.count(len(sites), false)
	for _, s := range sites {
		e.uint(uint64(s.Instr))
		e.byte(byte(s.Kind))
		e.int(int64(s.Off))
		e.uint(uint64(s.Size))
		e.bool(s.Frame)
		e.byte(byte(s.Reg))
		e.byte(byte(s.Sub))
	}
	e.count(len(statics), false)
	for _, o := range statics {
		e.uint(uint64(o.Addr))
		e.uint(uint64(o.Size))
	}
	return e.buf
}

// badSiteTables are site tables of sumKernel's gcc build that must not
// decode, keyed by what is wrong with them; the "valid" table must.
func badSiteTables(t testing.TB) (art *Artifact, valid []byte, bad map[string][]byte) {
	art, err := Build(sumKernel, ModeGCC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sites := art.Program.Sites.Sites
	if len(sites) < 2 {
		t.Fatalf("%d sites, want at least 2", len(sites))
	}
	noMem := -1
	for i, in := range art.Program.Instrs {
		if in.Dst.Kind != vm.KindMem && in.Src.Kind != vm.KindMem {
			noMem = i
			break
		}
	}
	site := func(instr int, kind vm.SiteKind) vm.Site {
		return vm.Site{Instr: instr, Kind: kind, Off: 0x1000, Size: 128}
	}
	a, b := sites[0].Instr, sites[1].Instr
	objs := []vm.Object{{Addr: 0x1000, Size: 128}, {Addr: 0x1080, Size: 4}}
	valid = siteTableBlob(art, []vm.Site{site(a, vm.SiteStatic), site(b, vm.SiteFrame)}, objs)
	bad = map[string][]byte{
		"index out of range":    siteTableBlob(art, []vm.Site{site(len(art.Program.Instrs), vm.SiteStatic)}, nil),
		"unsorted sites":        siteTableBlob(art, []vm.Site{site(b, vm.SiteStatic), site(a, vm.SiteStatic)}, nil),
		"duplicate site":        siteTableBlob(art, []vm.Site{site(a, vm.SiteStatic), site(a, vm.SiteStatic)}, nil),
		"unknown kind":          siteTableBlob(art, []vm.Site{site(a, vm.SiteReg+1)}, nil),
		"no kind":               siteTableBlob(art, []vm.Site{site(a, 0)}, nil),
		"no memory operand":     siteTableBlob(art, []vm.Site{site(noMem, vm.SiteStatic)}, nil),
		"unsorted statics":      siteTableBlob(art, nil, []vm.Object{objs[1], objs[0]}),
		"register out of range": siteTableBlob(art, []vm.Site{{Instr: a, Kind: vm.SiteReg, Reg: vm.NumRegs}}, nil),
		"sub out of range":      siteTableBlob(art, []vm.Site{{Instr: a, Kind: vm.SiteReg, Sub: vm.NumRegs + 1}}, nil),
	}
	return art, valid, bad
}

// TestDecodeRejectsBadSiteTables pins the site-table checks the oracle
// relies on: vm/oracle.go indexes the instruction table by site, so an
// index out of range would be a panic, not an error. A table that
// passes them decodes and re-encodes to itself.
func TestDecodeRejectsBadSiteTables(t *testing.T) {
	_, valid, bad := badSiteTables(t)
	back, err := DecodeArtifact(valid)
	if err != nil {
		t.Fatalf("valid site table: %v", err)
	}
	if re, ok, err := EncodeArtifact(back); err != nil || !ok || !bytes.Equal(re, valid) {
		t.Fatalf("valid site table re-encodes differently: ok=%v err=%v", ok, err)
	}
	for name, blob := range bad {
		if _, err := DecodeArtifact(blob); err == nil {
			t.Errorf("%s: decode must fail", name)
		}
	}
}

// TestArtifactCodecGlobals pins Program.Globals through the codec: a
// compiled program's request buffer round-trips, a hand-written blob
// whose arrays fill the image exactly decodes and re-encodes to itself,
// and unsorted or duplicate names and arrays outside the data image
// fail to decode.
func TestArtifactCodecGlobals(t *testing.T) {
	art, err := Build(`
char request[16] = "GET /index HTTP";
int sum[3];
void main() { sum[0] = request[0]; printi(sum[0]); }`, ModeCash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := art.Program.Globals; len(g) != 2 || g["request"].Size != 16 || g["sum"].Size != 12 {
		t.Fatalf("globals %+v, want request (16 bytes) and sum (12 bytes)", g)
	}
	assertArtifactRoundtrip(t, "request buffer", art, true)

	valid := globalsBlob(blobGlobal{"a", 0x1000, 1}, blobGlobal{"b", 0x1001, 3})
	back, err := DecodeArtifact(valid)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]vm.Global{"a": {Addr: 0x1000, Size: 1}, "b": {Addr: 0x1001, Size: 3}}; !reflect.DeepEqual(back.Program.Globals, want) {
		t.Fatalf("decoded globals %+v, want %+v", back.Program.Globals, want)
	}
	if re, ok, err := EncodeArtifact(back); err != nil || !ok || !bytes.Equal(re, valid) {
		t.Fatalf("decoded globals re-encode differently: ok=%v err=%v", ok, err)
	}
	for name, blob := range map[string][]byte{
		"past the image end": globalsBlob(blobGlobal{"a", 0x1001, 4}),
		"below the image":    globalsBlob(blobGlobal{"a", 0xfff, 1}),
		"address wraps":      globalsBlob(blobGlobal{"a", math.MaxUint32, 2}),
		"unsorted names":     globalsBlob(blobGlobal{"b", 0x1000, 1}, blobGlobal{"a", 0x1001, 1}),
		"duplicate names":    globalsBlob(blobGlobal{"a", 0x1000, 1}, blobGlobal{"a", 0x1001, 1}),
	} {
		if _, err := DecodeArtifact(blob); err == nil {
			t.Errorf("%s: decode must fail", name)
		}
	}
}

// TestArtifactCodecRefusesLossyPrograms pins that a program the format
// cannot hold exactly is refused rather than silently changed.
func TestArtifactCodecRefusesLossyPrograms(t *testing.T) {
	art, err := Build(sumKernel, ModeCash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// twoRuns gives p a data image of two one-byte runs.
	twoRuns := func(p *vm.Program) {
		img := make([]byte, p.DataSize)
		img[0], img[2] = 1, 2
		p.SetData(img)
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
			p.DataSize = maxDataImage + 1
		},
		"global array outside the data image": func(p *vm.Program) {
			p.Globals = map[string]vm.Global{"x": {Addr: p.DataBase + p.DataSize, Size: 1}}
		},
		"data runs without an image": func(p *vm.Program) {
			p.Data = nil
		},
		"empty data run": func(p *vm.Program) {
			twoRuns(p)
			p.Data[0].Bytes = nil
		},
		"zero byte in a data run": func(p *vm.Program) {
			twoRuns(p)
			p.Data[0].Bytes = append([]byte{0}, p.Data[0].Bytes...)
		},
		"data runs not apart": func(p *vm.Program) {
			twoRuns(p)
			p.Data[1].Off = p.Data[0].Off + uint32(len(p.Data[0].Bytes))
		},
		"data runs out of order": func(p *vm.Program) {
			twoRuns(p)
			p.Data[0], p.Data[1] = p.Data[1], p.Data[0]
		},
		"data run past the image": func(p *vm.Program) {
			twoRuns(p)
			p.Data[len(p.Data)-1].Off = p.DataSize
		},
		"no site table": func(p *vm.Program) {
			p.Sites = nil
		},
		"unknown site kind": func(p *vm.Program) {
			p.Sites.Sites[0].Kind = vm.SiteReg + 1
		},
		"site register out of range": func(p *vm.Program) {
			p.Sites.Sites[0] = vm.Site{Instr: p.Sites.Sites[0].Instr, Kind: vm.SiteReg, Sub: vm.NumRegs + 1}
		},
		"mode other than the artifact's": func(p *vm.Program) {
			p.Mode = vm.ModeGCC.String()
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
	image.count(0, true)  // nil globals
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
			"Globals map[string]vm.Global", "Data []vm.DataRun", "DataSize uint32", "DataBase uint32", "HeapBase uint32", "StackTop uint32",
			"Mode string", "Stats map[string]uint64",
			"Sites *vm.SiteTable",
		},
		reflect.TypeOf(vm.Instr{}): {
			"Op vm.Op", "Size uint8", "Note vm.Note", "Dst vm.Operand", "Src vm.Operand",
			"Target int", "Sym string", "Label string",
		},
		reflect.TypeOf(vm.Operand{}): {
			"Kind vm.OperandKind", "Reg vm.Reg", "SReg x86seg.SegReg", "Imm int32", "Mem vm.MemRef",
		},
		reflect.TypeOf(vm.MemRef{}): {
			"Seg x86seg.SegReg", "Base vm.Reg", "HasBase bool", "Index vm.Reg",
			"HasIndex bool", "Scale uint8", "Disp int32",
		},
		reflect.TypeOf(vm.Global{}): {"Addr uint32", "Size uint32"},
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
		reflect.TypeOf(vm.SiteTable{}): {"Sites []vm.Site", "Statics []vm.Object"},
		reflect.TypeOf(vm.Site{}): {
			"Instr int", "Kind vm.SiteKind", "Off int32", "Size uint32", "Frame bool", "Reg vm.Reg", "Sub vm.Reg",
		},
		reflect.TypeOf(vm.Object{}): {"Addr uint32", "Size uint32"},
		// The codec writes the build part; the run part is listed so that
		// a new field must be placed in one of the two.
		reflect.TypeOf(Options{}): {
			"SegRegs int", "SkipReadChecks bool", "UseBoundInstr bool", "Passes []string",
			"StepLimit uint64", "WithoutCallGate bool", "ElectricFence bool", "StepOnly bool",
			"Oracle bool",
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

// suiteBlobs encodes the 104 suite artifacts — the 26 suite programs
// under each of the 4 strategies, default options: the artifacts a
// warm restart of the serving engine decodes for its builds.
func suiteBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	var blobs [][]byte
	for _, w := range codecWorkloads() {
		for _, name := range StrategyNames() {
			art, err := Build(w.Source, Mode(name), Options{})
			if err != nil {
				tb.Fatalf("%s/%s: %v", w.Name, name, err)
			}
			data, ok, err := EncodeArtifact(art)
			if err != nil || !ok {
				tb.Fatalf("%s/%s: encode: ok=%v err=%v", w.Name, name, ok, err)
			}
			blobs = append(blobs, data)
		}
	}
	return blobs
}

// Decoding one artifact allocates at most decodeObjects objects, and
// at most decodeSlack bytes beyond its instruction table and twice its
// blob (the blob's one string, and room for the maps, the site table
// and size-class rounding).
const (
	decodeObjects = 24
	decodeSlack   = 10 << 10
)

// TestDecodeArtifactAllocs pins what decoding the 104 suite blobs
// allocates. The object count is bounded per artifact, so it grows
// with the number of artifacts, not with their instructions or
// strings: the decoder makes one string per blob and slices it. The
// bytes stay within the instruction table, twice the blob and a small
// constant, and over the suite what lies beyond table and blobs is
// under half the 2.7 MB of the data images, so none is built densely.
func TestDecodeArtifactAllocs(t *testing.T) {
	var dense, beyond uint64
	for i, data := range suiteBlobs(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		art, err := DecodeArtifact(data)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		p := art.Program
		strs := 0
		for _, in := range p.Instrs {
			strs += int(bit(in.Sym != "", 1) + bit(in.Label != "", 1))
		}
		table := uint64(len(p.Instrs)) * uint64(unsafe.Sizeof(vm.Instr{}))
		dense += uint64(p.DataSize)
		if n := after.Mallocs - before.Mallocs; n > decodeObjects {
			t.Errorf("blob %d: %d objects allocated (%d instructions, %d symbols and labels), want at most %d",
				i, n, len(p.Instrs), strs, decodeObjects)
		}
		n, base := after.TotalAlloc-before.TotalAlloc, table+2*uint64(len(data))
		if n > base+decodeSlack {
			t.Errorf("blob %d: %d bytes allocated, want at most %d (instruction table %d, blob %d, data image %d)",
				i, n, base+decodeSlack, table, len(data), p.DataSize)
		}
		beyond += max(n, base) - base
	}
	if beyond*2 >= dense {
		t.Errorf("%d bytes allocated beyond the instruction tables and twice the blobs, want under half the %d bytes of data images", beyond, dense)
	}
}

// decodedArtifact keeps BenchmarkDecodeArtifact's result live.
var decodedArtifact *Artifact

// BenchmarkDecodeArtifact decodes the 104 encoded suite artifacts
// (suiteBlobs) once per iteration: the decoding a warm restart of the
// serving engine does for its builds.
func BenchmarkDecodeArtifact(b *testing.B) {
	blobs := suiteBlobs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range blobs {
			a, err := DecodeArtifact(data)
			if err != nil {
				b.Fatal(err)
			}
			decodedArtifact = a
		}
	}
}
