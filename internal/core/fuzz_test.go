package core

import (
	"bytes"
	"runtime"
	"testing"

	"cash/internal/codegen"
	"cash/internal/vm"
	"cash/internal/workload"
)

// FuzzDecodeArtifact feeds arbitrary bytes to DecodeArtifact. It must
// never panic, and because the format is canonical, whatever decodes
// must re-encode to exactly the input and carry the run keys, default
// and oracle, that hashing its program's encoding gives — the keys a
// built artifact of that program has. The corpus is seeded with the
// encodings of the small workload kernels (range and stencil) under
// every strategy, with and without the pass pipeline, plus hand-written
// blobs of global arrays and of site tables, valid and not (an index out
// of range, unsorted sites, an unknown kind), and the one-instruction
// blobs of instrSeeds, which reach every branch of the instruction
// decoder; small seeds keep the fuzzer's mutations and minimisation
// fast.
func FuzzDecodeArtifact(f *testing.F) {
	ws := append(workload.RangeKernels(), workload.StencilKernels()...)
	for _, w := range ws {
		for i, name := range StrategyNames() {
			var passes []string
			if i%2 == 1 {
				passes = allPasses
			}
			art, err := Build(w.Source, Mode(name), Options{Passes: passes})
			if err != nil {
				f.Fatal(err)
			}
			data, ok, err := EncodeArtifact(art)
			if err != nil || !ok {
				f.Fatalf("%s/%s: encode: ok=%v err=%v", w.Name, name, ok, err)
			}
			f.Add(data)
		}
	}
	f.Add(globalsBlob(blobGlobal{"request", 0x1000, 3}, blobGlobal{"sum", 0x1003, 1}))
	_, valid, bad := badSiteTables(f)
	f.Add(valid)
	for _, name := range []string{"index out of range", "unsorted sites", "unknown kind"} {
		f.Add(bad[name])
	}
	instrValid, instrBad := instrSeeds()
	for _, seeds := range []map[string][]byte{instrValid, instrBad} {
		for _, name := range sortedKeys(seeds) {
			f.Add(seeds[name])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		art, err := DecodeArtifact(data)
		if err != nil {
			return
		}
		again, ok, err := EncodeArtifact(art)
		if err != nil || !ok {
			t.Fatalf("decoded artifact does not re-encode: ok=%v err=%v", ok, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", data, again)
		}
		for _, run := range []Options{{}, oracleRun} {
			if key, want := art.WithRun(run).RunKey(), rehashed(art).WithRun(run).RunKey(); key != want {
				t.Fatalf("decoded run key %s under %+v, re-encoded program hashes to %s", key, run, want)
			}
		}
	})
}

// maxFuzzSource caps FuzzBuild's source, which bounds how deep the
// parser and the code generator can recurse. It is above every
// workload's source (libc, the longest, is 3731 bytes).
const maxFuzzSource = 4096

// FuzzBuild feeds arbitrary mini-C source to Build under the strategy
// and pass subset sel picks: its low two bits index StrategyNames, the
// next four select codegen.PassNames. Build must return an artifact or
// an error, never panic, and every artifact it returns must be one the
// rest of the system can hold: its site indices strictly increase
// inside the program, it encodes, Encode → Decode → Encode gives the
// same bytes, and the decoded artifact carries the built one's run
// keys for a default and an oracle run. The corpus is seeded with every
// workload and the overflow probes. Nothing is run: a fuzzed program
// may loop forever.
func FuzzBuild(f *testing.F) {
	for i, w := range workload.All() {
		f.Add([]byte(w.Source), byte(i))
	}
	for _, name := range []string{"heap", "global", "frame", "computed"} {
		for sel := byte(0); sel < 4; sel++ {
			f.Add([]byte(overflowProbes[name]), sel|0x3c)
		}
	}
	f.Add([]byte(hugeGlobal), byte(0))
	f.Fuzz(func(t *testing.T, src []byte, sel byte) {
		if len(src) > maxFuzzSource {
			return
		}
		names := StrategyNames()
		mode := Mode(names[int(sel&3)%len(names)])
		var passes []string
		for i, p := range codegen.PassNames() {
			if sel>>(2+i)&1 != 0 {
				passes = append(passes, p)
			}
		}
		art, err := Build(string(src), mode, Options{Passes: passes})
		if err != nil {
			return
		}
		for i, s := range art.Program.Sites.Sites {
			if s.Instr >= len(art.Program.Instrs) || i > 0 && s.Instr <= art.Program.Sites.Sites[i-1].Instr {
				t.Fatalf("site %d names instruction %d (program has %d)", i, s.Instr, len(art.Program.Instrs))
			}
		}
		data, ok, err := EncodeArtifact(art)
		if err != nil || !ok {
			t.Fatalf("built artifact does not encode: ok=%v err=%v", ok, err)
		}
		back, err := DecodeArtifact(data)
		if err != nil {
			t.Fatalf("built artifact does not decode: %v", err)
		}
		if again, _, _ := EncodeArtifact(back); !bytes.Equal(again, data) {
			t.Fatal("decoded artifact re-encodes differently")
		}
		for _, run := range []Options{{}, oracleRun} {
			if got, want := back.WithRun(run).RunKey(), art.WithRun(run).RunKey(); got != want {
				t.Fatalf("decoded run key %s under %+v, built %s", got, run, want)
			}
		}
	})
}

// hugeGlobal declares 4 GB of static data in one line.
const hugeGlobal = "int g[1000000000];\nvoid main() { g[0] = 1; }"

// TestBuildRejectsHugeStaticData: static data above
// codegen.MaxDataImage fails the build before the data image is
// allocated, under every strategy.
func TestBuildRejectsHugeStaticData(t *testing.T) {
	for _, mode := range StrategyNames() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Build(hugeGlobal, Mode(mode), Options{})
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: 4 GB of static data builds", mode)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: the failed build allocated %d bytes", mode, grew)
		}
	}
}

// FuzzDecodeRunOutcome is FuzzDecodeArtifact for run outcomes, seeded
// with every outcome shape the round-trip test covers.
func FuzzDecodeRunOutcome(f *testing.F) {
	for _, c := range runOutcomeCases(f) {
		data, ok := EncodeRunOutcome(c.res, c.err)
		if !ok {
			f.Fatalf("%s: must encode", c.name)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, runErr, err := DecodeRunOutcome(data)
		if err != nil {
			return
		}
		if runErr != nil {
			if _, isFault := runErr.(*vm.Fault); !isFault {
				t.Fatalf("run error %T is not a *vm.Fault", runErr)
			}
		}
		again, ok := EncodeRunOutcome(res, runErr)
		if !ok {
			t.Fatal("decoded outcome does not re-encode")
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", data, again)
		}
	})
}
