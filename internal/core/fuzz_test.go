package core

import (
	"bytes"
	"testing"

	"cash/internal/vm"
	"cash/internal/workload"
)

// FuzzDecodeArtifact feeds arbitrary bytes to DecodeArtifact. It must
// never panic, and because the format is canonical, whatever decodes
// must re-encode to exactly the input and carry the run key that
// hashing its program's encoding gives — the key a built artifact of
// that program has. The corpus is seeded with the
// encodings of the small workload kernels (range and stencil) under
// every strategy, with and without the pass pipeline, plus a hand-written
// blob of global arrays; small seeds keep the fuzzer's mutations and
// minimisation fast.
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
		key, ok := art.RunKey()
		if !ok {
			t.Fatal("decoded artifact has no run key")
		}
		if want := art.digest(); key != want {
			t.Fatalf("decoded run key %s, re-encoded program hashes to %s", key, want)
		}
	})
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
