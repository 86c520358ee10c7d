package core

import (
	"bytes"
	"testing"

	"cash/internal/vm"
	"cash/internal/workload"
)

// FuzzDecodeArtifact feeds arbitrary bytes to DecodeArtifact. It must
// never panic, and because the format is canonical, whatever decodes
// must re-encode to exactly the input. The corpus is seeded with the
// encodings of the small workload kernels (range and stencil) under
// every strategy, with and without the pass pipeline; small seeds keep
// the fuzzer's mutations and minimisation fast.
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
