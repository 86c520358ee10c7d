package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cash/internal/core"
	"cash/internal/serve"
	"cash/internal/vm"
)

// TestDetectorOracleVerdicts pins the oracle against the verdict it
// replaces: for every detector variant (plus mpx) on every probe, with
// no passes and with rce,hoist, "caught" under the oracle must equal
// "caught" on an oracle-off run to a 20 M step limit — a run that ends
// on a detected violation, as opposed to one that finishes, crashes or
// runs away. Under gcc and Electric Fence the stack probe must stop at
// the b[i] = i store.
func TestDetectorOracleVerdicts(t *testing.T) {
	ctx := context.Background()
	variants := append(detectorVariants(), detectorVariant{name: "MPX", mode: core.ModeMPX})
	probes := []struct{ name, src string }{
		{"heap", probeHeap}, {"global", probeGlobal}, {"stack", probeStack},
	}
	for _, passes := range [][]string{nil, {"rce", "hoist"}} {
		s := Suite{Engine: serve.NewEngine(serve.EngineConfig{}), Passes: passes}
		for _, v := range variants {
			for _, p := range probes {
				name := fmt.Sprintf("%s/%s/%d-passes", v.name, p.name, len(passes))
				opts := s.opt(v.opts)
				opts.StepLimit = 20_000_000
				ref, err := core.Build(p.src, v.mode, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, _ := ref.Run()
				want := res != nil && res.Violation != nil
				got, err := s.detects(ctx, p.src, v)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if got != want {
					t.Errorf("%s: oracle verdict caught=%v, step-limit run caught=%v", name, got, want)
				}
				if p.name != "stack" || v.mode != core.ModeGCC {
					continue
				}
				opts.Oracle = true
				art, err := core.Build(p.src, v.mode, opts)
				if err != nil {
					t.Fatal(err)
				}
				_, err = art.Run()
				f, ok := err.(*vm.Fault)
				if !ok || f.Kind != vm.FaultUncaughtOverflow {
					t.Errorf("%s: got %v, want an uncaught overflow", name, err)
					continue
				}
				if f.IP != 13 || !strings.Contains(f.Instr, "movl\t%esi, -32(%ebp,%eax,1)") {
					t.Errorf("%s: fault names ip=%d %q, want the b[i] = i store at 13", name, f.IP, f.Instr)
				}
			}
		}
		s.Engine.Close()
	}
}

// TestDetectsRejectsNonVerdicts: a probe run that ends without a
// verdict — a clean exit, the step limit, a closed Engine — is an
// error, never a "missed" cell.
func TestDetectsRejectsNonVerdicts(t *testing.T) {
	ctx := context.Background()
	eng := serve.NewEngine(serve.EngineConfig{})
	s := Suite{Engine: eng}
	gcc := detectorVariant{name: "gcc", mode: core.ModeGCC, opts: core.Options{StepLimit: 10_000}}
	for name, src := range map[string]string{
		"clean exit": "void main() { printi(1); }",
		"step limit": "void main() { while (1) { } }",
	} {
		if caught, err := s.detects(ctx, src, gcc); err == nil {
			t.Errorf("%s: got verdict caught=%v, want an error", name, caught)
		}
	}
	eng.Close()
	if _, err := s.detects(ctx, probeStack, gcc); !errors.Is(err, serve.ErrEngineClosed) {
		t.Errorf("closed engine: got %v, want ErrEngineClosed", err)
	}
}
