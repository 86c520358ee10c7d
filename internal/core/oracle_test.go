package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cash/internal/vm"
	"cash/internal/workload"
)

// The overflow oracle (Options.Oracle) must never fire on a correct
// program — that is what makes its "uncaught overflow" verdict on the
// detector probes trustworthy — and it must not perturb the run it
// watches: the site table changes how a machine runs the program, never
// what the program computes or what it costs in simulated cycles.

// oracleStrategies are the strategies the oracle is checked under.
var oracleStrategies = []Mode{ModeGCC, ModeBCC, ModeCash, ModeMPX}

// oraclePrograms are the correct programs the oracle must stay silent
// on: every suite workload plus the range and stencil kernels, or only
// the Table 1 kernels under -short.
func oraclePrograms() []workload.Workload {
	if testing.Short() {
		return workload.Kernels()
	}
	ws := workload.All()
	ws = append(ws, workload.RangeKernels()...)
	return append(ws, workload.StencilKernels()...)
}

// TestOracleNoFalsePositives runs every program under every strategy,
// with no passes and with the whole pipeline, once under the oracle and
// once step-only without it, and requires identical outcomes.
func TestOracleNoFalsePositives(t *testing.T) {
	for _, w := range oraclePrograms() {
		for _, mode := range oracleStrategies {
			for _, passes := range [][]string{nil, allPasses} {
				name := fmt.Sprintf("%s/%s/%d-passes", w.Name, mode, len(passes))
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					plain, err := Build(w.Source, mode, Options{Passes: passes, StepOnly: true})
					if err != nil {
						t.Fatal(err)
					}
					watched, err := Build(w.Source, mode, Options{Passes: passes, Oracle: true})
					if err != nil {
						t.Fatal(err)
					}
					if len(watched.Program.Sites.Sites) == 0 {
						t.Fatal("oracle build recorded no sites")
					}
					want, wantErr := plain.Run()
					got, gotErr := watched.Run()
					if !reflect.DeepEqual(gotErr, wantErr) {
						t.Fatalf("run error under the oracle: %v, without: %v", gotErr, wantErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("result under the oracle differs\n got %+v\nwant %+v", got.Result, want.Result)
					}
				})
			}
		}
	}
}

// TestOracleLeavesCodeAlone: every build records a site table, and the
// oracle is a run option, so a build that asks for it encodes — program,
// site table and build options — to the bytes of one that does not.
func TestOracleLeavesCodeAlone(t *testing.T) {
	src := workload.Kernels()[0].Source
	for _, mode := range oracleStrategies {
		for _, passes := range [][]string{nil, allPasses} {
			plain, err := Build(src, mode, Options{Passes: passes})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Program.Sites == nil || len(plain.Program.Sites.Sites) == 0 {
				t.Errorf("%s %v: default build carries no site table", mode, passes)
			}
			watched, err := Build(src, mode, Options{Passes: passes, Oracle: true})
			if err != nil {
				t.Fatal(err)
			}
			a, _, _ := EncodeArtifact(plain)
			b, _, _ := EncodeArtifact(watched)
			if a == nil || !bytes.Equal(a, b) {
				t.Errorf("%s %v: the oracle changed the compiled program", mode, passes)
			}
		}
	}
}

// overflowProbes overflow one object of each kind — heap block, global
// array, frame array (the detector table's three probes) and a global
// reached through a computed pointer — with nothing in an unchecked
// build to stop them.
var overflowProbes = map[string]string{
	"heap": `
void main() {
	char *b = malloc(24);
	for (int i = 0; i < 40; i++) b[i] = 'A';
}`,
	"global": `
int g[8];
void main() { for (int i = 0; i <= 8; i++) g[i] = i; }`,
	"frame": `
void smash() {
	int b[8];
	for (int i = 0; i <= 8; i++) b[i] = i;
}
void main() { smash(); }`,
	"computed": `
int g[8];
int h[8];
void main() { int s = 0; for (int i = 0; i <= 8; i++) s += (g + 0)[i]; printi(s); }`,
}

// TestOracleRunsOnDecodedArtifact: the site table is persisted with the
// program, so the oracle runs over an artifact decoded from the store
// and gives the verdict a fresh build gives — the same fault kind at
// the same instruction, naming the same object — for every probe under
// every registered strategy.
func TestOracleRunsOnDecodedArtifact(t *testing.T) {
	for name, src := range overflowProbes {
		for _, mode := range StrategyNames() {
			label := name + "/" + mode
			fresh := mustBuildArt(t, src, Mode(mode), Options{Oracle: true})
			data, ok, err := EncodeArtifact(fresh)
			if err != nil || !ok {
				t.Fatalf("%s: encode: ok=%v err=%v", label, ok, err)
			}
			back, err := DecodeArtifact(data)
			if err != nil {
				t.Fatalf("%s: decode: %v", label, err)
			}
			want, wantErr := fresh.Run()
			got, gotErr := back.WithRun(oracleRun).Run()
			wantF, gotF := verdict(want, wantErr), verdict(got, gotErr)
			if wantF == nil {
				t.Fatalf("%s: fresh build gives no verdict (error %v)", label, wantErr)
			}
			if gotF == nil || gotF.Kind != wantF.Kind || gotF.IP != wantF.IP || gotF.Error() != wantF.Error() {
				t.Errorf("%s: decoded artifact's verdict %v, fresh build's %v", label, gotF, wantF)
			}
		}
	}
}

// verdict is the fault that ended an oracle run: the strategy's own
// violation, or the run error (the oracle's uncaught overflow).
func verdict(res *RunResult, err error) *vm.Fault {
	if res != nil && res.Violation != nil {
		return res.Violation
	}
	f, _ := err.(*vm.Fault)
	return f
}

// TestOracleStopsAtOverflow: an unchecked overflow of each object kind
// stops at the overflowing reference with the oracle's fault, while a
// checked strategy's own fault still stands.
func TestOracleStopsAtOverflow(t *testing.T) {
	for name, src := range overflowProbes {
		art, err := Build(src, ModeGCC, Options{Oracle: true})
		if err != nil {
			t.Fatal(err)
		}
		_, err = art.Run()
		f, ok := err.(*vm.Fault)
		if !ok || f.Kind != vm.FaultUncaughtOverflow {
			t.Errorf("%s under gcc: got %v, want an uncaught overflow", name, err)
			continue
		}
		site := false
		for _, s := range art.Program.Sites.Sites {
			site = site || s.Instr == f.IP
		}
		if !site {
			t.Errorf("%s: fault at ip=%d, which is not a site", name, f.IP)
		}
		checked, err := Build(src, ModeBCC, Options{Oracle: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := checked.Run()
		if err != nil || res.Violation == nil {
			t.Errorf("%s under bcc: got error %v, want the software check's violation", name, err)
		}
	}
}

// TestOracleOnePastTheEnd: a pointer one past a heap block's end still
// belongs to that block, even where the next block starts at the same
// address, so reaching back through it is not an overflow.
func TestOracleOnePastTheEnd(t *testing.T) {
	src := `
void main() {
	char *a = malloc(4);
	char *b = malloc(4);
	char *e = a + 4;
	e[-1] = 7;
	b[0] = 9;
	printi(a[3] + b[0]);
	free(a);
	free(b);
}`
	for _, mode := range oracleStrategies {
		art, err := Build(src, mode, Options{Oracle: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := art.Run()
		if err != nil || res.Violation != nil || !reflect.DeepEqual(res.Output, []int32{16}) {
			t.Errorf("%s: got %v (error %v), want a clean run printing 16", mode, res, err)
		}
	}
}
