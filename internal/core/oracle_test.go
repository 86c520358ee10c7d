package core

import (
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
			for _, passes := range [][]string{nil, {"rce", "hoist", "affine", "chop"}} {
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

// TestOracleLeavesCodeAlone: an oracle build emits the same program as
// a default build — only the site table is added — and a default build
// carries no site table at all.
func TestOracleLeavesCodeAlone(t *testing.T) {
	src := workload.Kernels()[0].Source
	for _, mode := range oracleStrategies {
		for _, passes := range [][]string{nil, {"rce", "hoist", "affine", "chop"}} {
			plain, err := Build(src, mode, Options{Passes: passes})
			if err != nil {
				t.Fatal(err)
			}
			if plain.Program.Sites != nil {
				t.Errorf("%s %v: default build carries a site table", mode, passes)
			}
			watched, err := Build(src, mode, Options{Passes: passes, Oracle: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(watched.Program.Instrs, plain.Program.Instrs) ||
				!reflect.DeepEqual(watched.Program.Data, plain.Program.Data) ||
				!reflect.DeepEqual(watched.Program.Regions, plain.Program.Regions) {
				t.Errorf("%s %v: the oracle changed the emitted program", mode, passes)
			}
		}
	}
}

// TestOracleArtifactNotPersisted: oracle artifacts stay memory-only, so
// the persisted format needs no field for them.
func TestOracleArtifactNotPersisted(t *testing.T) {
	art, err := Build(workload.Kernels()[0].Source, ModeGCC, Options{Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	data, ok, err := EncodeArtifact(art)
	if ok || err != nil || data != nil {
		t.Fatalf("EncodeArtifact(oracle build) = %d bytes, ok=%v, err=%v; want a silent refusal", len(data), ok, err)
	}
}

// TestOracleStopsAtOverflow: an unchecked overflow of each object kind —
// heap block, global array, frame array, and a global reached through a
// computed pointer — stops at the overflowing reference with the
// oracle's fault, while a checked strategy's own fault still stands.
func TestOracleStopsAtOverflow(t *testing.T) {
	cases := map[string]string{
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
	for name, src := range cases {
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
