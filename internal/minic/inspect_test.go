package minic_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cash/internal/minic"
	"cash/internal/workload"
)

// inspectSrc uses every statement and expression kind.
const inspectSrc = `
int f(int x) {
	int a[2], *p = &a[0];
	char *s;
	if (x) p[1] = -x; else a[0] = f(x);
	while (x) { s = "hi"; break; }
	for (x = 0; x < 2; x++) continue;
	return (int)s[0];
}
void main() { f(1); }
`

func parseChecked(t *testing.T, name, src string) *minic.Program {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatalf("%s: check: %v", name, err)
	}
	return prog
}

// kinds lists the node types Inspect visits under n, in visit order,
// stopping below the nodes for which prune is true.
func kinds(n any, prune func(any) bool) []string {
	var out []string
	minic.Inspect(n, func(n any) bool {
		out = append(out, strings.TrimPrefix(fmt.Sprintf("%T", n), "*minic."))
		return !prune(n)
	})
	return out
}

func TestInspectOrder(t *testing.T) {
	body := parseChecked(t, "inspectSrc", inspectSrc).Funcs[0].Body
	want := []string{
		"BlockStmt",
		"DeclStmt", "VarDecl", "VarDecl", "Unary", "Index", "VarRef", "NumberLit",
		"DeclStmt", "VarDecl",
		"IfStmt", "VarRef",
		"ExprStmt", "Assign", "Index", "VarRef", "NumberLit", "Unary", "VarRef",
		"ExprStmt", "Assign", "Index", "VarRef", "NumberLit", "Call", "VarRef",
		"WhileStmt", "VarRef", "BlockStmt", "ExprStmt", "Assign", "VarRef", "StringLit", "BreakStmt",
		"ForStmt",
		"ExprStmt", "Assign", "VarRef", "NumberLit",
		"Binary", "VarRef", "NumberLit",
		"IncDec", "VarRef",
		"ContinueStmt",
		"ReturnStmt", "Cast", "Index", "VarRef", "NumberLit",
	}
	if got := kinds(body, func(any) bool { return false }); !slices.Equal(got, want) {
		t.Fatalf("visit order\ngot  %v\nwant %v", got, want)
	}

	// Pruning at the for loop skips its init, condition, post and body
	// (the ten entries after "ForStmt") and nothing else.
	at := slices.Index(want, "ForStmt")
	pruned := slices.Delete(slices.Clone(want), at+1, at+11)
	isFor := func(n any) bool { _, ok := n.(*minic.ForStmt); return ok }
	if got := kinds(body, isFor); !slices.Equal(got, pruned) {
		t.Fatalf("pruned at ForStmt\ngot  %v\nwant %v", got, pruned)
	}
}

var (
	stmtType  = reflect.TypeFor[minic.Stmt]()
	exprType  = reflect.TypeFor[minic.Expr]()
	childType = map[reflect.Type]bool{
		stmtType:                            true,
		exprType:                            true,
		reflect.SliceOf(stmtType):           true,
		reflect.SliceOf(exprType):           true,
		reflect.TypeFor[[]*minic.VarDecl](): true, // DeclStmt.Decls
	}
)

// reflectWalk is the reference walk: pre-order over every field whose
// type is a child type, in field order. Pointer fields such as
// VarRef.Decl and Call.Decl are references and are not followed.
func reflectWalk(n any, out *[]any) {
	*out = append(*out, n)
	v := reflect.ValueOf(n).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		if !childType[f.Type()] {
			continue
		}
		if f.Kind() == reflect.Slice {
			for j := range f.Len() {
				reflectWalk(f.Index(j).Interface(), out)
			}
		} else if !f.IsNil() {
			reflectWalk(f.Interface(), out)
		}
	}
}

// TestInspectComplete requires Inspect to visit exactly the nodes the
// reflection walk finds, in the same order, over every function of every
// shipped program (All includes the libc corpus): a node kind or child
// field added without Inspect support fails here.
func TestInspectComplete(t *testing.T) {
	sources := []workload.Workload{{Name: "inspectSrc", Source: inspectSrc}}
	sources = append(sources, workload.All()...)
	sources = append(sources, workload.RangeKernels()...)
	sources = append(sources, workload.StencilKernels()...)
	nodes := 0
	for _, w := range sources {
		for _, fn := range parseChecked(t, w.Name, w.Source).Funcs {
			var got, want []any
			minic.Inspect(fn.Body, func(n any) bool {
				got = append(got, n)
				return true
			})
			reflectWalk(fn.Body, &want)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s.%s: node %d: Inspect visited %d nodes, the reference walk %d (%T vs %T at the first difference)",
					w.Name, fn.Name, i, len(got), len(want), at(got, i), at(want, i))
			}
			nodes += len(got)
		}
	}
	t.Logf("%d programs, %d nodes", len(sources), nodes)
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []any) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []any, i int) any {
	if i < len(s) {
		return s[i]
	}
	return nil
}
