package minic

// Inspect walks the tree rooted at n in source order, calling f for each
// node before its children; when f returns false the node's children are
// skipped. n is a Stmt, an Expr or a *VarDecl, and so is every node f
// sees. A DeclStmt's children are its VarDecls, a VarDecl's children are
// its initialisers, and nil children are skipped. VarRef.Decl and
// Call.Decl are references, not children.
//
// Every analysis that only looks at the tree is a visitor over Inspect,
// so a new node kind is taught to the walk here, in one place.
func Inspect(n any, f func(n any) bool) {
	if n == nil || !f(n) {
		return
	}
	switch n := n.(type) {
	case *BlockStmt:
		for _, s := range n.Stmts {
			Inspect(s, f)
		}
	case *DeclStmt:
		for _, d := range n.Decls {
			Inspect(d, f)
		}
	case *VarDecl:
		Inspect(n.Init, f)
		for _, e := range n.InitList {
			Inspect(e, f)
		}
	case *ExprStmt:
		Inspect(n.X, f)
	case *IfStmt:
		Inspect(n.Cond, f)
		Inspect(n.Then, f)
		Inspect(n.Else, f)
	case *WhileStmt:
		Inspect(n.Cond, f)
		Inspect(n.Body, f)
	case *ForStmt:
		Inspect(n.Init, f)
		Inspect(n.Cond, f)
		Inspect(n.Post, f)
		Inspect(n.Body, f)
	case *ReturnStmt:
		Inspect(n.X, f)
	case *Unary:
		Inspect(n.X, f)
	case *IncDec:
		Inspect(n.X, f)
	case *Binary:
		Inspect(n.X, f)
		Inspect(n.Y, f)
	case *Assign:
		Inspect(n.LHS, f)
		Inspect(n.RHS, f)
	case *Index:
		Inspect(n.Base, f)
		Inspect(n.Index, f)
	case *Call:
		for _, a := range n.Args {
			Inspect(a, f)
		}
	case *Cast:
		Inspect(n.X, f)
	}
}
