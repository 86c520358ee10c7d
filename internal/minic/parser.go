package minic

// Parse builds an AST from mini-C source. The grammar is a conventional
// C subset; see the package comment. Returned errors carry line:col
// positions.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{Source: src}
	for !p.at(TokEOF) {
		if err := p.topDecl(prog); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokKind) bool { return p.cur().Kind == kind }

func (p *parser) atPunct(text string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == text
}

func (p *parser) atKeyword(text string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == text
}

func (p *parser) acceptPunct(text string) bool {
	if p.atPunct(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(text string) error {
	t := p.cur()
	if !p.acceptPunct(text) {
		return errf(t.Line, t.Col, "expected %q, found %s", text, t)
	}
	return nil
}

func (p *parser) atType() bool {
	return p.atKeyword("int") || p.atKeyword("char") || p.atKeyword("void")
}

// baseType consumes int/char/void.
func (p *parser) baseType() (*Type, error) {
	t := p.cur()
	switch {
	case p.atKeyword("int"):
		p.pos++
		return Int, nil
	case p.atKeyword("char"):
		p.pos++
		return Char, nil
	case p.atKeyword("void"):
		p.pos++
		return Void, nil
	default:
		return nil, errf(t.Line, t.Col, "expected type, found %s", t)
	}
}

// stars consumes "*"* and wraps base in pointers.
func (p *parser) stars(base *Type) *Type {
	for p.acceptPunct("*") {
		base = PointerTo(base)
	}
	return base
}

func (p *parser) ident() (Token, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return t, errf(t.Line, t.Col, "expected identifier, found %s", t)
	}
	p.pos++
	return t, nil
}

// topDecl parses one global variable declaration (possibly with several
// declarators) or a function definition.
func (p *parser) topDecl(prog *Program) error {
	base, err := p.baseType()
	if err != nil {
		return err
	}
	typ := p.stars(base)
	name, err := p.ident()
	if err != nil {
		return err
	}
	if p.atPunct("(") {
		fn, err := p.funcRest(typ, name)
		if err != nil {
			return err
		}
		prog.Funcs = append(prog.Funcs, fn)
		return nil
	}
	// Global variable(s).
	for {
		decl, err := p.declaratorRest(typ, name, StorageGlobal)
		if err != nil {
			return err
		}
		prog.Globals = append(prog.Globals, decl)
		if !p.acceptPunct(",") {
			break
		}
		// Subsequent declarators share the base type but re-parse stars.
		typ2 := p.stars(base)
		name, err = p.ident()
		if err != nil {
			return err
		}
		typ = typ2
	}
	return p.expectPunct(";")
}

// declaratorRest parses the remainder of a declarator after the name:
// optional array suffix and initialiser.
func (p *parser) declaratorRest(typ *Type, name Token, storage StorageClass) (*VarDecl, error) {
	decl := &VarDecl{Name: name.Text, Type: typ, Storage: storage, Line: name.Line}
	if p.acceptPunct("[") {
		t := p.cur()
		if t.Kind != TokNumber {
			return nil, errf(t.Line, t.Col, "array length must be an integer literal")
		}
		p.pos++
		if t.Int <= 0 {
			return nil, errf(t.Line, t.Col, "array length must be positive")
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		decl.Type = ArrayOf(typ, int(t.Int))
	}
	if p.acceptPunct("=") {
		switch {
		case p.atPunct("{"):
			p.pos++
			for {
				e, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				decl.InitList = append(decl.InitList, e)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
		case p.at(TokString):
			decl.InitStr = p.next().Text
		default:
			e, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			decl.Init = e
		}
	}
	return decl, nil
}

// funcRest parses a function definition after "type name".
func (p *parser) funcRest(ret *Type, name Token) (*FuncDecl, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: name.Text, Ret: ret, Line: name.Line}
	if !p.atPunct(")") {
		// Allow "void" as the sole parameter.
		if p.atKeyword("void") && p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == ")" {
			p.pos++
		} else {
			for {
				base, err := p.baseType()
				if err != nil {
					return nil, err
				}
				typ := p.stars(base)
				pname, err := p.ident()
				if err != nil {
					return nil, err
				}
				// Array parameters decay to pointers.
				if p.acceptPunct("[") {
					if p.cur().Kind == TokNumber {
						p.pos++
					}
					if err := p.expectPunct("]"); err != nil {
						return nil, err
					}
					typ = PointerTo(typ)
				}
				fn.Params = append(fn.Params, &VarDecl{
					Name: pname.Text, Type: typ, Storage: StorageParam, Line: pname.Line,
				})
				if !p.acceptPunct(",") {
					break
				}
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) block() (*BlockStmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	blk := &BlockStmt{}
	for !p.atPunct("}") {
		if p.at(TokEOF) {
			t := p.cur()
			return nil, errf(t.Line, t.Col, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
	}
	p.pos++
	return blk, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.atPunct("{"):
		return p.block()

	case p.atPunct(";"):
		p.pos++
		return nil, nil

	case p.atType():
		return p.localDecl()

	case p.atKeyword("if"):
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmt := &IfStmt{Cond: cond, Then: then}
		if p.atKeyword("else") {
			p.pos++
			stmt.Else, err = p.stmt()
			if err != nil {
				return nil, err
			}
		}
		return stmt, nil

	case p.atKeyword("while"):
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: t.Line}, nil

	case p.atKeyword("for"):
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		stmt := &ForStmt{Line: t.Line}
		if !p.atPunct(";") {
			if p.atType() {
				init, err := p.localDecl() // consumes ";"
				if err != nil {
					return nil, err
				}
				stmt.Init = init
			} else {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				stmt.Init = &ExprStmt{X: e}
				if err := p.expectPunct(";"); err != nil {
					return nil, err
				}
			}
		} else {
			p.pos++
		}
		if !p.atPunct(";") {
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			stmt.Cond = cond
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		if !p.atPunct(")") {
			post, err := p.expr()
			if err != nil {
				return nil, err
			}
			stmt.Post = post
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmt.Body = body
		return stmt, nil

	case p.atKeyword("return"):
		p.pos++
		stmt := &ReturnStmt{Line: t.Line}
		if !p.atPunct(";") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			stmt.X = e
		}
		return stmt, p.expectPunct(";")

	case p.atKeyword("break"):
		p.pos++
		return &BreakStmt{Line: t.Line}, p.expectPunct(";")

	case p.atKeyword("continue"):
		p.pos++
		return &ContinueStmt{Line: t.Line}, p.expectPunct(";")

	default:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{X: e}, p.expectPunct(";")
	}
}

// localDecl parses "type declarator (, declarator)* ;" and returns a
// single DeclStmt however many variables it declares.
func (p *parser) localDecl() (Stmt, error) {
	base, err := p.baseType()
	if err != nil {
		return nil, err
	}
	stmt := &DeclStmt{}
	for {
		typ := p.stars(base)
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		decl, err := p.declaratorRest(typ, name, StorageLocal)
		if err != nil {
			return nil, err
		}
		stmt.Decls = append(stmt.Decls, decl)
		if !p.acceptPunct(",") {
			break
		}
	}
	return stmt, p.expectPunct(";")
}

// Expression parsing: precedence climbing.

func (p *parser) expr() (Expr, error) { return p.assignExpr() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *parser) assignExpr() (Expr, error) {
	lhs, err := p.binaryExpr(0)
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct && assignOps[t.Text] {
		p.pos++
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &Assign{exprBase: exprBase{line: t.Line}, Op: t.Text, LHS: lhs, RHS: rhs}, nil
	}
	return lhs, nil
}

// binLevels lists binary operators from lowest to highest precedence.
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) binaryExpr(level int) (Expr, error) {
	if level == len(binLevels) {
		return p.unaryExpr()
	}
	lhs, err := p.binaryExpr(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		matched := false
		if t.Kind == TokPunct {
			for _, op := range binLevels[level] {
				if t.Text == op {
					matched = true
					break
				}
			}
		}
		if !matched {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.binaryExpr(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase: exprBase{line: t.Line}, Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "!", "-", "~", "*", "&":
			p.pos++
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &Unary{exprBase: exprBase{line: t.Line}, Op: t.Text, X: x}, nil
		case "++", "--":
			p.pos++
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &IncDec{exprBase: exprBase{line: t.Line}, Op: t.Text, X: x}, nil
		case "(":
			// Cast: "(" type ")" unary.
			if p.toks[p.pos+1].Kind == TokKeyword && keywords[p.toks[p.pos+1].Text] {
				save := p.pos
				p.pos++
				base, err := p.baseType()
				if err != nil {
					p.pos = save
					break
				}
				typ := p.stars(base)
				if !p.acceptPunct(")") {
					p.pos = save
					break
				}
				x, err := p.unaryExpr()
				if err != nil {
					return nil, err
				}
				return &Cast{exprBase: exprBase{line: t.Line}, To: typ, X: x}, nil
			}
		}
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (Expr, error) {
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.atPunct("["):
			p.pos++
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &Index{exprBase: exprBase{line: t.Line}, Base: x, Index: idx}
		case p.atPunct("++"), p.atPunct("--"):
			p.pos++
			x = &IncDec{exprBase: exprBase{line: t.Line}, Op: t.Text, Post: true, X: x}
		default:
			return x, nil
		}
	}
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber, TokCharLit:
		p.pos++
		return &NumberLit{exprBase: exprBase{line: t.Line}, Value: t.Int}, nil
	case TokString:
		p.pos++
		return &StringLit{exprBase: exprBase{line: t.Line}, Value: t.Text}, nil
	case TokIdent:
		p.pos++
		if p.atPunct("(") {
			p.pos++
			call := &Call{exprBase: exprBase{line: t.Line}, Name: t.Text}
			if !p.atPunct(")") {
				for {
					arg, err := p.assignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.acceptPunct(",") {
						break
					}
				}
			}
			return call, p.expectPunct(")")
		}
		return &VarRef{exprBase: exprBase{line: t.Line}, Name: t.Text}, nil
	case TokPunct:
		if t.Text == "(" {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			return e, p.expectPunct(")")
		}
	}
	return nil, errf(t.Line, t.Col, "unexpected token %s", t)
}
