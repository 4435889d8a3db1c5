package relational

import (
	"fmt"
	"strings"
)

// ParseSQL parses a single SQL statement of the supported subset.
func ParseSQL(src string) (Stmt, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	stmt, _, err := parseTokens(toks, src)
	return stmt, err
}

// parseTokens parses a token stream, returning the statement and the number
// of `?` parameters it contains.
func parseTokens(toks []token, src string) (Stmt, int, error) {
	p := &sqlParser{toks: toks, src: src}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, 0, fmt.Errorf("relational: parse: %s in %q", err, abbreviate(src))
	}
	// Optional trailing semicolon.
	if p.peekSym(";") {
		p.i++
	}
	if p.cur().kind != tokEOF {
		return nil, 0, fmt.Errorf("relational: parse: trailing input %q in %q", p.cur().text, abbreviate(src))
	}
	return stmt, p.nparams, nil
}

func abbreviate(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}

type sqlParser struct {
	toks    []token
	i       int
	src     string
	nparams int
}

func (p *sqlParser) cur() token { return p.toks[p.i] }

func (p *sqlParser) peekKw(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *sqlParser) kw(kw string) bool {
	if p.peekKw(kw) {
		p.i++
		return true
	}
	return false
}

func (p *sqlParser) expectKw(kw string) error {
	if !p.kw(kw) {
		return fmt.Errorf("expected %s, got %q", kw, p.cur().text)
	}
	return nil
}

func (p *sqlParser) peekSym(s string) bool {
	t := p.cur()
	return t.kind == tokSymbol && t.text == s
}

func (p *sqlParser) sym(s string) bool {
	if p.peekSym(s) {
		p.i++
		return true
	}
	return false
}

func (p *sqlParser) expectSym(s string) error {
	if !p.sym(s) {
		return fmt.Errorf("expected %q, got %q", s, p.cur().text)
	}
	return nil
}

func (p *sqlParser) ident() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", fmt.Errorf("expected identifier, got %q", t.text)
	}
	p.i++
	return t.text, nil
}

func (p *sqlParser) parseStmt() (Stmt, error) {
	switch {
	case p.peekKw("CREATE"):
		return p.parseCreate()
	case p.peekKw("DROP"):
		return p.parseDrop()
	case p.peekKw("INSERT"):
		return p.parseInsert()
	case p.peekKw("DELETE"):
		return p.parseDelete()
	case p.peekKw("UPDATE"):
		return p.parseUpdate()
	case p.peekKw("SELECT"), p.peekKw("WITH"), p.peekSym("("):
		return p.parseSelect()
	case p.peekKw("BEGIN"), p.peekKw("COMMIT"), p.peekKw("ROLLBACK"):
		return nil, fmt.Errorf("SQL transaction control %q is not supported; open a transaction with DB.Begin and finish it with Tx.Commit or Tx.Rollback", p.cur().text)
	case p.peekKw("EXPLAIN"), p.peekKw("ANALYZE"):
		return nil, fmt.Errorf("SQL %q is not supported; render plans with DB.Explain or DB.ExplainAnalyze", p.cur().text)
	default:
		return nil, fmt.Errorf("unexpected statement start %q", p.cur().text)
	}
}

func (p *sqlParser) parseCreate() (Stmt, error) {
	p.kw("CREATE")
	switch {
	case p.peekKw("TEMP") || p.peekKw("TEMPORARY"):
		p.i++
		if err := p.expectKw("TABLE"); err != nil {
			return nil, err
		}
		return p.parseCreateTableBody(true)
	case p.kw("TABLE"):
		return p.parseCreateTableBody(false)
	case p.peekKw("ORDERED"), p.peekKw("INDEX"):
		ordered := p.kw("ORDERED")
		if err := p.expectKw("INDEX"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var cols []string
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, col)
			if p.sym(",") {
				continue
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			break
		}
		return &CreateIndexStmt{Name: name, Table: table, Columns: cols, Ordered: ordered}, nil
	case p.kw("TRIGGER"):
		return p.parseCreateTrigger()
	default:
		return nil, fmt.Errorf("expected TABLE, INDEX or TRIGGER after CREATE")
	}
}

func (p *sqlParser) parseCreateTableBody(temp bool) (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var cols []Column
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		cols = append(cols, Column{Name: cname, Type: typ})
		if p.sym(",") {
			continue
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &CreateTableStmt{Name: name, Cols: cols, Temp: temp}, nil
	}
}

func (p *sqlParser) parseType() (Type, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return 0, fmt.Errorf("expected column type, got %q", t.text)
	}
	p.i++
	switch strings.ToUpper(t.text) {
	case "INTEGER", "INT", "BIGINT":
		return Integer, nil
	case "VARCHAR", "CHAR", "TEXT":
		// Optional length: VARCHAR(50).
		if p.sym("(") {
			if p.cur().kind != tokNumber {
				return 0, fmt.Errorf("expected length in %s(…)", t.text)
			}
			p.i++
			if err := p.expectSym(")"); err != nil {
				return 0, err
			}
		}
		return Varchar, nil
	default:
		return 0, fmt.Errorf("unsupported column type %q", t.text)
	}
}

func (p *sqlParser) parseCreateTrigger() (Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AFTER"); err != nil {
		return nil, err
	}
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("FOR"); err != nil {
		return nil, err
	}
	if err := p.expectKw("EACH"); err != nil {
		return nil, err
	}
	perRow := false
	switch {
	case p.kw("ROW"):
		perRow = true
	case p.kw("STATEMENT"):
	default:
		return nil, fmt.Errorf("expected ROW or STATEMENT, got %q", p.cur().text)
	}
	var body Stmt
	switch {
	case p.peekKw("DELETE"):
		body, err = p.parseDelete()
	case p.peekKw("UPDATE"):
		body, err = p.parseUpdate()
	default:
		return nil, fmt.Errorf("trigger body must be DELETE or UPDATE")
	}
	if err != nil {
		return nil, err
	}
	return &CreateTriggerStmt{Name: name, Table: table, PerRow: perRow, Body: body}, nil
}

func (p *sqlParser) parseDrop() (Stmt, error) {
	p.kw("DROP")
	switch {
	case p.kw("TABLE"):
		ifExists := false
		if p.kw("IF") {
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			ifExists = true
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Name: name, IfExists: ifExists}, nil
	case p.kw("TRIGGER"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTriggerStmt{Name: name}, nil
	default:
		return nil, fmt.Errorf("expected TABLE or TRIGGER after DROP")
	}
}

func (p *sqlParser) parseInsert() (Stmt, error) {
	p.kw("INSERT")
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.sym("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, col)
			if p.sym(",") {
				continue
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			break
		}
	}
	if p.kw("VALUES") {
		for {
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.sym(",") {
					continue
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				break
			}
			stmt.Rows = append(stmt.Rows, row)
			if p.sym(",") {
				continue
			}
			return stmt, nil
		}
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.Select = sel.(*SelectStmt)
	return stmt, nil
}

func (p *sqlParser) parseDelete() (Stmt, error) {
	p.kw("DELETE")
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.kw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

func (p *sqlParser) parseUpdate() (Stmt, error) {
	p.kw("UPDATE")
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, SetClause{Col: col, Val: val})
		if p.sym(",") {
			continue
		}
		break
	}
	if p.kw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = e
	}
	return stmt, nil
}

// parseSelect parses [WITH …] unionBody [ORDER BY …].
func (p *sqlParser) parseSelect() (Stmt, error) {
	stmt := &SelectStmt{}
	if p.kw("WITH") {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			cte := CTE{Name: name}
			if p.sym("(") {
				for {
					col, err := p.ident()
					if err != nil {
						return nil, err
					}
					cte.Cols = append(cte.Cols, col)
					if p.sym(",") {
						continue
					}
					if err := p.expectSym(")"); err != nil {
						return nil, err
					}
					break
				}
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			inner, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			cte.Select = inner.(*SelectStmt)
			stmt.With = append(stmt.With, cte)
			if p.sym(",") {
				continue
			}
			break
		}
	}
	body, err := p.parseUnionBody()
	if err != nil {
		return nil, err
	}
	stmt.Body = body
	if p.kw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.kw("DESC") {
				key.Desc = true
			} else {
				p.kw("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, key)
			if p.sym(",") {
				continue
			}
			break
		}
	}
	return stmt, nil
}

// parseUnionBody parses simpleSelect (UNION ALL simpleSelect)*, where each
// branch may be parenthesized.
func (p *sqlParser) parseUnionBody() ([]*SimpleSelect, error) {
	var out []*SimpleSelect
	for {
		var s *SimpleSelect
		if p.sym("(") {
			inner, err := p.parseUnionBody()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			// A parenthesized branch of more than one member is flattened;
			// UNION ALL is associative.
			out = append(out, inner...)
			if p.kw("UNION") {
				if err := p.expectKw("ALL"); err != nil {
					return nil, fmt.Errorf("only UNION ALL is supported")
				}
				continue
			}
			return out, nil
		}
		var err error
		s, err = p.parseSimpleSelect()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if p.kw("UNION") {
			if err := p.expectKw("ALL"); err != nil {
				return nil, fmt.Errorf("only UNION ALL is supported")
			}
			continue
		}
		return out, nil
	}
}

func (p *sqlParser) parseSimpleSelect() (*SimpleSelect, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SimpleSelect{}
	if p.kw("DISTINCT") {
		s.Distinct = true
	}
	if p.peekSym("*") && !p.isStarExprAhead() {
		p.i++
		s.Star = true
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			se := SelectExpr{Expr: e}
			if p.kw("AS") {
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				se.Alias = alias
			} else if p.cur().kind == tokIdent && !p.peekKw("FROM") && !p.peekKw("WHERE") &&
				!p.peekKw("UNION") && !p.peekKw("ORDER") {
				alias, _ := p.ident()
				se.Alias = alias
			}
			s.Exprs = append(s.Exprs, se)
			if p.sym(",") {
				continue
			}
			break
		}
	}
	if p.kw("FROM") {
		for {
			tname, err := p.ident()
			if err != nil {
				return nil, err
			}
			item := FromItem{Table: tname}
			if p.kw("AS") {
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.cur().kind == tokIdent && !p.peekKw("WHERE") && !p.peekKw("UNION") &&
				!p.peekKw("ORDER") {
				alias, _ := p.ident()
				item.Alias = alias
			}
			s.From = append(s.From, item)
			if p.sym(",") {
				continue
			}
			break
		}
	}
	if p.kw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	return s, nil
}

// isStarExprAhead distinguishes `SELECT *` from an arithmetic expression
// starting with `*` (which cannot occur) — always false; kept for clarity.
func (p *sqlParser) isStarExprAhead() bool { return false }

// Expression grammar: or → and → not → comparison → additive →
// multiplicative → primary.
func (p *sqlParser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *sqlParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.kw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.kw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseNot() (Expr, error) {
	if p.kw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *sqlParser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.kw("IS") {
		neg := p.kw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Negate: neg}, nil
	}
	// [NOT] IN (…) and [NOT] BETWEEN lo AND hi
	neg := false
	if p.peekKw("NOT") {
		save := p.i
		p.i++
		if !p.peekKw("IN") && !p.peekKw("BETWEEN") {
			p.i = save
		} else {
			neg = true
		}
	}
	if p.kw("BETWEEN") {
		// Desugared to (l >= lo AND l <= hi), so the planner sees two plain
		// range conjuncts and can turn them into B+tree bounds.
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		rng := &Binary{
			Op: "AND",
			L:  &Binary{Op: ">=", L: l, R: lo},
			R:  &Binary{Op: "<=", L: l, R: hi},
		}
		if neg {
			return &Unary{Op: "NOT", X: rng}, nil
		}
		return rng, nil
	}
	if p.kw("IN") {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		in := &InExpr{X: l, Negate: neg}
		if p.peekKw("SELECT") || p.peekKw("WITH") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			in.Select = sel.(*SelectStmt)
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if p.sym(",") {
					continue
				}
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return in, nil
	}
	for _, op := range []string{"<>", "!=", "<=", ">=", "=", "<", ">"} {
		if p.peekSym(op) {
			p.i++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			canon := op
			if canon == "<>" {
				canon = "!="
			}
			return &Binary{Op: canon, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *sqlParser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekSym("+"):
			p.i++
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "+", L: l, R: r}
		case p.peekSym("-"):
			p.i++
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *sqlParser) parseMultiplicative() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.peekSym("*"):
			p.i++
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "*", L: l, R: r}
		case p.peekSym("/"):
			p.i++
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *sqlParser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.i++
		return &Literal{Value: Int(t.num)}, nil
	case t.kind == tokString:
		p.i++
		return &Literal{Value: Text(t.text)}, nil
	case t.kind == tokParam:
		p.i++
		e := &Param{Index: p.nparams}
		p.nparams++
		return e, nil
	case p.peekSym("-"):
		p.i++
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x}, nil
	case p.peekSym("("):
		p.i++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		if strings.EqualFold(t.text, "NULL") {
			p.i++
			return &Literal{Value: Null}, nil
		}
		upper := strings.ToUpper(t.text)
		if upper == "MIN" || upper == "MAX" || upper == "COUNT" {
			// Aggregate call — only when followed by '('.
			if p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
				p.i += 2
				fc := &FuncCall{Name: upper}
				if p.sym("*") {
					fc.Star = true
				} else {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Arg = arg
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
		}
		p.i++
		name := t.text
		if p.sym(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil
	default:
		return nil, fmt.Errorf("unexpected token %q in expression", t.text)
	}
}
