package relational

// Stmt is a parsed SQL statement.
type Stmt interface{ isStmt() }

// CreateTableStmt is CREATE TABLE name (col TYPE, …).
type CreateTableStmt struct {
	Name string
	Cols []Column
	// Temp marks CREATE TEMP TABLE work areas (table-based insert, §6.2.2).
	Temp bool
}

func (*CreateTableStmt) isStmt() {}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct {
	Name string
	// IfExists suppresses the missing-table error.
	IfExists bool
}

func (*DropTableStmt) isStmt() {}

// CreateIndexStmt is CREATE [ORDERED] INDEX name ON table (col, …). A
// single-column plain index is a hash index; ORDERED (or a multi-column key,
// which only an ordered structure can serve) builds a B+tree index.
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
	Ordered bool
}

func (*CreateIndexStmt) isStmt() {}

// DropIndexStmt is DROP INDEX table (col): it drops the hash index on col
// and every ordered index led by it.
type DropIndexStmt struct {
	Table  string
	Column string
}

func (*DropIndexStmt) isStmt() {}

// CreateTriggerStmt is
//
//	CREATE TRIGGER name AFTER DELETE ON table
//	FOR EACH {ROW | STATEMENT} body
//
// where body is a single DELETE or UPDATE statement. Row triggers may
// reference the deleted row as OLD.col.
type CreateTriggerStmt struct {
	Name   string
	Table  string
	PerRow bool
	Body   Stmt
}

func (*CreateTriggerStmt) isStmt() {}

// DropTriggerStmt is DROP TRIGGER name.
type DropTriggerStmt struct{ Name string }

func (*DropTriggerStmt) isStmt() {}

// InsertStmt is INSERT INTO table [(cols)] {VALUES (…), … | select}.
type InsertStmt struct {
	Table  string
	Cols   []string
	Rows   [][]Expr
	Select *SelectStmt
}

func (*InsertStmt) isStmt() {}

// DeleteStmt is DELETE FROM table [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr

	plan *levelPlan // compiled access path, set on first execution
}

func (*DeleteStmt) isStmt() {}

// UpdateStmt is UPDATE table SET col = expr, … [WHERE expr].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr

	plan *levelPlan // compiled access path, set on first execution
}

func (*UpdateStmt) isStmt() {}

// SetClause is one col = expr assignment.
type SetClause struct {
	Col string
	Val Expr
}

// SelectStmt is [WITH cte, …] body [ORDER BY key, …].
type SelectStmt struct {
	With    []CTE
	Body    []*SimpleSelect // UNION ALL branches, in order
	OrderBy []OrderKey

	// wants caches the per-CTE desired-order translation (order.go) for
	// the statement's own ORDER BY; schema changes invalidate it like the
	// compiled plans. Shape-cached statements re-execute thousands of
	// times, so the propagation walk runs once, not per query.
	wants      map[string][]OrderKey
	wantsVer   int64
	wantsValid bool
}

func (*SelectStmt) isStmt() {}

// CTE is one WITH member: name(cols) AS (select).
type CTE struct {
	Name   string
	Cols   []string
	Select *SelectStmt
}

// OrderKey is one ORDER BY key. Columns are resolved against the output
// schema of the select body.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// SimpleSelect is SELECT [DISTINCT] exprs FROM t [a], … [WHERE expr].
type SimpleSelect struct {
	Distinct bool
	Star     bool
	Exprs    []SelectExpr
	From     []FromItem
	Where    Expr

	plan *simplePlan // compiled plan, set on first execution
}

// SelectExpr is one output expression with an optional alias.
type SelectExpr struct {
	Expr  Expr
	Alias string
}

// FromItem is one FROM member: a base table or CTE name with an optional
// alias.
type FromItem struct {
	Table string
	Alias string
}

// Name returns the binding name of the item (alias if present).
func (f FromItem) Name() string {
	if f.Alias != "" {
		return f.Alias
	}
	return f.Table
}

// Expr is a SQL expression node.
type Expr interface{ isExpr() }

// ColumnRef references a column, optionally qualified (t.c). The qualifier
// "OLD" refers to the deleted row inside a per-row trigger body.
type ColumnRef struct {
	Table string
	Name  string
}

func (*ColumnRef) isExpr() {}

// Literal is a constant: int64, string, or nil for NULL.
type Literal struct{ Value Value }

func (*Literal) isExpr() {}

// Binary applies an operator: comparison (=, !=, <>, <, <=, >, >=), boolean
// (AND, OR), or arithmetic (+, -, *, /).
type Binary struct {
	Op   string
	L, R Expr
}

func (*Binary) isExpr() {}

// Unary is NOT expr or -expr.
type Unary struct {
	Op string
	X  Expr
}

func (*Unary) isExpr() {}

// IsNull is expr IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

func (*IsNull) isExpr() {}

// InExpr is expr [NOT] IN (subquery) or expr [NOT] IN (v1, v2, …).
type InExpr struct {
	X      Expr
	Select *SelectStmt
	List   []Expr
	Negate bool
}

func (*InExpr) isExpr() {}

// FuncCall is an aggregate call: MIN(x), MAX(x), COUNT(*), COUNT(x).
type FuncCall struct {
	Name string
	Arg  Expr // nil for COUNT(*)
	Star bool
}

func (*FuncCall) isExpr() {}

// Param is a positional placeholder (`?`) bound to a value at execution
// time: a `?` in the statement text, or a literal the shape cache lifted out
// so one parsed AST and one plan serve every statement of the same shape.
type Param struct{ Index int }

func (*Param) isExpr() {}
