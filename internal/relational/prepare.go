package relational

import (
	"fmt"
	"strings"
	"time"
)

// Prepared statements and the shape-keyed plan cache. Every Exec/Query is
// routed through the cache: the statement's literals are lifted out into
// positional parameters, the remaining token sequence (its "shape") keys a
// cached AST, and the literal values are bound as arguments at execution.
// The XML update translator emits thousands of statements per document that
// differ only in id literals, so one parse and one plan serve them all.

// Prepared is a parsed statement bound to a DB, executable many times with
// different `?` arguments.
type Prepared struct {
	db      *DB
	stmt    Stmt
	nparams int
	// src is the statement text as given (with its `?` placeholders); it is
	// what the redo log records for a prepared execution, together with the
	// bound arguments.
	src string
}

// Prepare parses a statement once for repeated execution. `?` placeholders
// become positional parameters bound by Exec/Query arguments; literals are
// kept as written.
func (db *DB) Prepare(sql string) (*Prepared, error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, err
	}
	stmt, np, err := parseTokens(toks, sql)
	if err != nil {
		return nil, err
	}
	return &Prepared{db: db, stmt: stmt, nparams: np, src: sql}, nil
}

// Exec runs the prepared statement with the given parameter values,
// returning the number of affected rows. Like DB.Exec it runs in an
// implicit per-statement transaction, and joins an open SQL-level
// transaction.
func (p *Prepared) Exec(args ...Value) (int, error) {
	if len(args) != p.nparams {
		return 0, fmt.Errorf("relational: prepared statement takes %d args, got %d", p.nparams, len(args))
	}
	if tx := p.db.sqlTx.Load(); tx != nil {
		n, err := tx.ExecPrepared(p, args...)
		if err != errTxDone {
			return n, err
		}
	}
	start := time.Now()
	qt := p.db.traceBegin("prepared-exec", p.src)
	if qt != nil {
		qt.CacheHit = true // prepared statements are pre-parsed by definition
	}
	// The closure scopes the deferred unlock to the in-memory commit, so a
	// panic cannot strand the writer lock while the fsync wait below still
	// runs outside it.
	n, lsn, err := func() (int, uint64, error) {
		lockStart := time.Now()
		p.db.mu.Lock()
		p.db.met.lockWait.ObserveSince(lockStart)
		defer p.db.mu.Unlock()
		if qt != nil {
			qt.LockWait = time.Since(lockStart)
		}
		p.db.stats.Statements.Add(1)
		return p.db.runAutocommit(p.stmt, args, p.src, args, qt, nil)
	}()
	if err != nil {
		p.db.traceFinish(qt, 0, err)
		return 0, err
	}
	err = p.db.afterCommit(lsn, qt)
	if err == nil {
		p.db.met.commit.ObserveSince(start)
	}
	p.db.traceFinish(qt, n, err)
	return n, err
}

// Query runs a prepared SELECT with the given parameter values, under the
// shared lock like DB.Query; it likewise joins an open SQL-level
// transaction.
func (p *Prepared) Query(args ...Value) (*Rows, error) {
	sel, ok := p.stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("relational: Query requires a SELECT, got %T", p.stmt)
	}
	if len(args) != p.nparams {
		return nil, fmt.Errorf("relational: prepared statement takes %d args, got %d", p.nparams, len(args))
	}
	if tx := p.db.sqlTx.Load(); tx != nil {
		rows, err := tx.QueryPrepared(p, args...)
		if err != errTxDone {
			return rows, err
		}
	}
	p.db.mu.RLock()
	defer p.db.mu.RUnlock()
	p.db.stats.Statements.Add(1)
	env := newEnv(nil)
	env.args = args
	return p.db.execSelect(sel, env)
}

// cachedStmt is one shape-cache entry.
type cachedStmt struct {
	stmt    Stmt
	nparams int
}

// stmtCacheLimit bounds the shape cache. Most shapes are stable templates,
// but variable-length IN lists mint one shape per list length, so busy
// workloads do churn past the bound; eviction must therefore stay cheap
// and local (plans ride on the evicted AST, nothing else is touched).
const stmtCacheLimit = 512

// prepared resolves sql through the shape cache, parsing at most once per
// statement shape. It returns the (shared, read-only) AST, the literal
// values to bind, and whether the template came from the cache. The cache
// has its own lock (stmtMu) and the plan-cache counters are atomic, so
// callers may hold db.mu in either mode or not at all (Tx.Exec, Tx.Query
// and Tx.QueryEach call it before taking any lock).
func (db *DB) prepared(sql string) (Stmt, []Value, bool, error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, nil, false, err
	}
	_, shape, args, ok := liftLiterals(toks, len(sql), false)
	if !ok {
		// Not parameterizable (DDL, explicit `?`): cache by raw text and
		// parse the original tokens.
		shape, args = sql, nil
	}
	db.stmtMu.Lock()
	c, hit := db.stmts[shape]
	db.stmtMu.Unlock()
	if hit && c.nparams == len(args) {
		db.stats.PlanCacheHits.Add(1)
		return c.stmt, args, true, nil
	}
	db.stats.PlanCacheMisses.Add(1)
	ptoks := toks
	if ok {
		// Cache miss: re-run the lift, now emitting the parameterized
		// token stream for parsing.
		ptoks, _, _, _ = liftLiterals(toks, len(sql), true)
	}
	stmt, np, err := parseTokens(ptoks, sql)
	if err != nil {
		return nil, nil, false, err
	}
	if np != len(args) {
		if len(args) == 0 && np > 0 {
			return nil, nil, false, fmt.Errorf("relational: statement contains ? placeholders; use Prepare")
		}
		return nil, nil, false, fmt.Errorf("relational: internal: %d params for %d lifted literals", np, len(args))
	}
	db.stmtMu.Lock()
	if len(db.stmts) >= stmtCacheLimit {
		// Evict an arbitrary template; its AST and the plans compiled into
		// it are garbage-collected together.
		for k := range db.stmts {
			delete(db.stmts, k)
			break
		}
	}
	db.stmts[shape] = &cachedStmt{stmt: stmt, nparams: np}
	db.stmtMu.Unlock()
	return stmt, args, false, nil
}

// liftLiterals walks a token stream lifting literal tokens into `?`
// parameters: it computes the statement's shape string and the lifted
// values, and — when emitTokens is set — the parameterized token stream
// for parsing. One walker serves both the cache-hit path (shape only, no
// token allocation) and the miss path, so the lifting decisions cannot
// diverge. It declines (ok=false) for DDL — schema statements run once and
// CREATE TRIGGER bodies must keep their literals — and for statements
// already containing placeholders. Numbers inside ORDER BY stay literal:
// they are column positions, part of the plan, not data.
func liftLiterals(toks []token, srcLen int, emitTokens bool) ([]token, string, []Value, bool) {
	if len(toks) == 0 {
		return nil, "", nil, false
	}
	if first := toks[0]; first.kind == tokIdent &&
		(strings.EqualFold(first.text, "CREATE") || strings.EqualFold(first.text, "DROP")) {
		return nil, "", nil, false
	}
	var out []token
	if emitTokens {
		out = make([]token, 0, len(toks))
	}
	var b strings.Builder
	b.Grow(srcLen + 8)
	var args []Value
	inOrderBy := false
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		lift := false
		switch t.kind {
		case tokEOF:
		case tokParam:
			return nil, "", nil, false
		case tokNumber:
			if !inOrderBy {
				lift = true
				args = append(args, Int(t.num))
			}
		case tokString:
			lift = true
			args = append(args, Text(t.text))
		case tokIdent:
			if strings.EqualFold(t.text, "ORDER") && i+1 < len(toks) &&
				toks[i+1].kind == tokIdent && strings.EqualFold(toks[i+1].text, "BY") {
				inOrderBy = true
			}
		default:
			// An ORDER BY list extends to the end of the (sub)query; any
			// closing symbol ends it.
			if t.text == ")" || t.text == ";" {
				inOrderBy = false
			}
		}
		if lift {
			b.WriteByte('?')
			if emitTokens {
				out = append(out, token{kind: tokParam, text: "?", pos: t.pos})
			}
		} else {
			b.WriteString(t.text)
			if emitTokens {
				out = append(out, t)
			}
		}
	}
	return out, b.String(), args, true
}
