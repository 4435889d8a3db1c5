package relational

import (
	"fmt"
	"strings"
	"time"
)

// The shape-keyed plan cache. Every statement door (Exec, Query, QueryEach
// on DB and Tx) resolves its text here once. A text with `?` placeholders is
// cached under its exact text and bound to the caller's arguments; any
// other text has its literals lifted out into positional parameters, the
// remaining token sequence (its "shape") keys a cached AST, and the literal
// values are bound as arguments at execution. The XML update translator
// emits thousands of statements per document that differ only in id
// literals, so one parse and one plan serve them all.

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
// statement shape, and returns the (shared, read-only) AST with the values
// to bind: args for a text with `?` placeholders, the lifted literals
// otherwise. The exact text is looked up first — that is how `?` texts and
// DDL are keyed, so a repeated one costs a map lookup — and only a miss
// lexes and lifts. qt, when non-nil, records the cache hit or the parse
// time. The cache has its own lock (stmtMu) and the plan-cache counters are
// atomic, so every door calls it before taking any data lock.
func (db *DB) prepared(sql string, args []Value, qt *QueryTrace) (Stmt, []Value, error) {
	var start time.Time
	if qt != nil {
		start = time.Now()
	}
	db.stmtMu.Lock()
	c := db.stmts[sql]
	db.stmtMu.Unlock()
	shape, bind := sql, args
	var toks []token
	lifted := false
	if c == nil {
		var err error
		if toks, err = lexSQL(sql); err != nil {
			return nil, nil, err
		}
		if len(args) == 0 {
			if _, s, lits, ok := liftLiterals(toks, len(sql), false); ok {
				shape, bind, lifted = s, lits, true
				db.stmtMu.Lock()
				c = db.stmts[shape]
				db.stmtMu.Unlock()
			}
		}
	}
	if c != nil {
		if c.nparams != len(bind) {
			return nil, nil, fmt.Errorf("relational: statement takes %d args, got %d", c.nparams, len(bind))
		}
		db.stats.PlanCacheHits.Add(1)
		if qt != nil {
			qt.CacheHit = true
		}
		return c.stmt, bind, nil
	}
	db.stats.PlanCacheMisses.Add(1)
	if lifted {
		// Re-run the lift, now emitting the parameterized token stream.
		toks, _, _, _ = liftLiterals(toks, len(sql), true)
	}
	stmt, np, err := parseTokens(toks, sql)
	if err != nil {
		return nil, nil, err
	}
	if np != len(bind) {
		return nil, nil, fmt.Errorf("relational: statement takes %d args, got %d", np, len(bind))
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
	if qt != nil {
		qt.Parse = time.Since(start)
	}
	return stmt, bind, nil
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
