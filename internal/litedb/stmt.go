package litedb

import "strings"

// Statement-level execution and expression helpers for coordinators that
// parse once and route pre-built statements — the tsql shard service
// classifies, splits and rewrites ASTs at its front door and executes
// them here without re-parsing.

// ExecStmt runs one pre-parsed statement with autocommit handling,
// returning its affected-row count.
func (db *DB) ExecStmt(st Stmt, args ...Value) (int64, error) {
	_, n, err := db.run(st, args)
	return n, err
}

// QueryStmt runs one pre-parsed SELECT (or PRAGMA) and returns its rows.
func (db *DB) QueryStmt(st Stmt, args ...Value) (*Rows, error) {
	rows, _, err := db.run(st, args)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = &Rows{}
	}
	return rows, nil
}

// NewRows builds a materialised result set from already-computed rows
// (merge output of a fan-out coordinator).
func NewRows(cols []string, rows [][]Value) *Rows {
	return &Rows{Cols: cols, rows: rows}
}

// EvalConst evaluates a row-independent expression (literals, parameters,
// operators, deterministic scalar functions) against args. Column
// references fail to bind and random()/randomblob() fail to evaluate (the
// context carries no generator: the value a router drew would not be the
// one the executing handle stores), which is exactly the signal routers
// use to reject non-constant keys.
func EvalConst(e Expr, args []Value) (Value, error) {
	if err := bindExpr(e, &bindScope{}); err != nil {
		return Value{}, err
	}
	return eval(e, &evalCtx{args: args})
}

// ApplyAffinity coerces v under the column affinity rules (the same
// coercion INSERT applies before storing), so hash routing sees the
// stored representation of a key, not its literal spelling.
func ApplyAffinity(v Value, aff Type) Value { return applyAffinity(v, aff) }

// IsAggregate reports whether the call invokes an aggregate function
// (min/max with multiple arguments are scalar, matching SQLite).
func (c *Call) IsAggregate() bool { return callIsAggregate(c) }

// ColumnAffinity returns the declared affinity of table.col.
func (db *DB) ColumnAffinity(table, col string) (Type, bool) {
	ts, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return Null, false
	}
	ci := ts.colIndex(col)
	if ci < 0 {
		return Null, false
	}
	return ts.Cols[ci].Affinity, true
}

// TableColumns returns the declared column names of a table in order.
func (db *DB) TableColumns(table string) ([]string, bool) {
	ts, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return nil, false
	}
	cols := make([]string, len(ts.Cols))
	for i, c := range ts.Cols {
		cols[i] = c.Name
	}
	return cols, true
}
