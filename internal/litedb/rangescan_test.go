package litedb

import "testing"

// TestRowidRangeScanIncludesZero is a regression test: an upper-bounded
// range scan over an explicit INTEGER PRIMARY KEY must include rows whose
// key is zero or negative (the open lower bound used to start at rowid 1,
// the first automatic rowid). The same scan must admit every row a bound
// of another type admits: a REAL bound is not truncated to an integer
// one, every integer sorts below a TEXT bound, and a BETWEEN is not
// narrowed by the strictness of an earlier bound on the same key.
func TestRowidRangeScanIncludesZero(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	for k := -2; k < 8; k++ {
		mustExec(t, db, `INSERT INTO kv (k, v) VALUES (?, ?)`, IntVal(int64(k)), TextVal("x"))
	}
	cases := []struct {
		q    string
		want int64
	}{
		{`SELECT COUNT(*) FROM kv WHERE k < 8`, 10},
		{`SELECT COUNT(*) FROM kv WHERE k <= 7`, 10},
		{`SELECT COUNT(*) FROM kv WHERE k < 1`, 3},
		{`SELECT COUNT(*) FROM kv WHERE k >= -2`, 10},
		{`SELECT COUNT(*) FROM kv WHERE k > -3`, 10},
		{`SELECT COUNT(*) FROM kv WHERE k BETWEEN -2 AND 0`, 3},
		{`SELECT COUNT(*) FROM kv WHERE k < 5.5`, 8},
		{`SELECT COUNT(*) FROM kv WHERE k > -1.5`, 9},
		{`SELECT COUNT(*) FROM kv WHERE k < 'abc'`, 10},
		{`SELECT COUNT(*) FROM kv WHERE k >= 'abc'`, 0},
		{`SELECT COUNT(*) FROM kv WHERE k < 100 AND k BETWEEN 1 AND 5`, 5},
		{`SELECT COUNT(*) FROM kv WHERE k > 9223372036854775807`, 0},
	}
	for _, c := range cases {
		rows := mustQuery(t, db, c.q)
		if got := rows.All()[0][0].Int(); got != c.want {
			t.Errorf("%s = %d, want %d", c.q, got, c.want)
		}
	}
	rows := mustQuery(t, db, `SELECT k FROM kv WHERE k < ?`, IntVal(1))
	if len(rows.All()) != 3 {
		t.Errorf("param upper bound: %v", rows.All())
	}
}
