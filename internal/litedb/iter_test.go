package litedb

import (
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// drainIter collects every row from a streaming cursor.
func drainIter(t *testing.T, it *RowIter) [][]Value {
	t.Helper()
	var out [][]Value
	for it.Next() {
		out = append(out, it.Row())
	}
	if err := it.Close(); err != nil {
		t.Fatalf("iter: %v", err)
	}
	return out
}

// TestRowIterMatchesMaterialised proves stream-vs-materialised equality
// across the statement shapes QueryIter handles, streaming or not.
func TestRowIterMatchesMaterialised(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE items (id INTEGER PRIMARY KEY, grp TEXT, qty INTEGER, price REAL)`)
	for i := 1; i <= 200; i++ {
		mustExec(t, db, `INSERT INTO items (grp, qty, price) VALUES (?, ?, ?)`,
			TextVal(string(rune('a'+i%5))), IntVal(int64(i%17)), RealVal(float64(i)*1.5))
	}
	queries := []string{
		`SELECT id, grp, qty FROM items`,
		`SELECT id, qty*2 FROM items WHERE qty > 5`,
		`SELECT id FROM items WHERE grp = 'b' LIMIT 10`,
		`SELECT id FROM items LIMIT 7 OFFSET 30`,
		`SELECT 1+2, 'x'`,
		// Materialising fallbacks behind the same interface:
		`SELECT grp, COUNT(*), SUM(qty) FROM items GROUP BY grp`,
		`SELECT DISTINCT grp FROM items`,
		`SELECT id, price FROM items ORDER BY price DESC LIMIT 5`,
	}
	for _, q := range queries {
		rows := mustQuery(t, db, q)
		it, err := db.QueryIter(q)
		if err != nil {
			t.Fatalf("QueryIter(%s): %v", q, err)
		}
		if !reflect.DeepEqual(it.Cols(), rows.Cols) {
			t.Errorf("%s: cols %v != %v", q, it.Cols(), rows.Cols)
		}
		got := drainIter(t, it)
		want := rows.All()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows streamed, %d materialised", q, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s row %d: %v != %v", q, i, got[i], want[i])
			}
		}
	}
}

// TestRowIterBoundedMemory scans a table several times the page cache and
// asserts the producer holds no row ahead of its consumer: it touches the
// file only while a Next (or the Close) is in progress, never in the pause
// between two of them. A page read is charged to whoever is inside the
// enclave at that moment, so a walk that ran ahead would go uncharged.
func TestRowIterBoundedMemory(t *testing.T) {
	vfs := NewMemVFS()
	var accesses atomic.Int64
	vfs.Touch = func(off, n int64) { accesses.Add(1) }
	db, err := Open(vfs, "t.db", Options{CachePages: 16})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE big (id INTEGER PRIMARY KEY, pad TEXT)`)
	mustExec(t, db, `BEGIN`)
	pad := TextVal(strings.Repeat("x", 400))
	for i := 0; i < 2000; i++ {
		mustExec(t, db, `INSERT INTO big (pad) VALUES (?)`, pad)
	}
	mustExec(t, db, `COMMIT`)

	it, err := db.QueryIter(`SELECT id, pad FROM big`)
	if err != nil {
		t.Fatalf("QueryIter: %v", err)
	}
	n, during := 0, int64(0)
	for {
		before := accesses.Load()
		if n%50 == 0 {
			time.Sleep(200 * time.Microsecond) // let a runaway producer run
		} else {
			runtime.Gosched()
		}
		if ran := accesses.Load() - before; ran != 0 {
			t.Fatalf("after row %d: %d file accesses with no Next in progress", n, ran)
		}
		if !it.Next() {
			break
		}
		during += accesses.Load() - before
		n++
	}
	if err := it.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n != 2000 {
		t.Fatalf("streamed %d rows, want 2000", n)
	}
	if during < 200 {
		t.Fatalf("scan made %d file accesses inside Next; the table is ~200 pages against a 16-page cache", during)
	}
}

// TestRowIterEarlyClose stops a large scan after a few rows; the
// producer must exit and the handle must serve the next statement.
func TestRowIterEarlyClose(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE big (id INTEGER PRIMARY KEY)`)
	mustExec(t, db, `BEGIN`)
	for i := 0; i < 1000; i++ {
		mustExec(t, db, `INSERT INTO big (id) VALUES (?)`, IntVal(int64(i+1)))
	}
	mustExec(t, db, `COMMIT`)

	it, err := db.QueryIter(`SELECT id FROM big`)
	if err != nil {
		t.Fatalf("QueryIter: %v", err)
	}
	for i := 0; i < 3; i++ {
		if !it.Next() {
			t.Fatalf("Next returned false at row %d", i)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Handle is free again.
	row, err := db.QueryRow(`SELECT COUNT(*) FROM big`)
	if err != nil || row[0].Int() != 1000 {
		t.Fatalf("post-close query: %v %v", row, err)
	}
}

// TestRowIterError surfaces mid-stream evaluation errors through Err.
func TestRowIterError(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (x TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES ('a')`)
	it, err := db.QueryIter(`SELECT nosuchfunc(x) FROM t`)
	if err != nil {
		// Errors at prepare time are fine too.
		return
	}
	for it.Next() {
	}
	if it.Err() == nil {
		t.Fatalf("expected a streamed error")
	}
	_ = it.Close()
}

// TestStmtHelpers covers the coordinator-facing statement APIs.
func TestStmtHelpers(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)

	stmts, err := ParseAll(`INSERT INTO kv (k, v) VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.ExecStmt(stmts[0], IntVal(7), TextVal("seven"))
	if err != nil || n != 1 {
		t.Fatalf("ExecStmt: n=%d err=%v", n, err)
	}
	qs, err := ParseAll(`SELECT v FROM kv WHERE k = ?`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryStmt(qs[0], IntVal(7))
	if err != nil || rows.Len() != 1 || rows.All()[0][0].Text() != "seven" {
		t.Fatalf("QueryStmt: %v err=%v", rows, err)
	}

	if aff, ok := db.ColumnAffinity("kv", "v"); !ok || aff != Text {
		t.Fatalf("ColumnAffinity: %v %v", aff, ok)
	}
	if cols, ok := db.TableColumns("kv"); !ok || len(cols) != 2 || cols[0] != "k" {
		t.Fatalf("TableColumns: %v %v", cols, ok)
	}

	v, err := EvalConst(&Binary{Op: "+", L: &Literal{Val: IntVal(2)}, R: &Param{Idx: 1}}, []Value{IntVal(40)})
	if err != nil || v.Int() != 42 {
		t.Fatalf("EvalConst: %v err=%v", v, err)
	}
	if _, err := EvalConst(&ColRef{Col: "k"}, nil); err == nil {
		t.Fatalf("EvalConst accepted a column reference")
	}
}
