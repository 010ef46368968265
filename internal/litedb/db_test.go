package litedb

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"twine/internal/hostfs"
)

func openTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(NewMemVFS(), "t.db", Options{CachePages: 64})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, db *DB, sql string, args ...Value) int64 {
	t.Helper()
	n, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, db *DB, sql string, args ...Value) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%s): %v", sql, err)
	}
	return rows
}

func rowsAsText(r *Rows) []string {
	var out []string
	for _, row := range r.All() {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func TestCreateInsertSelect(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT NOT NULL, age INTEGER)`)
	mustExec(t, db, `INSERT INTO users (name, age) VALUES ('alice', 30), ('bob', 25), ('carol', 35)`)
	rows := mustQuery(t, db, `SELECT id, name, age FROM users ORDER BY id`)
	got := rowsAsText(rows)
	want := []string{"1|alice|30", "2|bob|25", "3|carol|35"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows = %v, want %v", got, want)
		}
	}
}

func TestWhereAndParams(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INTEGER, b TEXT)`)
	for i := 1; i <= 10; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, IntVal(int64(i)), TextVal(fmt.Sprintf("s%d", i)))
	}
	rows := mustQuery(t, db, `SELECT b FROM t WHERE a > ? AND a <= ?`, IntVal(7), IntVal(9))
	got := rowsAsText(rows)
	if len(got) != 2 || got[0] != "s8" || got[1] != "s9" {
		t.Errorf("rows = %v", got)
	}
}

func TestRowidPKAlias(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `INSERT INTO kv VALUES (100, 'x'), (200, 'y')`)
	row, err := db.QueryRow(`SELECT rowid, k, v FROM kv WHERE k = 200`)
	if err != nil {
		t.Fatalf("QueryRow: %v", err)
	}
	if row[0].Int() != 200 || row[1].Int() != 200 || row[2].Text() != "y" {
		t.Errorf("row = %v", row)
	}
	// Duplicate PK rejected.
	if _, err := db.Exec(`INSERT INTO kv VALUES (100, 'dup')`); err == nil {
		t.Error("duplicate INTEGER PRIMARY KEY accepted")
	}
	// INSERT OR REPLACE succeeds.
	mustExec(t, db, `INSERT OR REPLACE INTO kv VALUES (100, 'replaced')`)
	row, _ = db.QueryRow(`SELECT v FROM kv WHERE k = 100`)
	if row[0].Text() != "replaced" {
		t.Errorf("v = %v", row[0])
	}
}

func TestUniqueConstraint(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE u (email TEXT UNIQUE, n INTEGER)`)
	mustExec(t, db, `INSERT INTO u VALUES ('a@x.com', 1)`)
	if _, err := db.Exec(`INSERT INTO u VALUES ('a@x.com', 2)`); err == nil ||
		!strings.Contains(err.Error(), "UNIQUE") {
		t.Errorf("duplicate unique = %v", err)
	}
	// NULLs do not conflict.
	mustExec(t, db, `INSERT INTO u VALUES (NULL, 3)`)
	mustExec(t, db, `INSERT INTO u VALUES (NULL, 4)`)
	row, _ := db.QueryRow(`SELECT COUNT(*) FROM u`)
	if row[0].Int() != 3 {
		t.Errorf("count = %v", row[0])
	}
}

func TestNotNullConstraint(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE n (a TEXT NOT NULL)`)
	if _, err := db.Exec(`INSERT INTO n VALUES (NULL)`); err == nil ||
		!strings.Contains(err.Error(), "NOT NULL") {
		t.Errorf("NULL into NOT NULL = %v", err)
	}
}

func TestDefaults(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE d (a INTEGER, b TEXT DEFAULT 'none', c REAL DEFAULT 2.5)`)
	mustExec(t, db, `INSERT INTO d (a) VALUES (1)`)
	row, _ := db.QueryRow(`SELECT b, c FROM d`)
	if row[0].Text() != "none" || row[1].Real() != 2.5 {
		t.Errorf("defaults = %v", row)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INTEGER, b INTEGER)`)
	for i := 1; i <= 100; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, 0)`, IntVal(int64(i)))
	}
	n := mustExec(t, db, `UPDATE t SET b = a * 2 WHERE a <= 50`)
	if n != 50 {
		t.Errorf("update affected %d", n)
	}
	row, _ := db.QueryRow(`SELECT SUM(b) FROM t`)
	if row[0].Int() != 2550 { // 2*(1+..+50)
		t.Errorf("sum = %v", row[0])
	}
	n = mustExec(t, db, `DELETE FROM t WHERE b = 0`)
	if n != 50 {
		t.Errorf("delete affected %d", n)
	}
	row, _ = db.QueryRow(`SELECT COUNT(*) FROM t`)
	if row[0].Int() != 50 {
		t.Errorf("count = %v", row[0])
	}
}

func TestIndexUseAndCorrectness(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INTEGER, b TEXT)`)
	mustExec(t, db, `CREATE INDEX ia ON t(a)`)
	for i := 1; i <= 500; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?)`, IntVal(int64(i%50)), TextVal(fmt.Sprintf("v%d", i)))
	}
	// Count pager activity for an indexed point query vs a full scan.
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE a = 7`)
	if rows.All()[0][0].Int() != 10 {
		t.Errorf("indexed count = %v", rows.All()[0][0])
	}
	// Index stays consistent under update/delete.
	mustExec(t, db, `UPDATE t SET a = 99 WHERE a = 7`)
	row, _ := db.QueryRow(`SELECT COUNT(*) FROM t WHERE a = 99`)
	if row[0].Int() != 10 {
		t.Errorf("after update = %v", row[0])
	}
	mustExec(t, db, `DELETE FROM t WHERE a = 99`)
	row, _ = db.QueryRow(`SELECT COUNT(*) FROM t WHERE a = 99`)
	if row[0].Int() != 0 {
		t.Errorf("after delete = %v", row[0])
	}
}

func TestJoin(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE dept (id INTEGER PRIMARY KEY, dname TEXT)`)
	mustExec(t, db, `CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT, dept_id INTEGER)`)
	mustExec(t, db, `INSERT INTO dept VALUES (1,'eng'), (2,'ops')`)
	mustExec(t, db, `INSERT INTO emp VALUES (1,'alice',1), (2,'bob',2), (3,'carol',1)`)
	rows := mustQuery(t, db, `
		SELECT e.name, d.dname FROM emp e JOIN dept d ON e.dept_id = d.id
		WHERE d.dname = 'eng' ORDER BY e.name`)
	got := rowsAsText(rows)
	if len(got) != 2 || got[0] != "alice|eng" || got[1] != "carol|eng" {
		t.Errorf("join rows = %v", got)
	}
	// Comma join with WHERE.
	rows = mustQuery(t, db, `SELECT COUNT(*) FROM emp, dept WHERE emp.dept_id = dept.id`)
	if rows.All()[0][0].Int() != 3 {
		t.Errorf("comma join count = %v", rows.All()[0][0])
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE s (grp TEXT, v INTEGER)`)
	mustExec(t, db, `INSERT INTO s VALUES ('a',1),('a',2),('a',3),('b',10),('b',20)`)
	rows := mustQuery(t, db, `
		SELECT grp, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v)
		FROM s GROUP BY grp ORDER BY grp`)
	got := rowsAsText(rows)
	if got[0] != "a|3|6|2|1|3" || got[1] != "b|2|30|15|10|20" {
		t.Errorf("group rows = %v", got)
	}
	// HAVING.
	rows = mustQuery(t, db, `SELECT grp FROM s GROUP BY grp HAVING SUM(v) > 10`)
	if len(rows.All()) != 1 || rows.All()[0][0].Text() != "b" {
		t.Errorf("having rows = %v", rowsAsText(rows))
	}
	// Aggregate over empty set.
	row, _ := db.QueryRow(`SELECT COUNT(*), SUM(v) FROM s WHERE v > 1000`)
	if row[0].Int() != 0 || !row[1].IsNull() {
		t.Errorf("empty agg = %v", row)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	for _, v := range []int{5, 3, 9, 1, 7} {
		mustExec(t, db, `INSERT INTO t VALUES (?)`, IntVal(int64(v)))
	}
	rows := mustQuery(t, db, `SELECT a FROM t ORDER BY a DESC LIMIT 2 OFFSET 1`)
	got := rowsAsText(rows)
	if len(got) != 2 || got[0] != "7" || got[1] != "5" {
		t.Errorf("rows = %v", got)
	}
	// ORDER BY ordinal and alias.
	rows = mustQuery(t, db, `SELECT a AS x FROM t ORDER BY 1`)
	if rowsAsText(rows)[0] != "1" {
		t.Errorf("ordinal order = %v", rowsAsText(rows))
	}
	rows = mustQuery(t, db, `SELECT a AS x FROM t ORDER BY x DESC`)
	if rowsAsText(rows)[0] != "9" {
		t.Errorf("alias order = %v", rowsAsText(rows))
	}
}

func TestDistinct(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1),(2),(2),(3),(3),(3)`)
	rows := mustQuery(t, db, `SELECT DISTINCT a FROM t ORDER BY a`)
	if len(rows.All()) != 3 {
		t.Errorf("distinct rows = %v", rowsAsText(rows))
	}
}

func TestExpressions(t *testing.T) {
	db := openTestDB(t)
	checks := []struct {
		sql  string
		want string
	}{
		{`SELECT 1 + 2 * 3`, "7"},
		{`SELECT (1 + 2) * 3`, "9"},
		{`SELECT 7 / 2`, "3"},
		{`SELECT 7.0 / 2`, "3.5"},
		{`SELECT 7 % 3`, "1"},
		{`SELECT 1 / 0`, "NULL"},
		{`SELECT 'a' || 'b' || 'c'`, "abc"},
		{`SELECT -(-5)`, "5"},
		{`SELECT 2 < 3`, "1"},
		{`SELECT NULL = NULL`, "NULL"},
		{`SELECT NULL IS NULL`, "1"},
		{`SELECT 3 IS NOT NULL`, "1"},
		{`SELECT 5 BETWEEN 1 AND 10`, "1"},
		{`SELECT 5 NOT BETWEEN 1 AND 10`, "0"},
		{`SELECT 2 IN (1, 2, 3)`, "1"},
		{`SELECT 9 NOT IN (1, 2, 3)`, "1"},
		{`SELECT 'hello' LIKE 'h%'`, "1"},
		{`SELECT 'hello' LIKE 'H_LLO'`, "1"},
		{`SELECT 'hello' NOT LIKE 'x%'`, "1"},
		{`SELECT length('abc')`, "3"},
		{`SELECT abs(-4)`, "4"},
		{`SELECT upper('ab')`, "AB"},
		{`SELECT lower('AB')`, "ab"},
		{`SELECT substr('hello', 2, 3)`, "ell"},
		{`SELECT substr('hello', -3)`, "llo"},
		{`SELECT coalesce(NULL, NULL, 'x')`, "x"},
		{`SELECT typeof(3)`, "integer"},
		{`SELECT typeof(3.5)`, "real"},
		{`SELECT typeof('s')`, "text"},
		{`SELECT typeof(NULL)`, "null"},
		{`SELECT min(3, 1, 2)`, "1"},
		{`SELECT max(3, 1, 2)`, "3"},
		{`SELECT CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END`, "b"},
		{`SELECT CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END`, "two"},
		{`SELECT CAST('12' AS INTEGER)`, "12"},
		{`SELECT CAST(3.9 AS INTEGER)`, "3"},
		{`SELECT hex(x'1a2b')`, "1A2B"},
		{`SELECT replace('aXbXc', 'X', '-')`, "a-b-c"},
		{`SELECT instr('hello', 'll')`, "3"},
		{`SELECT round(2.567, 2)`, "2.57"},
		{`SELECT 1 AND NULL`, "NULL"},
		{`SELECT 0 AND NULL`, "0"},
		{`SELECT 1 OR NULL`, "1"},
		{`SELECT 0 OR NULL`, "NULL"},
		{`SELECT NOT 0`, "1"},
		{`SELECT 5 & 3`, "1"},
		{`SELECT 5 | 3`, "7"},
		{`SELECT 1 << 4`, "16"},
		{`SELECT nullif(1, 1)`, "NULL"},
		{`SELECT nullif(1, 2)`, "1"},
		{`SELECT zeroblob(3)`, "x'000000'"},
	}
	for _, c := range checks {
		row, err := db.QueryRow(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if got := row[0].String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestAlterTable(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustExec(t, db, `ALTER TABLE t ADD COLUMN b TEXT DEFAULT 'fresh'`)
	// Old rows read the default; new rows store values.
	mustExec(t, db, `INSERT INTO t VALUES (2, 'stored')`)
	rows := mustQuery(t, db, `SELECT a, b FROM t ORDER BY a`)
	got := rowsAsText(rows)
	if got[0] != "1|fresh" || got[1] != "2|stored" {
		t.Errorf("rows = %v", got)
	}
	mustExec(t, db, `ALTER TABLE t RENAME TO t2`)
	if _, err := db.Query(`SELECT * FROM t`); err == nil {
		t.Error("old name still resolves")
	}
	row, _ := db.QueryRow(`SELECT COUNT(*) FROM t2`)
	if row[0].Int() != 2 {
		t.Errorf("renamed count = %v", row[0])
	}
}

func TestDropTableAndIndex(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, db, `CREATE INDEX i ON t(a)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustExec(t, db, `DROP INDEX i`)
	mustExec(t, db, `DROP TABLE t`)
	if _, err := db.Query(`SELECT * FROM t`); err == nil {
		t.Error("dropped table still resolves")
	}
	mustExec(t, db, `DROP TABLE IF EXISTS t`) // no error
	if _, err := db.Exec(`DROP TABLE t`); err == nil {
		t.Error("dropping missing table without IF EXISTS succeeded")
	}
}

func TestTransactions(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustExec(t, db, `INSERT INTO t VALUES (2)`)
	mustExec(t, db, `ROLLBACK`)
	row, _ := db.QueryRow(`SELECT COUNT(*) FROM t`)
	if row[0].Int() != 0 {
		t.Errorf("count after rollback = %v", row[0])
	}
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (3)`)
	mustExec(t, db, `COMMIT`)
	row, _ = db.QueryRow(`SELECT COUNT(*) FROM t`)
	if row[0].Int() != 1 {
		t.Errorf("count after commit = %v", row[0])
	}
	// DDL rolls back too.
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `CREATE TABLE t2 (x INTEGER)`)
	mustExec(t, db, `ROLLBACK`)
	if _, err := db.Query(`SELECT * FROM t2`); err == nil {
		t.Error("rolled-back table still exists")
	}
}

func TestPersistenceAcrossReopenSQL(t *testing.T) {
	vfs := NewMemVFS()
	db, err := Open(vfs, "p.db", Options{CachePages: 32})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustExec(t, db, `CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)`)
	mustExec(t, db, `CREATE INDEX ib ON t(b)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'one'), (2, 'two')`)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := Open(vfs, "p.db", Options{CachePages: 32})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	row, err := db2.QueryRow(`SELECT b FROM t WHERE b = 'two'`)
	if err != nil || row == nil || row[0].Text() != "two" {
		t.Errorf("reopened query = %v, %v", row, err)
	}
	// Schema survived: duplicate table fails.
	if _, err := db2.Exec(`CREATE TABLE t (x INTEGER)`); err == nil {
		t.Error("schema lost across reopen")
	}
}

func TestInsertSelect(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE src (a INTEGER)`)
	mustExec(t, db, `CREATE TABLE dst (a INTEGER)`)
	mustExec(t, db, `INSERT INTO src VALUES (1),(2),(3)`)
	n := mustExec(t, db, `INSERT INTO dst SELECT a * 10 FROM src`)
	if n != 3 {
		t.Errorf("insert-select affected %d", n)
	}
	row, _ := db.QueryRow(`SELECT SUM(a) FROM dst`)
	if row[0].Int() != 60 {
		t.Errorf("sum = %v", row[0])
	}
}

func TestAnalyzeAndVacuum(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1),(2),(3)`)
	mustExec(t, db, `ANALYZE`)
	row, err := db.QueryRow(`SELECT n FROM _stats WHERE tbl = 't'`)
	if err != nil || row == nil || row[0].Int() != 3 {
		t.Errorf("stats = %v, %v", row, err)
	}
	mustExec(t, db, `VACUUM`)
}

func TestPragmas(t *testing.T) {
	db := openTestDB(t)
	rows := mustQuery(t, db, `PRAGMA page_size`)
	if rows.All()[0][0].Int() != PageSize {
		t.Errorf("page_size = %v", rows.All()[0][0])
	}
	mustExec(t, db, `PRAGMA synchronous = off`)
	rows = mustQuery(t, db, `PRAGMA synchronous`)
	if rows.All()[0][0].Int() != int64(SyncOff) {
		t.Errorf("synchronous = %v", rows.All()[0][0])
	}
	rows = mustQuery(t, db, `PRAGMA page_count`)
	if rows.All()[0][0].Int() < 1 {
		t.Errorf("page_count = %v", rows.All()[0][0])
	}
	mustQuery(t, db, `PRAGMA unknown_pragma`) // ignored

	// Two journal modes, named as SQLite names them; the per-transaction
	// delete mode is gone, not hidden.
	for _, step := range []struct{ set, want string }{
		{"", "truncate"}, {"memory", "memory"}, {"TRUNCATE", "truncate"},
	} {
		if step.set != "" {
			mustExec(t, db, `PRAGMA journal_mode = `+step.set)
		}
		if got := mustQuery(t, db, `PRAGMA journal_mode`).All()[0][0].Text(); got != step.want {
			t.Errorf("journal_mode after %q = %q, want %q", step.set, got, step.want)
		}
	}
	if _, err := db.Exec(`PRAGMA journal_mode = delete`); err == nil {
		t.Error("journal_mode = delete was accepted")
	}
}

// TestParseCache: a statement text is parsed once per handle and rerun
// from the cached AST with identical results, and no schema change, by
// DDL or by rollback, can leave a cached statement bound to columns that
// moved.
func TestParseCache(t *testing.T) {
	cached := func(db *DB, sql string) []Stmt {
		for _, e := range db.parsed {
			if e.sql == sql {
				return e.stmts
			}
		}
		return nil
	}
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INTEGER, b TEXT)`)
	const ins, sel, agg = `INSERT INTO t (a, b) VALUES (?, ?)`, `SELECT b FROM t WHERE a = ?`, `SELECT COUNT(*), SUM(a) FROM t`
	for i := 1; i <= 5; i++ {
		mustExec(t, db, ins, IntVal(int64(i)), TextVal(fmt.Sprint("v", i)))
	}
	first := cached(db, ins)
	if first == nil {
		t.Fatal("a repeated statement is not cached")
	}
	for i := 1; i <= 5; i++ {
		if got := rowsAsText(mustQuery(t, db, sel, IntVal(int64(i)))); len(got) != 1 || got[0] != fmt.Sprint("v", i) {
			t.Fatalf("cached SELECT, run %d: %v", i, got)
		}
		if got := rowsAsText(mustQuery(t, db, agg)); got[0] != "5|15" {
			t.Fatalf("cached aggregate, run %d: %v", i, got)
		}
	}
	it, err := db.QueryIter(sel, IntVal(3))
	if err != nil || !it.Next() || it.Row()[0].Text() != "v3" {
		t.Fatalf("QueryIter through the cache: %v", err)
	}
	it.Close()
	if s := cached(db, ins); len(s) != 1 || s[0] != first[0] {
		t.Error("the INSERT was parsed again")
	}

	// DDL: the same text must now bind b to its new position.
	mustExec(t, db, `DROP TABLE t`)
	if cached(db, sel) != nil {
		t.Error("DDL left parsed statements behind")
	}
	mustExec(t, db, `CREATE TABLE t (b TEXT, pad TEXT, a INTEGER)`)
	mustExec(t, db, ins, IntVal(1), TextVal("moved"))
	if got := rowsAsText(mustQuery(t, db, sel, IntVal(1))); len(got) != 1 || got[0] != "moved" {
		t.Fatalf("SELECT after the table was rebuilt: %v", got)
	}

	// A rolled-back ALTER: statements parsed inside the transaction saw a
	// column that no longer exists.
	const selC = `SELECT c FROM t WHERE a = 1`
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `ALTER TABLE t ADD COLUMN c TEXT`)
	mustQuery(t, db, selC)
	mustExec(t, db, `ROLLBACK`)
	if cached(db, selC) != nil {
		t.Error("ROLLBACK left parsed statements behind")
	}
	if _, err := db.Query(selC); err == nil {
		t.Error("a column rolled back with its ALTER is still selectable")
	}

	// The bound is fixed: texts beyond it displace the oldest, and a text
	// too long to keep is parsed every time.
	for i := 0; i < 3*parseCacheSize; i++ {
		mustQuery(t, db, fmt.Sprintf(`SELECT %d`, i))
	}
	if cached(db, sel) != nil {
		t.Error("the cache outgrew its bound")
	}
	long := `SELECT '` + strings.Repeat("x", parseCacheMaxLen) + `'`
	mustQuery(t, db, long)
	if cached(db, long) != nil {
		t.Error("an over-long statement text was kept")
	}
}

func TestHostVFSDatabase(t *testing.T) {
	fs := hostfs.NewMemFS()
	db, err := Open(NewHostVFS(fs), "host.db", Options{CachePages: 32})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (42)`)
	row, _ := db.QueryRow(`SELECT a FROM t`)
	if row[0].Int() != 42 {
		t.Errorf("a = %v", row[0])
	}
	if ok, _ := fs.Stat("host.db"); ok.Size == 0 {
		t.Error("database file empty on host")
	}
}

func TestSQLSyntaxErrors(t *testing.T) {
	db := openTestDB(t)
	for _, sql := range []string{
		`SELEC 1`,
		`SELECT FROM`,
		`CREATE TABLE`,
		`INSERT INTO`,
		`SELECT * FROM missing_table`,
		`SELECT unknown_col FROM sqlite_nothing`,
		`SELECT 'unterminated`,
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
	var e error
	_, e = db.Exec(`SELECT no_such_fn(1)`)
	if e == nil {
		t.Error("unknown function accepted")
	}
}

func TestErrTxnStates(t *testing.T) {
	db := openTestDB(t)
	if _, err := db.Exec(`COMMIT`); !errors.Is(err, ErrTxn) {
		t.Errorf("commit without begin = %v", err)
	}
	if _, err := db.Exec(`ROLLBACK`); !errors.Is(err, ErrTxn) {
		t.Errorf("rollback without begin = %v", err)
	}
	mustExec(t, db, `BEGIN`)
	if _, err := db.Exec(`BEGIN`); !errors.Is(err, ErrTxn) {
		t.Errorf("nested begin = %v", err)
	}
	mustExec(t, db, `COMMIT`)
}

func TestLastInsertRowid(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a TEXT)`)
	mustExec(t, db, `INSERT INTO t VALUES ('x')`)
	if db.LastInsertRowid() != 1 {
		t.Errorf("last rowid = %d", db.LastInsertRowid())
	}
	mustExec(t, db, `INSERT INTO t VALUES ('y')`)
	if db.LastInsertRowid() != 2 {
		t.Errorf("last rowid = %d", db.LastInsertRowid())
	}
}

func TestBlobRoundTripSQL(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE b (data BLOB)`)
	blob := make([]byte, 2000)
	for i := range blob {
		blob[i] = byte(i)
	}
	mustExec(t, db, `INSERT INTO b VALUES (?)`, BlobVal(blob))
	row, _ := db.QueryRow(`SELECT data, length(data) FROM b`)
	if row[1].Int() != 2000 {
		t.Fatalf("blob length = %v", row[1])
	}
	got := row[0].Blob()
	for i := range blob {
		if got[i] != blob[i] {
			t.Fatal("blob corrupted")
		}
	}
}

func TestCrossTypeComparisonInSQL(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (v)`) // no affinity
	mustExec(t, db, `INSERT INTO t VALUES (1), (2.5), ('text'), (x'00'), (NULL)`)
	// SQLite ordering: NULL < numeric < text < blob.
	rows := mustQuery(t, db, `SELECT typeof(v) FROM t ORDER BY v`)
	got := rowsAsText(rows)
	want := []string{"null", "integer", "real", "text", "blob"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestGroupConcatAndTotal(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (g TEXT, v INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES ('a',1),('a',2),('b',3)`)
	rows := mustQuery(t, db, `SELECT g, group_concat(v), total(v) FROM t GROUP BY g ORDER BY g`)
	got := rowsAsText(rows)
	if got[0] != "a|1,2|3" || got[1] != "b|3|3" {
		t.Errorf("rows = %v", got)
	}
}
