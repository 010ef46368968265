package litedb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// scanTable fills kv (k INTEGER PRIMARY KEY, v TEXT) with rowids 0..n-1.
func scanTable(t testing.TB, db *DB, n int) {
	t.Helper()
	mustExecTB(t, db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	mustExecTB(t, db, `BEGIN`)
	for k := 0; k < n; k++ {
		mustExecTB(t, db, `INSERT INTO kv (k, v) VALUES (?, ?)`, IntVal(int64(k)), TextVal(fmt.Sprintf("v%07d-%016x", k, k*7919)))
	}
	mustExecTB(t, db, `COMMIT`)
}

func mustExecTB(t testing.TB, db *DB, sql string, args ...Value) {
	t.Helper()
	if _, err := db.Exec(sql, args...); err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
}

// TestScanAllocsIndependentOfRows pins the rule that a scanned row costs
// the columns the statement reads: a rowid-range COUNT/SUM reads no stored
// column, so its allocations do not grow with the rows it visits.
func TestScanAllocsIndependentOfRows(t *testing.T) {
	db, err := Open(NewMemVFS(), "t.db", Options{CachePages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	scanTable(t, db, 2048)
	const q = `SELECT COUNT(*), SUM(k) FROM kv WHERE k >= ? AND k < ?`
	allocs := func(n int64) float64 {
		return testing.AllocsPerRun(20, func() {
			row, err := db.QueryRow(q, IntVal(100), IntVal(100+n))
			if err != nil || row[0].Int() != n {
				t.Fatalf("COUNT over %d rows = %v, %v", n, row, err)
			}
		})
	}
	small, large := allocs(128), allocs(1024)
	if large-small > 2 {
		t.Errorf("allocations: %.0f over 128 rows, %.0f over 1024 rows; want a difference of at most 2", small, large)
	}
}

// TestAggregateOverNoRowsBareRowidIsNull: an aggregate over zero rows has
// one group and no row in it, so a bare column reads NULL — the rowid and
// its INTEGER PRIMARY KEY alias too, not the last rowid the scan tried.
func TestAggregateOverNoRowsBareRowidIsNull(t *testing.T) {
	db, err := Open(NewMemVFS(), "t.db", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExecTB(t, db, `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	for k := -5; k < 20; k++ {
		mustExecTB(t, db, `INSERT INTO kv (k, v) VALUES (?, ?)`, IntVal(int64(k)), TextVal(fmt.Sprint("v", k)))
	}
	for _, q := range []string{
		`SELECT k, COUNT(*) FROM kv WHERE v = 'nope'`,
		`SELECT rowid, COUNT(*) FROM kv WHERE v = 'nope'`,
		`SELECT k, COUNT(*) FROM kv WHERE k > 100`,
	} {
		row, err := db.QueryRow(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !row[0].IsNull() || row[1].Int() != 0 {
			t.Errorf("%s = %v, want [NULL 0]", q, row)
		}
	}
	// With rows, the bare rowid is the group's first row's.
	row, err := db.QueryRow(`SELECT k, COUNT(*) FROM kv WHERE v = 'v7'`)
	if err != nil || row[0].Int() != 7 || row[1].Int() != 1 {
		t.Errorf("bare k over one row = %v, %v; want [7 1]", row, err)
	}
}

// TestScanPageAccesses pins the page cost of a table scan: one store
// access per row read out of a leaf, plus one per leaf and interior page
// visited. A sandboxed store charges its bounds check and EPC touch per
// access, so this is the modelled Wasm tax of the scan.
func TestScanPageAccesses(t *testing.T) {
	var accesses int
	store := NewTouchStore(NewNativeStore(256), func(int) { accesses++ })
	db, err := Open(NewMemVFS(), "t.db", Options{CachePages: 256, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const rows = 3000
	scanTable(t, db, rows)
	ts, err := db.table("kv")
	if err != nil {
		t.Fatal(err)
	}
	leaves, depth := treeShape(t, db.pager, ts.Root)
	if leaves < 10 || depth < 2 {
		t.Fatalf("tree has %d leaves, depth %d: too small to tell", leaves, depth)
	}
	if _, err := db.Query(`SELECT COUNT(*), SUM(length(v)) FROM kv`); err != nil {
		t.Fatal(err) // warms the parse cache and the page cache
	}
	accesses = 0
	row, err := db.QueryRow(`SELECT COUNT(*), SUM(length(v)) FROM kv`)
	if err != nil || row[0].Int() != rows {
		t.Fatalf("COUNT = %v, %v", row, err)
	}
	if bound := rows + leaves + depth; accesses > bound {
		t.Errorf("full scan of %d rows in %d leaves, depth %d: %d store accesses, want at most %d",
			rows, leaves, depth, accesses, bound)
	}
}

// treeShape returns the number of leaves of a tree and its depth (levels,
// the leaf level included).
func treeShape(t *testing.T, p *Pager, root uint32) (leaves, depth int) {
	t.Helper()
	no := root
	for {
		pg, err := p.Get(no)
		if err != nil {
			t.Fatal(err)
		}
		depth++
		if isLeaf(pg.data) {
			p.Unpin(pg)
			break
		}
		next := rightPtr(pg.data)
		if cellCount(pg.data) > 0 {
			next, _, _ = parseTableInteriorCell(cellBytes(pg.data, 0))
		}
		p.Unpin(pg)
		no = next
	}
	for no != 0 {
		pg, err := p.Get(no)
		if err != nil {
			t.Fatal(err)
		}
		leaves++
		next := rightPtr(pg.data)
		p.Unpin(pg)
		no = next
	}
	return leaves, depth
}

// --- FuzzScanModel ---

// The model table is t (k INTEGER PRIMARY KEY, a TEXT, b BLOB, c REAL, d)
// with e INTEGER DEFAULT 7 and f TEXT DEFAULT 'z' added by ALTER TABLE
// after the first rows, which are stored short. A model row holds all
// seven values, k first.
var modelCols = []string{"k", "a", "b", "c", "d", "e", "f"}

// scanCase is one generated SELECT and what the model says it returns.
type scanCase struct {
	sql  string
	args []Value
	want [][]Value
}

// FuzzScanModel checks SELECTs over a table of mixed types and short rows
// against a brute-force evaluation over the model rows: rowid bounds of
// every operator and bound type, column subsets, *, aggregates with a
// bare column, GROUP BY, DISTINCT and ORDER BY. Each case runs through
// Query, through QueryIter, and through a QueryIter closed early; the
// results are checked again after every blob and text in the table has
// been overwritten, so no returned value may alias page memory.
func FuzzScanModel(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1234} {
		f.Add(seed, uint8(60))
	}
	f.Fuzz(func(t *testing.T, seed int64, nrows uint8) {
		rng := rand.New(rand.NewSource(seed))
		db, err := Open(NewMemVFS(), "t.db", Options{CachePages: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		model := buildScanModel(t, db, rng, int(nrows)%120)

		var kept []scanCase
		var keptRows [][][]Value
		for i := 0; i < 24; i++ {
			c := genScanCase(rng, model)
			rows, err := db.Query(c.sql, c.args...)
			if err != nil {
				t.Fatalf("%s %v: %v", c.sql, c.args, err)
			}
			checkRows(t, c, "Query", rows.All())
			kept, keptRows = append(kept, c), append(keptRows, rows.All())

			it, err := db.QueryIter(c.sql, c.args...)
			if err != nil {
				t.Fatalf("QueryIter %s: %v", c.sql, err)
			}
			var got [][]Value
			for it.Next() {
				got = append(got, it.Row())
			}
			if err := it.Close(); err != nil {
				t.Fatalf("QueryIter %s: %v", c.sql, err)
			}
			checkRows(t, c, "QueryIter", got)
			kept, keptRows = append(kept, c), append(keptRows, got)

			stop := rng.Intn(len(c.want) + 1)
			it, err = db.QueryIter(c.sql, c.args...)
			if err != nil {
				t.Fatalf("QueryIter %s: %v", c.sql, err)
			}
			got = got[:0]
			for len(got) < stop && it.Next() {
				got = append(got, it.Row())
			}
			if err := it.Close(); err != nil {
				t.Fatalf("QueryIter %s closed after %d rows: %v", c.sql, stop, err)
			}
			checkRows(t, scanCase{sql: c.sql, args: c.args, want: c.want[:stop]}, "QueryIter closed early", got)
			if db.pager.pinned != 0 {
				t.Fatalf("%s: %d pages still pinned", c.sql, db.pager.pinned)
			}
		}
		mustExecTB(t, db, `UPDATE t SET a = ?, b = ?, f = ?`,
			TextVal(strings.Repeat("#", 40)), BlobVal(bytes.Repeat([]byte{0xEE}, 40)), TextVal("#"))
		for i, c := range kept {
			checkRows(t, c, "after overwrite", keptRows[i])
		}
	})
}

// buildScanModel creates t with n rows and returns the model rows in
// rowid order.
func buildScanModel(t *testing.T, db *DB, rng *rand.Rand, n int) [][]Value {
	t.Helper()
	mustExecTB(t, db, `CREATE TABLE t (k INTEGER PRIMARY KEY, a TEXT, b BLOB, c REAL, d)`)
	keys := rng.Perm(120)[:n]
	short := n / 2
	var model [][]Value
	for i, key := range keys {
		k := IntVal(int64(key - 30))
		row := []Value{k, genText(rng), genBlob(rng), genReal(rng), genMixed(rng), IntVal(7), TextVal("z")}
		if i == short {
			mustExecTB(t, db, `ALTER TABLE t ADD COLUMN e INTEGER DEFAULT 7`)
			mustExecTB(t, db, `ALTER TABLE t ADD COLUMN f TEXT DEFAULT 'z'`)
		}
		if i < short {
			mustExecTB(t, db, `INSERT INTO t (k, a, b, c, d) VALUES (?, ?, ?, ?, ?)`, row[:5]...)
		} else {
			if rng.Intn(3) == 0 {
				row[5] = NullVal()
			} else {
				row[5] = IntVal(int64(rng.Intn(9) - 4))
			}
			row[6] = genText(rng)
			mustExecTB(t, db, `INSERT INTO t VALUES (?, ?, ?, ?, ?, ?, ?)`, row...)
		}
		model = append(model, row)
	}
	if short == n {
		mustExecTB(t, db, `ALTER TABLE t ADD COLUMN e INTEGER DEFAULT 7`)
		mustExecTB(t, db, `ALTER TABLE t ADD COLUMN f TEXT DEFAULT 'z'`)
	}
	sort.Slice(model, func(i, j int) bool { return model[i][0].Int() < model[j][0].Int() })
	return model
}

func genText(rng *rand.Rand) Value {
	switch rng.Intn(8) {
	case 0:
		return NullVal()
	case 1:
		return TextVal(strings.Repeat("t", 1500+rng.Intn(500))) // overflows
	}
	b := make([]byte, rng.Intn(6))
	for i := range b {
		b[i] = byte('a' + rng.Intn(4))
	}
	return TextVal(string(b))
}

func genBlob(rng *rand.Rand) Value {
	switch rng.Intn(8) {
	case 0:
		return NullVal()
	case 1:
		return BlobVal(bytes.Repeat([]byte{byte(rng.Intn(256))}, 1500+rng.Intn(500)))
	}
	b := make([]byte, rng.Intn(8))
	rng.Read(b)
	return BlobVal(b)
}

func genReal(rng *rand.Rand) Value {
	if rng.Intn(5) == 0 {
		return NullVal()
	}
	return RealVal(float64(rng.Intn(41)-20) / 2)
}

func genMixed(rng *rand.Rand) Value {
	switch rng.Intn(5) {
	case 0:
		return NullVal()
	case 1:
		return IntVal(int64(rng.Intn(7) - 3))
	case 2:
		return RealVal(float64(rng.Intn(7)-3) / 2)
	case 3:
		return TextVal(string(rune('a' + rng.Intn(3))))
	default:
		return BlobVal([]byte{byte(rng.Intn(3))})
	}
}

// genBound returns a rowid bound: INTEGER (including both extremes),
// REAL, TEXT or NULL, as a literal or a parameter.
func genBound(rng *rand.Rand, args *[]Value) (string, Value) {
	var v Value
	switch rng.Intn(10) {
	case 0:
		v = RealVal(float64(rng.Intn(121)-35) + 0.5)
	case 1:
		v = RealVal(float64(rng.Intn(121) - 35))
	case 2:
		v = TextVal([]string{"10", "abc", ""}[rng.Intn(3)])
	case 3:
		v = NullVal()
	case 4:
		v = IntVal([]int64{math.MaxInt64, math.MinInt64}[rng.Intn(2)])
	default:
		v = IntVal(int64(rng.Intn(131) - 40))
	}
	if v.Type() == Integer && (v.i == math.MinInt64 || v.i == math.MaxInt64) || rng.Intn(2) == 0 {
		*args = append(*args, v)
		return "?", v
	}
	switch v.Type() {
	case Null:
		return "NULL", v
	case Text:
		return "'" + v.s + "'", v
	case Real:
		return fmt.Sprintf("%.1f", v.f), v
	default:
		return fmt.Sprint(v.i), v
	}
}

// cmpOp applies a comparison operator the way the engine does: false
// when either side is NULL, else by Compare.
func cmpOp(x Value, op string, v Value) bool {
	if x.IsNull() || v.IsNull() {
		return false
	}
	c := Compare(x, v)
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	default:
		return c == 0
	}
}

// genScanCase builds one SELECT over t and evaluates it on the model.
func genScanCase(rng *rand.Rand, model [][]Value) scanCase {
	var c scanCase
	type cond struct {
		sql  string
		args []Value
		pass func([]Value) bool
	}
	var conds []cond
	ops := []string{"<", "<=", ">", ">="}
	for n := rng.Intn(4); n > 0; n-- {
		var cd cond
		key := []string{"k", "rowid"}[rng.Intn(2)]
		switch rng.Intn(3) {
		case 0: // key op bound
			op := ops[rng.Intn(4)]
			s, v := genBound(rng, &cd.args)
			cd.sql = key + " " + op + " " + s
			cd.pass = func(r []Value) bool { return cmpOp(r[0], op, v) }
		case 1: // bound op key
			op := ops[rng.Intn(4)]
			s, v := genBound(rng, &cd.args)
			cd.sql = s + " " + op + " " + key
			cd.pass = func(r []Value) bool { return cmpOp(v, op, r[0]) }
		default:
			s1, lo := genBound(rng, &cd.args)
			s2, hi := genBound(rng, &cd.args)
			cd.sql = key + " BETWEEN " + s1 + " AND " + s2
			cd.pass = func(r []Value) bool { return cmpOp(r[0], ">=", lo) && cmpOp(r[0], "<=", hi) }
		}
		conds = append(conds, cd)
	}
	switch rng.Intn(4) {
	case 0:
		conds = append(conds, cond{sql: "c > 0", pass: func(r []Value) bool { return cmpOp(r[3], ">", IntVal(0)) }})
	case 1:
		conds = append(conds, cond{sql: "a IS NOT NULL", pass: func(r []Value) bool { return !r[1].IsNull() }})
	}
	rng.Shuffle(len(conds), func(i, j int) { conds[i], conds[j] = conds[j], conds[i] })
	where := ""
	for i, cd := range conds {
		if i == 0 {
			where = " WHERE "
		} else {
			where += " AND "
		}
		where += cd.sql
		c.args = append(c.args, cd.args...)
	}
	filters := make([]func([]Value) bool, len(conds))
	for i, cd := range conds {
		filters[i] = cd.pass
	}
	var rows [][]Value
	for _, r := range model {
		ok := true
		for _, f := range filters {
			ok = ok && f(r)
		}
		if ok {
			rows = append(rows, r)
		}
	}

	switch rng.Intn(4) {
	case 0, 1: // plain projection
		var sel []string
		var cols []int
		if rng.Intn(3) == 0 {
			sel, cols = []string{"*"}, []int{0, 1, 2, 3, 4, 5, 6}
		} else {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				ci := rng.Intn(len(modelCols))
				cols = append(cols, ci)
				sel = append(sel, modelCols[ci])
			}
		}
		distinct := rng.Intn(4) == 0
		order, desc := -1, rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			order = rng.Intn(len(modelCols))
		}
		type out struct{ proj, key []Value }
		var outs []out
		for _, r := range rows {
			o := out{}
			for _, ci := range cols {
				o.proj = append(o.proj, r[ci])
			}
			if order >= 0 {
				o.key = []Value{r[order]}
			}
			outs = append(outs, o)
		}
		if distinct {
			seen := map[string]bool{}
			var d []out
			for _, o := range outs {
				if k := string(EncodeRecord(nil, o.proj)); !seen[k] {
					seen[k] = true
					d = append(d, o)
				}
			}
			outs = d
		}
		sql := "SELECT "
		if distinct {
			sql += "DISTINCT "
		}
		sql += strings.Join(sel, ", ") + " FROM t" + where
		if order >= 0 {
			sql += " ORDER BY " + modelCols[order]
			if desc {
				sql += " DESC"
			}
			sort.SliceStable(outs, func(i, j int) bool {
				return CompareRows(outs[i].key, outs[j].key, []bool{desc}) < 0
			})
		}
		if !distinct && order < 0 && rng.Intn(3) == 0 {
			limit, offset := rng.Intn(10), rng.Intn(5)
			sql += fmt.Sprintf(" LIMIT %d OFFSET %d", limit, offset)
			outs = outs[min(offset, len(outs)):]
			outs = outs[:min(limit, len(outs))]
		}
		c.sql = sql
		for _, o := range outs {
			c.want = append(c.want, o.proj)
		}
	case 2: // aggregates over the whole filtered table, with a bare column
		items, evals := genAggs(rng)
		c.sql = "SELECT " + strings.Join(items, ", ") + " FROM t" + where
		c.want = [][]Value{evalAggs(evals, rows)}
	default: // GROUP BY d
		items, evals := genAggs(rng)
		items = append([]string{"d"}, items...)
		evals = append([]aggEval{bareCol(4)}, evals...)
		c.sql = "SELECT " + strings.Join(items, ", ") + " FROM t" + where + " GROUP BY d"
		var order []string
		groups := map[string][][]Value{}
		for _, r := range rows {
			k := string(EncodeRecord(nil, []Value{r[4]}))
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			groups[k] = append(groups[k], r)
		}
		for _, k := range order {
			c.want = append(c.want, evalAggs(evals, groups[k]))
		}
		if rng.Intn(2) == 0 {
			c.sql += " ORDER BY d DESC"
			sort.SliceStable(c.want, func(i, j int) bool { return Compare(c.want[i][0], c.want[j][0]) > 0 })
		}
	}
	return c
}

// aggEval computes one result column of an aggregate query from the
// rows of a group (rowid order).
type aggEval func(rows [][]Value) Value

func bareCol(ci int) aggEval {
	return func(rows [][]Value) Value {
		if len(rows) == 0 {
			return NullVal()
		}
		return rows[0][ci]
	}
}

func genAggs(rng *rand.Rand) ([]string, []aggEval) {
	var items []string
	var evals []aggEval
	for n := 1 + rng.Intn(3); n > 0; n-- {
		ci := rng.Intn(len(modelCols))
		kind := rng.Intn(6)
		if len(items) == 0 {
			kind = rng.Intn(5) // a bare column alone is no aggregate query
		}
		switch kind {
		case 0:
			items = append(items, "COUNT(*)")
			evals = append(evals, func(rows [][]Value) Value { return IntVal(int64(len(rows))) })
		case 1:
			items = append(items, "COUNT("+modelCols[ci]+")")
			evals = append(evals, func(rows [][]Value) Value {
				n := 0
				for _, r := range rows {
					if !r[ci].IsNull() {
						n++
					}
				}
				return IntVal(int64(n))
			})
		case 2:
			si := []int{0, 3, 5}[rng.Intn(3)] // k, c, e: numeric or NULL
			items = append(items, "SUM("+modelCols[si]+")")
			evals = append(evals, func(rows [][]Value) Value {
				var sumI int64
				var sumF float64
				saw, real := false, false
				for _, r := range rows {
					v := r[si]
					if v.IsNull() {
						continue
					}
					saw, real = true, real || v.Type() == Real
					sumI += v.Int()
					sumF += v.Real()
				}
				switch {
				case !saw:
					return NullVal()
				case real:
					return RealVal(sumF)
				default:
					return IntVal(sumI)
				}
			})
		case 3, 4:
			name, sign := "MIN", -1
			if rng.Intn(2) == 0 {
				name, sign = "MAX", 1
			}
			items = append(items, name+"("+modelCols[ci]+")")
			evals = append(evals, func(rows [][]Value) Value {
				best := NullVal()
				for _, r := range rows {
					if v := r[ci]; !v.IsNull() && (best.IsNull() || Compare(v, best)*sign > 0) {
						best = v
					}
				}
				return best
			})
		default:
			items = append(items, modelCols[ci])
			evals = append(evals, bareCol(ci))
		}
	}
	return items, evals
}

func evalAggs(evals []aggEval, rows [][]Value) []Value {
	out := make([]Value, len(evals))
	for i, e := range evals {
		out[i] = e(rows)
	}
	return out
}

// sameValue reports whether two values have the same type and content.
func sameValue(a, b Value) bool {
	if a.typ != b.typ {
		return false
	}
	switch a.typ {
	case Integer:
		return a.i == b.i
	case Real:
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	case Text:
		return a.s == b.s
	case Blob:
		return bytes.Equal(a.b, b.b)
	default:
		return true
	}
}

func checkRows(t *testing.T, c scanCase, via string, got [][]Value) {
	t.Helper()
	if len(got) != len(c.want) {
		t.Fatalf("%s: %s %v: %d rows, want %d\ngot  %v\nwant %v", via, c.sql, c.args, len(got), len(c.want), got, c.want)
	}
	for i := range got {
		if len(got[i]) != len(c.want[i]) {
			t.Fatalf("%s: %s %v: row %d has %d columns, want %d", via, c.sql, c.args, i, len(got[i]), len(c.want[i]))
		}
		for j := range got[i] {
			if !sameValue(got[i][j], c.want[i][j]) {
				t.Fatalf("%s: %s %v: row %d col %d = %v, want %v\ngot  %v\nwant %v",
					via, c.sql, c.args, i, j, got[i][j], c.want[i][j], got, c.want)
			}
		}
	}
}
