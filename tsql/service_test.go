package tsql

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"twine/internal/hostfs"
	"twine/internal/litedb"
	"twine/internal/sgx"
)

// svcCfg is the small shard geometry the service tests run on (the PR 3
// replica geometry, renamed path so shard suffixes read naturally).
func svcCfg(host hostfs.FS, seed string) Config {
	cfg := replicaCfg(host, seed)
	cfg.Path = "svc.db"
	return cfg
}

// fidOp is one step of the fidelity script: an Exec or a Query, run
// identically against the sequential DB and the degraded service.
type fidOp struct {
	query bool
	sql   string
	args  []Value
}

// parkInvariant is the view of sgx.Stats that does not depend on when the
// switchless ring's worker happened to be parked. The worker parks after
// 50 ms without work, and a request that finds it parked leaves as a
// classic OCALL (FallbackOCalls, counted in OCalls) and wakes it
// (WorkerWakeups); one that finds it spinning rides the ring
// (SwitchlessCalls). Which of the two a request takes is decided by the
// host scheduler, not by the program: a 50 ms stall on one side of a
// comparison moves one request from one column to the other. What the
// program decides is that the request crossed the boundary, so the two
// columns are compared as one count and the park bookkeeping is left out.
// Every other field is compared as it stands.
func parkInvariant(s sgx.Stats) sgx.Stats {
	s.OCalls += s.SwitchlessCalls
	s.SwitchlessCalls, s.FallbackOCalls, s.WorkerWakeups = 0, 0, 0
	return s
}

// TestServiceFidelitySequential is the ISSUE's fidelity bar: a service
// with Shards=1, Replicas=1 and NoGroupCommit=true must be identical to a
// sequential DB — same results, same error strings, and the same enclave
// counters (ECalls, boundary requests, faults, evictions, TCS use) for
// the same statement script. See parkInvariant for the one split that is
// timing and not behaviour.
func TestServiceFidelitySequential(t *testing.T) {
	const seed = "fidelity-platform"
	seq, err := Open(svcCfg(hostfs.NewMemFS(), seed))
	if err != nil {
		t.Fatalf("Open (sequential): %v", err)
	}
	svc, err := OpenService(ShardConfig{
		Base:          svcCfg(hostfs.NewMemFS(), seed),
		Shards:        1,
		Replicas:      1,
		NoGroupCommit: true,
	})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}

	script := []fidOp{
		{sql: `CREATE TABLE fid (id INTEGER PRIMARY KEY, v TEXT, n INTEGER)`},
		{sql: `INSERT INTO fid (id, v, n) VALUES (?, ?, ?)`, args: []Value{Int(1), Text("one"), Int(10)}},
		{sql: `INSERT INTO fid (id, v, n) VALUES (2, 'two', 20); INSERT INTO fid (id, v, n) VALUES (3, 'three', 30)`},
		// A failing statement: both sides must report the same trap.
		{sql: `INSERT INTO fid (id, v, n) VALUES (1, 'dup', 0)`},
		{query: true, sql: `SELECT id, v, n FROM fid ORDER BY id`},
		{query: true, sql: `SELECT COUNT(*), SUM(n), AVG(n), MIN(v), MAX(v) FROM fid`},
		{query: true, sql: `SELECT v FROM fid WHERE id = ?`, args: []Value{Int(2)}},
		{query: true, sql: `SELECT 1/0, n FROM fid WHERE id = 3`},
		{query: true, sql: `SELECT nosuch FROM fid`},
		{query: true, sql: `PRAGMA page_count`},
		{sql: `UPDATE fid SET n = n + 5 WHERE id = 3`},
		{sql: `DELETE FROM fid WHERE id = 2`},
		{query: true, sql: `SELECT id, n FROM fid ORDER BY id`},
	}

	for i, op := range script {
		if op.query {
			ra, ea := seq.Query(op.sql, op.args...)
			rb, eb := svc.Query(op.sql, op.args...)
			if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
				t.Fatalf("op %d %q: sequential err %v, service err %v", i, op.sql, ea, eb)
			}
			if ea == nil {
				if !reflect.DeepEqual(ra.Cols, rb.Cols) || !reflect.DeepEqual(ra.All(), rb.All()) {
					t.Fatalf("op %d %q: sequential %v %v, service %v %v",
						i, op.sql, ra.Cols, ra.All(), rb.Cols, rb.All())
				}
			}
		} else {
			na, ea := seq.Exec(op.sql, op.args...)
			nb, eb := svc.Exec(op.sql, op.args...)
			if (ea == nil) != (eb == nil) || (ea != nil && ea.Error() != eb.Error()) {
				t.Fatalf("op %d %q: sequential err %v, service err %v", i, op.sql, ea, eb)
			}
			if na != nb {
				t.Fatalf("op %d %q: sequential affected %d, service %d", i, op.sql, na, nb)
			}
		}
	}

	// Identical enclave accounting, live and after close.
	rtA, rtB := seq.Runtime(), svc.Shard(0).Runtime()
	if a, b := parkInvariant(rtA.Enclave.Stats()), parkInvariant(rtB.Enclave.Stats()); a != b {
		t.Fatalf("live enclave stats diverge:\n sequential %+v\n service    %+v", a, b)
	}
	if err := seq.Close(); err != nil {
		t.Fatalf("Close (sequential): %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close (service): %v", err)
	}
	if a, b := parkInvariant(rtA.Enclave.Stats()), parkInvariant(rtB.Enclave.Stats()); a != b {
		t.Fatalf("post-close enclave stats diverge:\n sequential %+v\n service    %+v", a, b)
	}
}

// --- cross-shard equality ---

// sortedRecords renders a row set order-insensitively comparable.
func sortedRecords(rows [][]Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%x", litedb.EncodeRecord(nil, r))
	}
	sort.Strings(out)
	return out
}

// valuesApproxEqual compares rows exactly except for REAL columns, which
// may differ in last-bit rounding: cross-shard SUM/AVG re-associate
// floating-point additions.
func valuesApproxEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type() == litedb.Real && b[i].Type() == litedb.Real {
			x, y := a[i].Real(), b[i].Real()
			if x == y {
				continue
			}
			if math.Abs(x-y) > 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
				return false
			}
			continue
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// queryBoth runs one SELECT on the reference DB and the service, failing
// on any error.
func queryBoth(t *testing.T, ref *DB, svc *Service, q string, args ...Value) (*Rows, *Rows) {
	t.Helper()
	want, err := ref.Query(q, args...)
	if err != nil {
		t.Fatalf("reference %q: %v", q, err)
	}
	got, err := svc.Query(q, args...)
	if err != nil {
		t.Fatalf("service %q: %v", q, err)
	}
	if !reflect.DeepEqual(want.Cols, got.Cols) {
		t.Fatalf("%q: cols %v != %v", q, got.Cols, want.Cols)
	}
	return want, got
}

// execBoth runs one statement on both sides and checks the affected-row
// counts agree (the service sums disjoint shard counts).
func execBoth(t *testing.T, ref *DB, svc *Service, sql string, args ...Value) {
	t.Helper()
	wantN, err := ref.Exec(sql, args...)
	if err != nil {
		t.Fatalf("reference exec %q: %v", sql, err)
	}
	gotN, err := svc.Exec(sql, args...)
	if err != nil {
		t.Fatalf("service exec %q: %v", sql, err)
	}
	if wantN != gotN {
		t.Fatalf("exec %q: reference affected %d, service %d", sql, wantN, gotN)
	}
}

// TestServiceCrossShardEquality runs the same workload on a 4-shard
// service and an unsharded reference DB and demands order-insensitive
// result equality across every routing shape: point reads, fan-out
// scans, merged aggregates, split inserts and broadcast writes.
func TestServiceCrossShardEquality(t *testing.T) {
	const seed = "xshard-platform"
	ref, err := Open(svcCfg(hostfs.NewMemFS(), seed))
	if err != nil {
		t.Fatalf("Open (reference): %v", err)
	}
	defer ref.Close()
	svc, err := OpenService(ShardConfig{
		Base:        svcCfg(hostfs.NewMemFS(), seed),
		Shards:      4,
		Replicas:    1,
		RouteTable:  "orders",
		RouteColumn: "cust",
	})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	defer svc.Close()

	ddl := []string{
		`CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INTEGER, amt REAL, tag TEXT)`,
		`CREATE TABLE refdata (k INTEGER PRIMARY KEY, v TEXT)`,
	}
	for _, q := range ddl {
		execBoth(t, ref, svc, q)
	}

	// Routed multi-row INSERTs: the service splits each batch row-by-row
	// on the routing value.
	tags := []string{"ok", "hold", "ship", "void"}
	for base := 0; base < 120; base += 30 {
		var rows []string
		for i := base; i < base+30; i++ {
			rows = append(rows, fmt.Sprintf("(%d, %d, %d.25, '%s')", i+1, i%17, (i*37)%101, tags[i%len(tags)]))
		}
		execBoth(t, ref, svc, `INSERT INTO orders (id, cust, amt, tag) VALUES `+strings.Join(rows, ", "))
	}
	// A parameterised single-row routed insert.
	execBoth(t, ref, svc, `INSERT INTO orders (id, cust, amt, tag) VALUES (?, ?, ?, ?)`,
		Int(1000), Int(99), Real(3.5), Text("ok"))
	// Replicated (non-routed) table: broadcast writes.
	for k := 0; k < 10; k++ {
		execBoth(t, ref, svc, `INSERT INTO refdata (k, v) VALUES (?, ?)`, Int(int64(k)), Text(fmt.Sprintf("v%d", k)))
	}

	// The partitioner must actually spread the rows.
	st := svc.Stats()
	var total int64
	for i := 0; i < st.Shards; i++ {
		row, err := svc.Shard(i).QueryRow(`SELECT COUNT(*) FROM orders`)
		if err != nil {
			t.Fatalf("shard %d count: %v", i, err)
		}
		if row[0].Int() == 0 {
			t.Fatalf("shard %d holds no rows — partitioning is degenerate", i)
		}
		if row[0].Int() == 121 {
			t.Fatalf("shard %d holds every row — partitioning is degenerate", i)
		}
		total += row[0].Int()
	}
	if total != 121 {
		t.Fatalf("shards hold %d rows in total, want 121", total)
	}

	// Ordered queries: exact equality (unique sort keys break ties).
	exact := []struct {
		q    string
		args []Value
	}{
		{q: `SELECT id, amt FROM orders WHERE cust = 7 ORDER BY id`},                        // point read
		{q: `SELECT id, amt FROM orders WHERE cust = ? ORDER BY id`, args: []Value{Int(3)}}, // parameterised point read
		{q: `SELECT id, cust, amt, tag FROM orders ORDER BY id`},                            // full fan-out scan
		{q: `SELECT id, amt FROM orders ORDER BY amt DESC, id LIMIT 10`},                    // global top-k
		{q: `SELECT id FROM orders ORDER BY id LIMIT 15 OFFSET 30`},                         // offset window
		{q: `SELECT id, amt*2 AS twice FROM orders ORDER BY twice DESC, id LIMIT 5`},        // alias ordering
		{q: `SELECT cust, COUNT(*), SUM(id) FROM orders GROUP BY cust ORDER BY cust`},       // merged groups
		{q: `SELECT MIN(amt), MAX(amt), COUNT(*) FROM orders`},                              // global extrema
		{q: `SELECT k, v FROM refdata ORDER BY k`},                                          // replicated table
	}
	for _, c := range exact {
		want, got := queryBoth(t, ref, svc, c.q, c.args...)
		if !reflect.DeepEqual(want.All(), got.All()) {
			t.Fatalf("%q:\n service   %v\n reference %v", c.q, got.All(), want.All())
		}
	}

	// Unordered queries: order-insensitive row-set equality.
	unordered := []string{
		`SELECT id FROM orders WHERE amt > 50`,
		`SELECT DISTINCT tag FROM orders`,
		`SELECT id, cust FROM orders WHERE tag = 'ship'`,
	}
	for _, q := range unordered {
		want, got := queryBoth(t, ref, svc, q)
		if w, g := sortedRecords(want.All()), sortedRecords(got.All()); !reflect.DeepEqual(w, g) {
			t.Fatalf("%q (order-insensitive):\n service   %v\n reference %v", q, got.All(), want.All())
		}
	}

	// Floating-point aggregates: equal up to re-association of the adds.
	approx := []string{
		`SELECT COUNT(*), SUM(amt), AVG(amt), TOTAL(amt) FROM orders`,
		`SELECT tag, AVG(amt), SUM(amt) FROM orders GROUP BY tag ORDER BY tag`,
	}
	for _, q := range approx {
		want, got := queryBoth(t, ref, svc, q)
		w, g := want.All(), got.All()
		if len(w) != len(g) {
			t.Fatalf("%q: %d rows vs %d", q, len(g), len(w))
		}
		for i := range w {
			if !valuesApproxEqual(w[i], g[i]) {
				t.Fatalf("%q row %d: service %v, reference %v", q, i, g[i], w[i])
			}
		}
	}

	// Mutations: single-shard routed, broadcast with summed counts.
	execBoth(t, ref, svc, `UPDATE orders SET amt = amt + 1 WHERE cust = 3`)
	execBoth(t, ref, svc, `UPDATE orders SET tag = 'audit' WHERE amt > 90`) // broadcast update
	execBoth(t, ref, svc, `DELETE FROM orders WHERE id = 5`)                // broadcast delete, one shard hits
	execBoth(t, ref, svc, `DELETE FROM orders WHERE cust = 11 AND id > 60`) // routed delete
	want, got := queryBoth(t, ref, svc, `SELECT id, cust, amt, tag FROM orders ORDER BY id`)
	if !reflect.DeepEqual(want.All(), got.All()) {
		t.Fatalf("post-mutation scan diverged:\n service   %v\n reference %v", got.All(), want.All())
	}

	// Declined shapes fail loudly instead of answering wrongly.
	declined := []struct {
		sql  string
		want string
		exec bool
	}{
		{sql: `SELECT tag, COUNT(*) FROM orders GROUP BY tag HAVING COUNT(*) > 2`, want: "HAVING"},
		{sql: `SELECT SUM(amt)+1 FROM orders`, want: "bare result columns"},
		{sql: `SELECT *, COUNT(*) FROM orders`, want: "cannot use *"},
		{sql: `SELECT COUNT(*) FROM orders GROUP BY tag`, want: "grouping keys"},
		{sql: `SELECT id FROM orders ORDER BY amt`, want: "must name a result column"},
		{sql: `UPDATE orders SET cust = 1 WHERE id = 7`, want: "routing column", exec: true},
		{sql: `INSERT INTO orders SELECT * FROM orders`, want: "INSERT ... SELECT", exec: true},
		{sql: `BEGIN`, want: "transaction boundaries", exec: true},
	}
	for _, c := range declined {
		var err error
		if c.exec {
			_, err = svc.Exec(c.sql)
		} else {
			_, err = svc.Query(c.sql)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%q: want error containing %q, got %v", c.sql, c.want, err)
		}
	}

	// Routing counters reflect what ran.
	st = svc.Stats()
	if st.FanOuts == 0 {
		t.Fatalf("no fan-outs recorded: %+v", st)
	}
	if st.Broadcasts == 0 {
		t.Fatalf("no broadcasts recorded: %+v", st)
	}
	var points int64
	for _, p := range st.PointReads {
		points += p
	}
	if points < 2 {
		t.Fatalf("point reads not routed single-shard: %+v", st)
	}
	if st.GroupCommits == 0 {
		t.Fatalf("group-commit queue never committed: %+v", st)
	}
}
