package tsql

import (
	"strings"
	"testing"
	"time"

	"twine/internal/hostfs"
	"twine/internal/litedb"
)

func openRouted(t *testing.T, shards int) *Service {
	t.Helper()
	svc, err := OpenService(ShardConfig{
		Base:        svcCfg(hostfs.NewMemFS(), "route-platform"),
		Shards:      shards,
		RouteTable:  "kv",
		RouteColumn: "k",
	})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	if _, err := svc.Exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatalf("CREATE TABLE: %v", err)
	}
	return svc
}

// TestRandomIsNotARoutingConstant: random() and randomblob() draw afresh
// on every evaluation, so the value the router would hash is not the value
// the shard would store or compare. A routed INSERT keyed on one is
// rejected; SELECT, UPDATE and DELETE whose routing conjunct compares with
// one go to every shard.
func TestRandomIsNotARoutingConstant(t *testing.T) {
	svc := openRouted(t, 4)
	for k := int64(0); k < 40; k++ {
		if _, err := svc.Exec(`INSERT INTO kv (k, v) VALUES (?, 'seed')`, Int(k)); err != nil {
			t.Fatalf("INSERT: %v", err)
		}
	}
	for _, sql := range []string{
		`INSERT INTO kv (k, v) VALUES (random(), 'lost')`,
		`INSERT INTO kv (k, v) VALUES (1000, 'fine'), (abs(random()) % 7, 'lost')`,
		`INSERT INTO kv (k, v) VALUES (length(randomblob(4)), 'lost')`,
	} {
		if _, err := svc.Exec(sql); err == nil || !strings.Contains(err.Error(), "routing value must be a constant expression") {
			t.Errorf("%s: err = %v, want the routing-constant rejection", sql, err)
		}
	}
	if row, err := svc.QueryRow(`SELECT COUNT(*) FROM kv`); err != nil || row[0].Int() != 40 {
		t.Fatalf("rejected INSERTs left COUNT(*) = %v, %v; want 40", row, err)
	}

	before := svc.Stats()
	if _, err := svc.Query(`SELECT v FROM kv WHERE k = random()`); err != nil {
		t.Errorf("SELECT ... k = random(): %v", err)
	}
	if _, err := svc.Exec(`UPDATE kv SET v = 'hit' WHERE k = abs(random()) % 2 + 100`); err != nil {
		t.Errorf("UPDATE ... k = f(random()): %v", err)
	}
	if _, err := svc.Exec(`DELETE FROM kv WHERE k = random()`); err != nil {
		t.Errorf("DELETE ... k = random(): %v", err)
	}
	after := svc.Stats()
	if got := after.FanOuts - before.FanOuts; got != 1 {
		t.Errorf("the SELECT fanned out %d times, want 1", got)
	}
	if got := after.Broadcasts - before.Broadcasts; got != 2 {
		t.Errorf("UPDATE and DELETE made %d broadcasts, want 2", got)
	}
	for i := range after.PointReads {
		if after.PointReads[i] != before.PointReads[i] {
			t.Errorf("shard %d served a point read for a random() key", i)
		}
	}

	// A deterministic function of constants still routes.
	if _, err := svc.Exec(`INSERT INTO kv (k, v) VALUES (abs(-7) + ?, 'routed')`, Int(2000)); err != nil {
		t.Fatalf("INSERT keyed on abs(-7) + ?: %v", err)
	}
	if row, err := svc.QueryRow(`SELECT v FROM kv WHERE k = 2000 + 7`); err != nil || row == nil || row[0].Text() != "routed" {
		t.Errorf("point read of the routed row = %v, %v", row, err)
	}
}

// TestRouteValueCost guards the per-read cost of finding the routing
// value: one small allocation (the conjunct list) and about 0.1 µs, where
// EvalConst once seeded a 5 KiB generator per call (two, and 15 µs).
func TestRouteValueCost(t *testing.T) {
	svc := openRouted(t, 2)
	stmts, err := litedb.ParseAll(`SELECT v FROM kv WHERE k = ?`)
	if err != nil {
		t.Fatal(err)
	}
	st := stmts[0].(*litedb.SelectStmt)
	args := []Value{Int(42)}
	route := func() {
		if v, ok := svc.routeValueIn(st.Where, args, "kv"); !ok || v.Int() != 42 {
			t.Fatalf("routeValueIn = %v, %v", v, ok)
		}
	}
	route()
	if allocs := testing.AllocsPerRun(200, route); allocs > 1 {
		t.Errorf("routeValueIn allocates %.1f objects per call, want at most 1", allocs)
	}
	if raceEnabled {
		return // the detector's own bookkeeping dominates the timing
	}
	best := time.Duration(1 << 62)
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for i := 0; i < 2000; i++ {
			route()
		}
		best = min(best, time.Since(t0)/2000)
	}
	if best > time.Microsecond {
		t.Errorf("routeValueIn takes %v per call (best of 5 means), want under 1µs", best)
	}
}
