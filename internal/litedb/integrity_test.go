package litedb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSQLMatchesModel drives the full SQL stack with a random workload and
// cross-checks every intermediate state against an in-memory model.
func TestSQLMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			db := openTestDB(t)
			mustExec(t, db, `CREATE TABLE m (id INTEGER PRIMARY KEY, v INTEGER)`)
			mustExec(t, db, `CREATE INDEX mv ON m(v)`)
			rng := rand.New(rand.NewSource(seed))
			model := map[int64]int64{}
			nextID := int64(1)

			verify := func() {
				// Count.
				row, err := db.QueryRow(`SELECT COUNT(*) FROM m`)
				if err != nil {
					t.Fatalf("count: %v", err)
				}
				if int(row[0].Int()) != len(model) {
					t.Fatalf("count = %d, model has %d", row[0].Int(), len(model))
				}
				// Full ordered scan.
				rows, err := db.Query(`SELECT id, v FROM m ORDER BY id`)
				if err != nil {
					t.Fatalf("scan: %v", err)
				}
				var ids []int64
				for k := range model {
					ids = append(ids, k)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				if rows.Len() != len(ids) {
					t.Fatalf("scan %d rows, want %d", rows.Len(), len(ids))
				}
				for i, r := range rows.All() {
					if r[0].Int() != ids[i] || r[1].Int() != model[ids[i]] {
						t.Fatalf("row %d = (%v,%v), want (%d,%d)",
							i, r[0], r[1], ids[i], model[ids[i]])
					}
				}
			}

			for op := 0; op < 300; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // insert
					v := rng.Int63n(50)
					mustExec(t, db, `INSERT INTO m (v) VALUES (?)`, IntVal(v))
					model[nextID] = v
					nextID++
				case 4, 5: // update by indexed value
					oldV := rng.Int63n(50)
					newV := rng.Int63n(50)
					mustExec(t, db, `UPDATE m SET v = ? WHERE v = ?`, IntVal(newV), IntVal(oldV))
					for k, mv := range model {
						if mv == oldV {
							model[k] = newV
						}
					}
				case 6, 7: // delete by id range
					if nextID > 1 {
						lo := rng.Int63n(nextID)
						mustExec(t, db, `DELETE FROM m WHERE id BETWEEN ? AND ?`,
							IntVal(lo), IntVal(lo+3))
						for k := range model {
							if k >= lo && k <= lo+3 {
								delete(model, k)
							}
						}
					}
				case 8: // indexed point query agreement
					v := rng.Int63n(50)
					row, err := db.QueryRow(`SELECT COUNT(*) FROM m WHERE v = ?`, IntVal(v))
					if err != nil {
						t.Fatalf("point: %v", err)
					}
					want := 0
					for _, mv := range model {
						if mv == v {
							want++
						}
					}
					if int(row[0].Int()) != want {
						t.Fatalf("indexed count(v=%d) = %d, want %d", v, row[0].Int(), want)
					}
				case 9: // aggregate agreement
					row, err := db.QueryRow(`SELECT SUM(v) FROM m`)
					if err != nil {
						t.Fatalf("sum: %v", err)
					}
					var want int64
					for _, mv := range model {
						want += mv
					}
					if len(model) == 0 {
						if !row[0].IsNull() {
							t.Fatalf("sum of empty = %v", row[0])
						}
					} else if row[0].Int() != want {
						t.Fatalf("sum = %d, want %d", row[0].Int(), want)
					}
				}
				if op%60 == 0 {
					verify()
				}
			}
			verify()
		})
	}
}

// TestCrashRecoveryAtSQLLevel simulates a crash between journal write and
// commit, then verifies the reopened database sees the pre-transaction
// state with intact indexes.
func TestCrashRecoveryAtSQLLevel(t *testing.T) {
	vfs := NewMemVFS()
	db, err := Open(vfs, "crash.db", Options{CachePages: 32})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `CREATE INDEX iv ON t(v)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `INSERT INTO t (v) VALUES (?)`, TextVal(fmt.Sprintf("v%d", i%5)))
	}

	// Open a transaction, mutate heavily, flush dirty pages to the DB
	// file (simulating cache pressure), then "crash".
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `UPDATE t SET v = 'clobbered'`)
	mustExec(t, db, `DELETE FROM t WHERE id <= 25`)
	if err := db.pager.flushAll(); err != nil {
		t.Fatalf("flushAll: %v", err)
	}
	// Crash: abandon the handle without commit/rollback.

	db2, err := Open(vfs, "crash.db", Options{CachePages: 32})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer db2.Close()
	row, err := db2.QueryRow(`SELECT COUNT(*) FROM t`)
	if err != nil || row[0].Int() != 50 {
		t.Fatalf("count after recovery = %v, %v", row, err)
	}
	row, _ = db2.QueryRow(`SELECT COUNT(*) FROM t WHERE v = 'clobbered'`)
	if row[0].Int() != 0 {
		t.Errorf("clobbered rows visible after recovery: %v", row[0])
	}
	// The index answers consistently with a full scan.
	idx, _ := db2.QueryRow(`SELECT COUNT(*) FROM t WHERE v = 'v1'`)
	var scanCount int64
	rows, _ := db2.Query(`SELECT v FROM t`)
	for _, r := range rows.All() {
		if r[0].Text() == "v1" {
			scanCount++
		}
	}
	if idx[0].Int() != scanCount {
		t.Errorf("index count %d != scan count %d after recovery", idx[0].Int(), scanCount)
	}
}

// TestLargeTransactionSpillsCleanly exceeds the page cache inside one
// transaction, forcing dirty-page spills, and checks full integrity, and
// that the commit then writes only what is still dirty: at most a cache's
// worth of pages, each once, in ascending order.
func TestLargeTransactionSpillsCleanly(t *testing.T) {
	vfs := newRecVFS()
	db, err := Open(vfs, "spill.db", Options{CachePages: 16})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE big (id INTEGER PRIMARY KEY, d BLOB)`)
	mustExec(t, db, `BEGIN`)
	for i := 0; i < 300; i++ { // ~300 KiB of payload through a 64 KiB cache
		mustExec(t, db, `INSERT INTO big (d) VALUES (zeroblob(1024))`)
	}
	if spilled := len(pageWrites(t, vfs.log, "spill.db")); spilled < 50 {
		t.Fatalf("only %d pages spilled before the commit", spilled)
	}
	vfs.log = nil
	mustExec(t, db, `COMMIT`)
	flushed := pageWrites(t, vfs.log, "spill.db")
	if len(flushed) == 0 || len(flushed) > 16 {
		t.Errorf("commit wrote %d pages through a 16-page cache", len(flushed))
	}
	if !slices.IsSorted(flushed) || len(slices.Compact(slices.Clone(flushed))) != len(flushed) {
		t.Errorf("commit's page writes are not ascending and distinct: %v", flushed)
	}
	row, err := db.QueryRow(`SELECT COUNT(*), SUM(length(d)) FROM big`)
	if err != nil || row[0].Int() != 300 || row[1].Int() != 300*1024 {
		t.Fatalf("after spill: %v, %v", row, err)
	}
}

// TestRollbackAcrossSpill makes sure pages spilled mid-transaction are
// restored by rollback.
func TestRollbackAcrossSpill(t *testing.T) {
	db, err := Open(NewMemVFS(), "rb.db", Options{CachePages: 16})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, d BLOB)`)
	mustExec(t, db, `INSERT INTO t (d) VALUES (zeroblob(100))`)
	mustExec(t, db, `BEGIN`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, `INSERT INTO t (d) VALUES (zeroblob(1024))`)
	}
	mustExec(t, db, `ROLLBACK`)
	row, err := db.QueryRow(`SELECT COUNT(*) FROM t`)
	if err != nil || row[0].Int() != 1 {
		t.Fatalf("count after rollback = %v, %v", row, err)
	}
	// Database still fully usable.
	mustExec(t, db, `INSERT INTO t (d) VALUES (zeroblob(10))`)
	row, _ = db.QueryRow(`SELECT COUNT(*) FROM t`)
	if row[0].Int() != 2 {
		t.Errorf("count = %v", row[0])
	}
}
