package tsql

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"twine/internal/core"
	"twine/internal/hostfs"
	"twine/internal/ipfs"
	"twine/internal/litedb"
)

// refreshCfg is a geometry cheap enough to open a fresh enclave after
// every commit of a long script. All handles of one test must share it:
// the heap size is part of the enclave measurement the sealing key
// derives from.
func refreshCfg(host hostfs.FS, cacheKiB int) Config {
	cfg := Config{Path: "diff.db", HostFS: host, PlatformSeed: "refresh-platform", CacheKiB: cacheKiB}
	cfg.SGX.HeapSize = int64(cacheKiB+2<<10) << 10
	cfg.SGX.ReservedSize = 4 << 20
	cfg.SGX.EPCUsable = cfg.SGX.HeapSize + cfg.SGX.ReservedSize // no EPC paging: not what is under test
	cfg.SGX.EPCSize = cfg.SGX.EPCUsable + 4<<20
	return cfg
}

// openWithNodeCache is Open with the protected file system's node cache
// sized by the test; Config has no knob for it and needs none.
func openWithNodeCache(cfg Config, nodes int) (*DB, error) {
	rt, err := core.NewRuntime(core.Config{
		PlatformSeed:   cfg.PlatformSeed,
		SGX:            cfg.SGX,
		FS:             core.FSIPFS,
		IPFSMode:       ipfs.ModeOptimized,
		IPFSCacheNodes: nodes,
		HostFS:         cfg.HostFS,
	})
	if err != nil {
		return nil, err
	}
	edb, err := rt.OpenDB(core.DBConfig{Name: cfg.Path, CachePages: cfg.CacheKiB * 1024 / litedb.PageSize})
	if err != nil {
		return nil, err
	}
	return &DB{rt: rt, edb: edb}, nil
}

func (db *DB) destroy() {
	db.Close()
	db.rt.Enclave.Destroy()
}

// answers runs the fixed query set and renders everything a client could
// observe: rows, or the error text.
func answers(db *DB) []string {
	var out []string
	for _, q := range []string{
		`PRAGMA page_count`,
		`PRAGMA table_count`,
		`PRAGMA integrity_check`,
		`SELECT COUNT(*), SUM(n), MIN(k), MAX(k) FROM kv`,
		`SELECT k, n, length(v) FROM kv WHERE k IN (1, 7, 33, 250, 1999, 5003) ORDER BY k`,
		`SELECT k, n FROM kv WHERE n >= 40 AND n < 44 ORDER BY k LIMIT 25`,
		`SELECT COUNT(*), SUM(x) FROM aux`,
	} {
		rows, err := db.Query(q)
		if err != nil {
			out = append(out, q+" => error: "+err.Error())
			continue
		}
		out = append(out, fmt.Sprintf("%s => %v %v", q, rows.Cols, rows.All()))
	}
	return out
}

// TestRefreshMatchesFreshOpen is the differential test of the in-place
// refresh. A writer runs a seeded script of commit batches over every
// kind of change a commit can make (row inserts, updates and deletes, DDL
// that creates, drops and re-creates tables with a different column
// order, an index built and dropped, growth past one MHT node's 96 data
// nodes and past the 96 + 32*96 a two-level tree holds, a mass DELETE and
// VACUUM). After every batch a long-lived replica handle, refreshed in
// place, must answer the fixed query set exactly as a handle opened that
// moment on the same host bytes does, page count and integrity check
// included. It runs at the default cache sizes and with a 16-page page
// cache over an 8-node protected-file cache, where a changed MHT entry
// usually has no cached old plaintext to diff against.
func TestRefreshMatchesFreshOpen(t *testing.T) {
	for _, tc := range []struct {
		name            string
		cacheKiB, nodes int
	}{
		{"default caches", litedb.DefaultCachePages * litedb.PageSize / 1024, ipfs.DefaultCacheNodes},
		{"small caches", 64, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := refreshCfg(hostfs.NewMemFS(), tc.cacheKiB)
			wcfg := cfg
			wcfg.sync = litedb.SyncNormal // commits must reach the host, as a shard writer's do
			w, err := Open(wcfg)
			if err != nil {
				t.Fatalf("Open (writer): %v", err)
			}
			defer w.destroy()
			exec := func(sql string, args ...Value) {
				t.Helper()
				if _, err := w.Exec(sql, args...); err != nil {
					t.Fatalf("writer: %s: %v", sql, err)
				}
			}
			exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT, n INTEGER)`)
			replica, err := openWithNodeCache(cfg, tc.nodes)
			if err != nil {
				t.Fatalf("Open (replica): %v", err)
			}
			defer replica.destroy()

			rng := rand.New(rand.NewSource(16))
			nextKey := int64(1)
			insert := func(rows int, width int) {
				for i := 0; i < rows; i++ {
					exec(`INSERT INTO kv (k, v, n) VALUES (?, ?, ?)`,
						Int(nextKey), Text(strings.Repeat("v", width+rng.Intn(40))), Int(rng.Int63n(100)))
					nextKey++
				}
			}
			growTo := func(pages int64) {
				exec(`BEGIN`)
				for {
					row, err := w.QueryRow(`PRAGMA page_count`)
					if err != nil {
						t.Fatalf("page_count: %v", err)
					}
					if row[0].Int() > pages {
						break
					}
					insert(50, 1400)
				}
				exec(`COMMIT`)
			}
			auxUp := false
			const batches = 210
			for batch := 1; batch <= batches; batch++ {
				switch {
				case batch == 1:
					insert(60, 30)
				case batch == 25:
					exec(`CREATE INDEX kv_n ON kv (n)`)
				case batch == 50:
					growTo(96 + 10)
				case batch == 200:
					growTo(96 + 32*96 + 40)
				case batch == 202:
					exec(`DROP INDEX kv_n`)
				case batch == 204:
					exec(`DELETE FROM kv WHERE k > 300 AND k % 5 != 3`)
					exec(`VACUUM`)
				case batch == 207:
					exec(`CREATE INDEX kv_n ON kv (n)`)
				case batch%9 == 0: // DDL: aux comes and goes, its columns swapping places
					switch {
					case auxUp:
						exec(`DROP TABLE aux`)
					case batch%2 == 0:
						exec(`CREATE TABLE aux (x INTEGER, pad TEXT)`)
						exec(`INSERT INTO aux (x, pad) VALUES (?, 'p')`, Int(int64(batch)))
					default:
						exec(`CREATE TABLE aux (pad TEXT, x INTEGER)`)
						exec(`INSERT INTO aux (pad, x) VALUES ('q', ?), ('r', 1)`, Int(int64(batch)))
					}
					auxUp = !auxUp
				case batch%13 == 0: // a batch that commits nothing new
					exec(`UPDATE kv SET n = n WHERE k = -1`)
				default:
					for i := rng.Intn(3) + 1; i > 0; i-- {
						k := rng.Int63n(nextKey)
						switch rng.Intn(6) {
						case 0, 1:
							insert(rng.Intn(4)+1, 30)
						case 2, 3:
							exec(`UPDATE kv SET n = n + 1, v = ? WHERE k = ?`, Text(strings.Repeat("u", 20+rng.Intn(200))), Int(k))
						case 4:
							exec(`UPDATE kv SET n = (n + 7) % 100 WHERE k >= ? AND k < ?`, Int(k), Int(k+20))
						default:
							exec(`DELETE FROM kv WHERE k = ?`, Int(k))
						}
					}
				}

				if err := replica.edb.Refresh(); err != nil {
					t.Fatalf("batch %d: Refresh: %v", batch, err)
				}
				fresh, err := Open(cfg)
				if err != nil {
					t.Fatalf("batch %d: Open (fresh): %v", batch, err)
				}
				got, want := answers(replica), answers(fresh)
				fresh.destroy()
				if !reflect.DeepEqual(got, want) {
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("batch %d: the refreshed replica and a fresh open disagree:\n refreshed %.400s\n fresh     %.400s", batch, got[i], want[i])
						}
					}
				}
				if !strings.Contains(want[2], "[[ok]]") {
					t.Fatalf("batch %d: %s", batch, want[2])
				}
			}
			row, err := w.QueryRow(`PRAGMA page_count`)
			if err != nil || row[0].Int() <= 96+32*96 {
				t.Fatalf("the script ended at %v pages (%v): it no longer reaches a second MHT level", row, err)
			}
		})
	}
}

// hostFile reads the whole stored file as the host sees it.
func hostFile(t *testing.T, host hostfs.FS, name string) []byte {
	t.Helper()
	f, err := host.OpenFile(name, hostfs.ORead)
	if err != nil {
		t.Fatalf("host open: %v", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		t.Fatalf("host stat: %v", err)
	}
	buf := make([]byte, info.Size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("host read: %v", err)
	}
	return buf
}

func hostPut(t *testing.T, host hostfs.FS, name string, off int64, b []byte) {
	t.Helper()
	f, err := host.OpenFile(name, hostfs.OWrite)
	if err != nil {
		t.Fatalf("host open: %v", err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatalf("host write: %v", err)
	}
}

// integrityFailure reports whether err is the protected file system
// refusing what the host served: by its own errors on the refresh path,
// as EIO once it has crossed WASI on the read path.
func integrityFailure(err error) bool {
	return errors.Is(err, ipfs.ErrIntegrity) || errors.Is(err, ipfs.ErrBadName) ||
		(err != nil && strings.Contains(err.Error(), "EIO"))
}

// TestRefreshHostileHost: between a commit and a replica's refresh the
// host swaps in bytes the writer did not store. The replica must end in
// an integrity failure, at the refresh or at the first read that needs
// the page the lie touches, or keep answering from the one authenticated
// snapshot it already holds (the old metadata node over the new tree is
// the whole-file rollback internal/ipfs documents as undetected; nothing
// short of a trusted counter tells it from "no commit happened"). It must
// never answer with the new rows and the old ones mixed, nor take a
// truncated file for a fresh one. Once the host serves the true bytes
// again a retry succeeds and sees the commit.
func TestRefreshHostileHost(t *testing.T) {
	const scan = `SELECT k, n FROM t ORDER BY k`
	node := func(b []byte, phys int) []byte { return b[phys*ipfs.NodeSize : (phys+1)*ipfs.NodeSize] }
	// changedData is the first data node, other than the header page's,
	// that the commit rewrote.
	changedData := func(t *testing.T, before, after []byte) int {
		for phys := 3; (phys+1)*ipfs.NodeSize <= len(before); phys++ {
			if phys%97 != 1 && !reflect.DeepEqual(node(before, phys), node(after, phys)) {
				return phys
			}
		}
		t.Fatal("the commit rewrote no data node")
		return 0
	}
	for _, tc := range []struct {
		name string
		lie  func(t *testing.T, host hostfs.FS, name string, before, after []byte)
		// mayServeOld: the lie is indistinguishable from no commit.
		mayServeOld bool
	}{
		{name: "truncated to zero", lie: func(t *testing.T, host hostfs.FS, name string, _, _ []byte) {
			f, err := host.OpenFile(name, hostfs.OWrite)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := f.Truncate(0); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "old metadata over new nodes", mayServeOld: true, lie: func(t *testing.T, host hostfs.FS, name string, before, _ []byte) {
			hostPut(t, host, name, 0, node(before, 0))
		}},
		{name: "fresh metadata over a stale data node", lie: func(t *testing.T, host hostfs.FS, name string, before, after []byte) {
			phys := changedData(t, before, after)
			hostPut(t, host, name, int64(phys)*ipfs.NodeSize, node(before, phys))
		}},
		{name: "fresh metadata over a stale MHT node", lie: func(t *testing.T, host hostfs.FS, name string, before, _ []byte) {
			hostPut(t, host, name, ipfs.NodeSize, node(before, 1))
		}},
		{name: "torn metadata node", lie: func(t *testing.T, host hostfs.FS, name string, before, _ []byte) {
			hostPut(t, host, name, 48, node(before, 0)[48:])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			host := hostfs.NewMemFS()
			cfg := refreshCfg(host, 256)
			wcfg := cfg
			wcfg.sync = litedb.SyncNormal
			w, err := Open(wcfg)
			if err != nil {
				t.Fatalf("Open (writer): %v", err)
			}
			defer w.destroy()
			if _, err := w.Exec(`CREATE TABLE t (k INTEGER PRIMARY KEY, n INTEGER, pad TEXT)`); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Exec(`BEGIN`); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 120; k++ {
				if _, err := w.Exec(`INSERT INTO t (k, n, pad) VALUES (?, 0, ?)`, Int(int64(k)), Text(strings.Repeat("p", 300))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := w.Exec(`COMMIT`); err != nil {
				t.Fatal(err)
			}
			r, err := Open(cfg)
			if err != nil {
				t.Fatalf("Open (replica): %v", err)
			}
			defer r.destroy()
			oldRows, err := r.Query(scan)
			if err != nil {
				t.Fatalf("replica scan: %v", err)
			}

			before := hostFile(t, host, cfg.Path)
			if _, err := w.Exec(`UPDATE t SET n = n + 1`); err != nil {
				t.Fatal(err)
			}
			newRows, err := w.Query(scan)
			if err != nil {
				t.Fatal(err)
			}
			after := hostFile(t, host, cfg.Path)
			tc.lie(t, host, cfg.Path, before, after)

			err = r.edb.Refresh()
			var rows *Rows
			if err == nil {
				rows, err = r.Query(scan)
			}
			switch {
			case err != nil && !integrityFailure(err):
				t.Fatalf("the replica failed with %v, want an integrity failure", err)
			case err == nil && !tc.mayServeOld:
				t.Fatalf("the replica answered %d rows over a host that lied", len(rows.All()))
			case err == nil && !reflect.DeepEqual(rows.All(), oldRows.All()):
				t.Fatalf("the replica answered neither an error nor its old snapshot: %v", rows.All())
			}

			hostPut(t, host, cfg.Path, 0, after)
			if err := r.edb.Refresh(); err != nil {
				t.Fatalf("Refresh once the host relents: %v", err)
			}
			rows, err = r.Query(scan)
			if err != nil || !reflect.DeepEqual(rows.All(), newRows.All()) {
				t.Fatalf("after the retry the replica answers %v, %v; want the committed rows", rows, err)
			}
		})
	}
}

// TestServiceRetriesFailedRefresh: a replica whose refresh fails keeps its
// stale epoch, so every later read on it tries again before serving, and
// the first one after the host relents sees the commit. Reads alternate
// between the writer's handle and the replica (the dispenser is FIFO), so
// the script below knows which is which.
func TestServiceRetriesFailedRefresh(t *testing.T) {
	host := hostfs.NewMemFS()
	svc, err := OpenService(ShardConfig{Base: svcCfg(host, "retry-platform"), Replicas: 2, NoGroupCommit: true})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	defer svc.Close()
	if _, err := svc.Exec(`CREATE TABLE t (k INTEGER PRIMARY KEY, n INTEGER); INSERT INTO t (k, n) VALUES (1, 10)`); err != nil {
		t.Fatal(err)
	}
	read := func() (int64, error) {
		row, err := svc.QueryRow(`SELECT n FROM t WHERE k = 1`)
		if err != nil {
			return 0, err
		}
		return row[0].Int(), nil
	}
	for i := 0; i < 2; i++ { // writer's handle, then the replica opens
		if n, err := read(); err != nil || n != 10 {
			t.Fatalf("warm-up read %d = %d, %v", i, n, err)
		}
	}
	before := hostFile(t, host, "svc.db")
	if _, err := svc.Exec(`UPDATE t SET n = 11 WHERE k = 1`); err != nil {
		t.Fatal(err)
	}
	after := hostFile(t, host, "svc.db")
	hostPut(t, host, "svc.db", ipfs.NodeSize, before[ipfs.NodeSize:2*ipfs.NodeSize]) // stale root MHT node

	for attempt := 0; attempt < 2; attempt++ {
		if n, err := read(); err != nil || n != 11 {
			t.Fatalf("read on the writer's handle = %d, %v", n, err)
		}
		if n, err := read(); !integrityFailure(err) {
			t.Fatalf("read on the replica over a stale MHT node = %d, %v; want an integrity failure", n, err)
		}
	}
	if got := svc.Stats().ReplicaRefreshes; got != 0 {
		t.Fatalf("%d refreshes counted, none succeeded", got)
	}
	hostPut(t, host, "svc.db", 0, after)
	for i := 0; i < 2; i++ {
		if n, err := read(); err != nil || n != 11 {
			t.Fatalf("read %d after the host relents = %d, %v; want 11", i, n, err)
		}
	}
	if got := svc.Stats().ReplicaRefreshes; got != 1 {
		t.Fatalf("%d refreshes counted, want 1", got)
	}
}
