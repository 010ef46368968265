package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"twine/internal/core"
	"twine/internal/hostfs"
	"twine/internal/ipfs"
	"twine/internal/litedb"
	"twine/internal/sgx"
	"twine/tsql"
)

// The two single-connection SQL workloads share one table: kv(id, data)
// with sz.sqlRows rows of payloadBytes each, four times the default 8 MiB
// page cache, so a uniform point access misses the program's own caches
// and every layer from litedb down to hostfs is on the blocking path.
const (
	payloadBytes = 1024
	popBatch     = 500
	dbName       = "bench.db"
	platformSeed = "twine-benchmark"

	sqlCreate    = `CREATE TABLE kv (id INTEGER PRIMARY KEY, data BLOB)`
	sqlInsert    = `INSERT INTO kv (id, data) VALUES (?, ?)`
	sqlPoint     = `SELECT id, length(data) FROM kv WHERE id = ?`
	sqlPointData = `SELECT data FROM kv WHERE id = ?`
	sqlUpdate    = `UPDATE kv SET data = ? WHERE id = ?`
	sqlScan      = `SELECT COUNT(*), SUM(length(data)) FROM kv`
)

// sqlConn is what every rung of the SQL ladder offers: litedb.DB,
// core.EmbeddedDB and tsql.DB all have these three methods.
type sqlConn interface {
	Exec(sql string, args ...tsql.Value) (int64, error)
	Query(sql string, args ...tsql.Value) (*tsql.Rows, error)
	Close() error
}

// fillPayload writes the row's expected bytes: a function of the seed,
// the row id and how many times the row has been rewritten.
func fillPayload(dst []byte, seed int64, id int, ver uint32) {
	x := mix(seed, id, int64(ver)) | 1
	for o := 0; o+8 <= len(dst); o += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[o:], x)
	}
}

// sqlModel is the client's own record of the table, against which every
// answer is checked.
type sqlModel struct {
	seed int64
	ver  []uint32
	buf  []byte
}

func newSQLModel(seed int64) *sqlModel {
	return &sqlModel{seed: seed, ver: make([]uint32, sz.sqlRows), buf: make([]byte, payloadBytes)}
}

// populate creates kv and inserts every row in popBatch-row transactions.
func (m *sqlModel) populate(c sqlConn) error {
	if _, err := c.Exec(sqlCreate); err != nil {
		return err
	}
	for at := 0; at < sz.sqlRows; at += popBatch {
		if _, err := c.Exec("BEGIN"); err != nil {
			return err
		}
		for id := at; id < at+popBatch && id < sz.sqlRows; id++ {
			fillPayload(m.buf, m.seed, id, 0)
			if _, err := c.Exec(sqlInsert, tsql.Int(int64(id)), tsql.Blob(m.buf)); err != nil {
				return err
			}
		}
		if _, err := c.Exec("COMMIT"); err != nil {
			return err
		}
	}
	return nil
}

// readOp is one uniform-random point SELECT. Every 64th op fetches the
// payload itself and compares the bytes.
func (m *sqlModel) readOp(c sqlConn, i int64) error {
	id := int(mix(m.seed, 0, i) % uint64(sz.sqlRows))
	if i%64 == 63 {
		rows, err := c.Query(sqlPointData, tsql.Int(int64(id)))
		if err != nil {
			return err
		}
		return m.checkPayload(rows, id)
	}
	rows, err := c.Query(sqlPoint, tsql.Int(int64(id)))
	if err != nil {
		return err
	}
	if !rows.Next() {
		return fmt.Errorf("sql: id %d not found", id)
	}
	if r := rows.Row(); r[0].Int() != int64(id) || r[1].Int() != payloadBytes {
		return fmt.Errorf("sql: id %d answered %v", id, r)
	}
	return nil
}

func (m *sqlModel) checkPayload(rows *tsql.Rows, id int) error {
	if !rows.Next() {
		return fmt.Errorf("sql: id %d not found", id)
	}
	fillPayload(m.buf, m.seed, id, m.ver[id])
	if !bytes.Equal(rows.Row()[0].Blob(), m.buf) {
		return fmt.Errorf("sql: id %d holds the wrong payload (version %d expected)", id, m.ver[id])
	}
	return nil
}

// writeOp is one autocommit UPDATE of a uniform-random row.
func (m *sqlModel) writeOp(c sqlConn, i int64) error {
	id := int(mix(m.seed, 0, i) % uint64(sz.sqlRows))
	fillPayload(m.buf, m.seed, id, m.ver[id]+1)
	n, err := c.Exec(sqlUpdate, tsql.Blob(m.buf), tsql.Int(int64(id)))
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("sql: UPDATE of id %d changed %d rows", id, n)
	}
	m.ver[id]++
	return nil
}

// checkTotals is the exact final scan.
func checkTotals(c sqlConn) error {
	rows, err := c.Query(sqlScan)
	if err != nil {
		return err
	}
	if !rows.Next() {
		return fmt.Errorf("sql: scan returned nothing")
	}
	r := rows.Row()
	if r[0].Int() != int64(sz.sqlRows) || r[1].Int() != int64(sz.sqlRows)*payloadBytes {
		return fmt.Errorf("sql: scan saw %v, want [%d %d]", r, sz.sqlRows, sz.sqlRows*payloadBytes)
	}
	return nil
}

// checkSampled compares the stored payload of 256 sampled rows with the
// model's last-written version.
func (m *sqlModel) checkSampled(c sqlConn) error {
	for k := int64(0); k < 256; k++ {
		id := int(mix(m.seed, 7, k) % uint64(sz.sqlRows))
		rows, err := c.Query(sqlPointData, tsql.Int(int64(id)))
		if err != nil {
			return err
		}
		if err := m.checkPayload(rows, id); err != nil {
			return err
		}
	}
	return nil
}

// openFrontSQL is the front door: tsql.Open with every default, on a
// sealed file over the given host.
func openFrontSQL(host hostfs.FS) (*tsql.DB, error) {
	return tsql.Open(tsql.Config{Path: dbName, HostFS: host, PlatformSeed: platformSeed})
}

func closeFrontSQL(db *tsql.DB) error {
	err := db.Close()
	db.Runtime().Enclave.Destroy()
	return err
}

// sqlFront builds the front-door stack of sql_read or sql_write.
func sqlFront(write bool) func(seed int64) (*stack, error) {
	return func(seed int64) (*stack, error) {
		st, _, _, err := buildFrontSQL(seed, write, true)
		return st, err
	}
}

// buildFrontSQL opens the front door over a fresh host and populates it.
// It also returns the handle and how long the population took, which the
// traced pass reports as a unit cost. With reopen set, the write
// workload's final check closes the database and verifies a reopened one.
func buildFrontSQL(seed int64, write, reopen bool) (*stack, *tsql.DB, float64, error) {
	host := hostfs.NewMemFS()
	db, err := openFrontSQL(host)
	if err != nil {
		return nil, nil, 0, err
	}
	m := newSQLModel(seed)
	t0 := time.Now()
	if err := m.populate(db); err != nil {
		return nil, nil, 0, err
	}
	popSeconds := time.Since(t0).Seconds()
	st := &stack{name: "tsql.Open", clients: 1,
		probe: &probe{enclaves: []*sgx.Enclave{db.Runtime().Enclave}, pfs: []*ipfs.FS{db.Runtime().PFS}}}
	closed := false
	st.close = func() {
		if !closed {
			closed = true
			_ = closeFrontSQL(db)
		}
	}
	st.op = func(_ int, i int64) error { return m.readOp(db, i) }
	st.finish = func() error { return checkTotals(db) }
	if write {
		st.op = func(_ int, i int64) error { return m.writeOp(db, i) }
	}
	if write && reopen {
		// Close, reopen from the same host bytes and platform seed, and
		// verify there: a write path made faster by not persisting fails.
		st.finish = func() error {
			closed = true
			if err := closeFrontSQL(db); err != nil {
				return err
			}
			re, err := openFrontSQL(host)
			if err != nil {
				return fmt.Errorf("sql: reopen: %w", err)
			}
			defer closeFrontSQL(re)
			if err := checkTotals(re); err != nil {
				return err
			}
			return m.checkSampled(re)
		}
	}
	return st, db, popSeconds, nil
}

// simZeroSGX is rung C's enclave: default geometry, simulation mode, free
// transitions, so that only the sandbox page store and the WASI
// marshalling are added to rung B.
func simZeroSGX() sgx.Config {
	cfg := sgx.DefaultConfig()
	cfg.Mode = sgx.ModeSimulation
	cfg.TransitionCost = 0
	return cfg
}

// sqlLadder is the SQL ladder A..E plus the untraced front door, each
// rung with its own populated copy of the table.
type sqlLadder struct {
	stacks []*stack
	conns  []sqlConn
	// frontPopSeconds is how long populating the front door took.
	frontPopSeconds float64
}

func buildSQLLadder(write bool, seed int64, traced *tracedFS) (*sqlLadder, error) {
	type opened struct {
		conn  sqlConn
		close func()
		probe *probe
	}
	embedded := func(cfg core.Config) func() (opened, error) {
		return func() (opened, error) {
			cfg.PlatformSeed = platformSeed
			rt, err := core.NewRuntime(cfg)
			if err != nil {
				return opened{}, err
			}
			edb, err := rt.OpenDB(core.DBConfig{Name: dbName})
			if err != nil {
				rt.Enclave.Destroy()
				return opened{}, err
			}
			p := &probe{enclaves: []*sgx.Enclave{rt.Enclave}, retries: func() int64 { return rt.HostRetryStats().Retries }}
			if rt.PFS != nil {
				p.pfs = []*ipfs.FS{rt.PFS}
			}
			return opened{edb, func() { _ = edb.Close(); rt.Enclave.Destroy() }, p}, nil
		}
	}
	native := func(vfs litedb.VFS) func() (opened, error) {
		return func() (opened, error) {
			db, err := litedb.Open(vfs, dbName, litedb.Options{})
			if err != nil {
				return opened{}, err
			}
			return opened{db, func() { _ = db.Close() }, nil}, nil
		}
	}
	rungs := []struct {
		name string
		open func() (opened, error)
	}{
		{"A litedb/MemVFS", native(litedb.NewMemVFS())},
		{"B litedb/HostVFS", native(litedb.NewHostVFS(hostfs.NewMemFS()))},
		{"C enclave-sim/FSHost", embedded(core.Config{FS: core.FSHost, SGX: simZeroSGX(), HostFS: hostfs.NewMemFS()})},
		{"D enclave-hw/FSHost", embedded(core.Config{FS: core.FSHost, SGX: sgx.DefaultConfig(), HostFS: hostfs.NewMemFS()})},
		{"E enclave-hw/FSIPFS traced", embedded(core.Config{FS: core.FSIPFS, IPFSMode: ipfs.ModeOptimized, HostFS: traced})},
	}
	l := &sqlLadder{}
	for _, r := range rungs {
		o, err := r.open()
		if err != nil {
			return l, fmt.Errorf("%s: %w", r.name, err)
		}
		conn := o.conn
		st := &stack{name: r.name, clients: 1, close: o.close, probe: o.probe}
		l.stacks = append(l.stacks, st)
		l.conns = append(l.conns, conn)
		m := newSQLModel(seed)
		if err := m.populate(conn); err != nil {
			return l, fmt.Errorf("%s: populate: %w", r.name, err)
		}
		st.op = func(_ int, i int64) error { return m.readOp(conn, i) }
		if write {
			st.op = func(_ int, i int64) error { return m.writeOp(conn, i) }
		}
		st.finish = func() error { return checkTotals(conn) }
	}
	l.stacks[len(l.stacks)-1].probe.fs = traced
	full, db, pop, err := buildFrontSQL(seed, write, false)
	if err != nil {
		return l, err
	}
	l.stacks = append(l.stacks, full)
	l.conns = append(l.conns, db)
	l.frontPopSeconds = pop
	return l, nil
}

// traceSQL runs the SQL ladder for sql_read or sql_write.
func traceSQL(t *tracer, write bool) error {
	l, err := buildSQLLadder(write, t.seed, t.fs)
	defer func() { closeAll(l.stacks) }()
	if err != nil {
		return err
	}
	warm, countOps := sz.ladderWarmSQLRead, sz.countSQLRead
	if write {
		warm, countOps = sz.ladderWarmSQLWrite, sz.countSQLWrite
	}
	t.warm(l.stacks, warm)

	top := l.stacks[4]
	before, after, n := t.counted(top, countOps)
	userBytes := int64(0)
	if write {
		userBytes = n * payloadBytes
	}
	t.setCounts(before, after, n, userBytes)

	r := t.interleave(l.stacks, t.seconds)
	t.set("litedb.self_us", r[0].p50us)
	t.set("hostfs.self_us", r[1].p50us-r[0].p50us)
	t.set("wasi.self_us", r[2].p50us-r[1].p50us)
	t.set("sgx.self_us", r[3].p50us-r[2].p50us)
	t.set("ipfs.self_us", r[4].p50us-r[3].p50us)
	t.closure(r[4], r[5])
	scanMs := make([]float64, len(l.stacks))
	for i, st := range l.stacks {
		t.note("rung %-28s p50 %9.2f us  %9.0f ops/s", st.name, r[i].p50us, r[i].opsPerS)
		t0 := time.Now()
		t.finish(st)
		scanMs[i] = float64(time.Since(t0)) / 1e6
	}

	unitsSGX(t, top.probe.enclaves[0])
	unitsSQL(t, l, scanMs)
	return unitsIPFS(t)
}
