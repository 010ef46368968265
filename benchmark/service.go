package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twine/internal/hostfs"
	"twine/internal/ipfs"
	"twine/internal/sgx"
	"twine/tsql"
)

// sql_service: the sharded sealed-SQL service, 2 shards x 2 replicas with
// group commit, under a mixed closed loop from 2 clients. It is the only
// workload that runs the merge path, the commit loop and replica refresh.
const (
	svcClients = 2

	svcCreate = `CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`
	svcInsert = `INSERT INTO kv (k, v) VALUES (?, ?)`
	svcPoint  = `SELECT v FROM kv WHERE k = ?`
	svcRange  = `SELECT COUNT(*), SUM(k) FROM kv WHERE k >= ? AND k < ?`
	svcCount  = `SELECT COUNT(*) FROM kv`
)

// Op classes of the mix: 80 % routed point read, 10 % routed INSERT of a
// fresh key, 10 % fan-out COUNT/SUM range. p50 therefore sits inside the
// read class and p95 inside the slow classes, never on a boundary.
const (
	classRead = iota
	classInsert
	classScan
	numClasses
)

// svcConn is what every rung of the service ladder offers: tsql.DB and
// tsql.Service both have these two methods.
type svcConn interface {
	Exec(sql string, args ...tsql.Value) (int64, error)
	QueryRow(sql string, args ...tsql.Value) ([]tsql.Value, error)
}

func svcValue(seed int64, k int64) string {
	return fmt.Sprintf("v%07d-%016x", k, mix(seed, 3, k))
}

// svcModel is the clients' record of what the table must hold.
type svcModel struct {
	seed int64
	conn svcConn
	// own[c] counts the inserts client c has had acknowledged; its fresh
	// keys are svcRows + c, svcRows + c + svcClients, ...
	own [svcClients]atomic.Int64
	// classLat collects timedOp's per-class latencies (µs).
	classMu  sync.Mutex
	classLat [numClasses][]float64
}

func freshKey(client int, ordinal int64) int64 {
	return int64(sz.svcRows) + ordinal*svcClients + int64(client)
}

// populate creates kv and loads the initial rows with multi-row INSERTs.
func (m *svcModel) populate() error {
	if _, err := m.conn.Exec(svcCreate); err != nil {
		return err
	}
	const batch = 64
	var sb strings.Builder
	for at := 0; at < sz.svcRows; at += batch {
		sb.Reset()
		sb.WriteString("INSERT INTO kv (k, v) VALUES ")
		for k := at; k < at+batch && k < sz.svcRows; k++ {
			if k > at {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s')", k, svcValue(m.seed, int64(k)))
		}
		if _, err := m.conn.Exec(sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// classOf draws op i's class and the rest of its random bits.
func (m *svcModel) classOf(c int, i int64) (int, uint64) {
	h := mix(m.seed, c, i)
	switch h % 10 {
	case 0:
		return classInsert, h >> 8
	case 1:
		return classScan, h >> 8
	}
	return classRead, h >> 8
}

func (m *svcModel) op(c int, i int64) error {
	class, draw := m.classOf(c, i)
	return m.do(class, c, draw)
}

// timedOp is op that also files the latency under the op's class.
func (m *svcModel) timedOp(c int, i int64) error {
	class, draw := m.classOf(c, i)
	t0 := time.Now()
	err := m.do(class, c, draw)
	if i < warmOffset {
		us := float64(time.Since(t0)) / 1e3
		m.classMu.Lock()
		m.classLat[class] = append(m.classLat[class], us)
		m.classMu.Unlock()
	}
	return err
}

func (m *svcModel) do(class, c int, draw uint64) error {
	switch class {
	case classInsert:
		k := freshKey(c, m.own[c].Load())
		n, err := m.conn.Exec(svcInsert, tsql.Int(k), tsql.Text(svcValue(m.seed, k)))
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("service: INSERT of key %d changed %d rows", k, n)
		}
		m.own[c].Add(1)
		return nil
	case classScan:
		win := int64(sz.svcWindow)
		lo := int64(draw % uint64(int64(sz.svcRows)-win))
		row, err := m.conn.QueryRow(svcRange, tsql.Int(lo), tsql.Int(lo+win))
		if err != nil {
			return err
		}
		wantSum := win*lo + win*(win-1)/2
		if row == nil || row[0].Int() != win || row[1].Int() != wantSum {
			return fmt.Errorf("service: range [%d,%d) answered %v, want [%d %d]", lo, lo+win, row, win, wantSum)
		}
		return nil
	default:
		// A read draws from the initial rows and from this client's own
		// acknowledged inserts, so read-your-writes is checked as well.
		own := m.own[c].Load()
		idx := int64(draw % uint64(int64(sz.svcRows)+own))
		k := idx
		if idx >= int64(sz.svcRows) {
			k = freshKey(c, idx-int64(sz.svcRows))
		}
		row, err := m.conn.QueryRow(svcPoint, tsql.Int(k))
		if err != nil {
			return err
		}
		if want := svcValue(m.seed, k); row == nil || row[0].Text() != want {
			return fmt.Errorf("service: key %d read %v, want %q", k, row, want)
		}
		return nil
	}
}

// checkCount is the exact final count: the initial rows plus every
// acknowledged insert.
func (m *svcModel) checkCount() error {
	want := int64(sz.svcRows)
	for c := range m.own {
		want += m.own[c].Load()
	}
	row, err := m.conn.QueryRow(svcCount)
	if err != nil {
		return err
	}
	if row == nil || row[0].Int() != want {
		return fmt.Errorf("service: COUNT(*) = %v, want %d", row, want)
	}
	return nil
}

// openService opens a service and returns it with a closer that also
// destroys the writers' enclaves (Service.Close leaves them standing).
func openService(cfg tsql.ShardConfig) (*tsql.Service, func(), *probe, error) {
	cfg.Base.Path = dbName
	cfg.Base.PlatformSeed = platformSeed
	if cfg.Base.HostFS == nil {
		cfg.Base.HostFS = hostfs.NewMemFS()
	}
	cfg.RouteTable, cfg.RouteColumn = "kv", "k"
	svc, err := tsql.OpenService(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	p := &probe{}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	for i := 0; i < shards; i++ {
		rt := svc.Shard(i).Runtime()
		p.enclaves = append(p.enclaves, rt.Enclave)
		p.pfs = append(p.pfs, rt.PFS)
	}
	closeFn := func() {
		_ = svc.Close()
		for _, e := range p.enclaves {
			e.Destroy()
		}
	}
	return svc, closeFn, p, nil
}

func svcStack(name string, clients int, seed int64, conn svcConn, closeFn func(), p *probe) (*stack, *svcModel, error) {
	m := &svcModel{seed: seed, conn: conn}
	if err := m.populate(); err != nil {
		closeFn()
		return nil, nil, fmt.Errorf("%s: populate: %w", name, err)
	}
	return &stack{name: name, clients: clients, op: m.op, finish: m.checkCount, close: closeFn, probe: p}, m, nil
}

// newServiceFront is the front door: OpenService{Shards: 2, Replicas: 2},
// group commit on, every other field at its default.
func newServiceFront(seed int64, host hostfs.FS, clients int) (*stack, *svcModel, *tsql.Service, error) {
	svc, closeFn, p, err := openService(tsql.ShardConfig{Base: tsql.Config{HostFS: host}, Shards: 2, Replicas: 2})
	if err != nil {
		return nil, nil, nil, err
	}
	st, m, err := svcStack("Service{2,2}", clients, seed, svc, closeFn, p)
	return st, m, svc, err
}

func serviceWorkload() workload {
	return workload{
		name:    "sql_service",
		why:     "tsql.OpenService 2 shards x 2 replicas, group commit, 2 clients, 80/10/10 point read / INSERT / fan-out range: the only run of merge, commit loop and replica refresh",
		warmOps: sz.warmService,
		front: func(seed int64) (*stack, error) {
			st, _, _, err := newServiceFront(seed, nil, svcClients)
			return st, err
		},
		trace: traceService,
	}
}

func traceService(t *tracer) error {
	var stacks []*stack
	defer func() { closeAll(stacks) }()

	// a: one sequential tsql.DB.
	db, err := openFrontSQL(hostfs.NewMemFS())
	if err != nil {
		return err
	}
	st, _, err := svcStack("a tsql.DB", 1, t.seed, db, func() { _ = closeFrontSQL(db) },
		&probe{enclaves: []*sgx.Enclave{db.Runtime().Enclave}, pfs: []*ipfs.FS{db.Runtime().PFS}})
	if err != nil {
		return err
	}
	stacks = append(stacks, st)

	// b, c: one shard, one handle; without and with group commit.
	for _, r := range []struct {
		name string
		cfg  tsql.ShardConfig
	}{
		{"b Service{1,1,NoGroupCommit}", tsql.ShardConfig{Shards: 1, Replicas: 1, NoGroupCommit: true}},
		{"c Service{1,1}", tsql.ShardConfig{Shards: 1, Replicas: 1}},
	} {
		svc, closeFn, p, err := openService(r.cfg)
		if err != nil {
			return err
		}
		st, _, err := svcStack(r.name, 1, t.seed, svc, closeFn, p)
		if err != nil {
			return err
		}
		stacks = append(stacks, st)
	}

	// d, e: the full 2x2 service on the interposer, with one client and
	// then with two. They share one service and one model, so e continues
	// d's op streams.
	d, model, svc, err := newServiceFront(t.seed, t.fs, 1)
	if err != nil {
		return err
	}
	d.name = "d Service{2,2} 1 client traced"
	d.probe.fs = t.fs
	e := &stack{name: "e Service{2,2} 2 clients traced", clients: svcClients, op: model.timedOp, probe: d.probe, close: func() {}}
	stacks = append(stacks, d, e)
	full, _, _, err := newServiceFront(t.seed, nil, svcClients)
	if err != nil {
		return err
	}
	stacks = append(stacks, full)

	t.warm(stacks, sz.ladderWarmService)
	e.next = []int64{0, 0}
	d.next = []int64{1 << 30} // d draws from its own region of client 0's stream

	s0 := svc.Stats()
	before, after, n := t.counted(e, sz.countService)
	s1 := svc.Stats()
	inserts := s1.Writes - s0.Writes
	t.setCounts(before, after, n, inserts*int64(len(svcValue(t.seed, 0))+8))
	if gc := s1.GroupCommits - s0.GroupCommits; gc > 0 {
		t.set("tsql.stmts_per_group_commit", float64(s1.GroupedStmts-s0.GroupedStmts)/float64(gc))
	}
	if inserts > 0 {
		t.set("tsql.replica_refreshes_per_write", float64(s1.ReplicaRefreshes-s0.ReplicaRefreshes)/float64(inserts))
	}
	t.set("tsql.fanouts_per_op", float64(s1.FanOuts-s0.FanOuts)/float64(n))
	var most, all int64
	for i, p := range s1.PointReads {
		p -= s0.PointReads[i]
		all += p
		if p > most {
			most = p
		}
	}
	if all > 0 {
		t.set("tsql.max_shard_share", float64(most)/float64(all))
	}

	r := t.interleave(stacks, t.seconds)
	for class, name := range []string{"tsql.read_p50_us", "tsql.write_p50_us", "tsql.scan_p50_us"} {
		t.set(name, median(model.classLat[class]))
	}
	t.set("tsql.route_self_us", r[1].p50us-r[0].p50us)
	t.set("tsql.group_commit_self_us", r[2].p50us-r[1].p50us)
	t.set("tsql.shard_replica_self_us", r[3].p50us-r[2].p50us)
	t.set("tsql.concurrency_gain_x", r[4].opsPerS/r[3].opsPerS)
	t.closure(r[4], r[5])
	for i, st := range stacks {
		t.note("rung %-32s p50 %9.2f us  %9.0f ops/s", st.name, r[i].p50us, r[i].opsPerS)
	}
	for _, st := range stacks {
		t.finish(st)
	}

	unitsSGX(t, d.probe.enclaves[0])
	t.set("litedb.parse_us", parseUs([]string{svcInsert, svcPoint, svcRange}))
	return nil
}
