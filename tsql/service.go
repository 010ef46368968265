package tsql

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"

	"twine/internal/hostfs"
	"twine/internal/litedb"
)

// Service is the sharded sealed-SQL front door: one logical database
// hash-partitioned across N enclave shard workers, each a sealed IPFS
// file of its own. Reads fan out to snapshot-cloned replicas per shard
// (the PR 3 concurrent-replica construction at shard granularity);
// writes funnel through a per-shard group-commit queue that batches
// statements into one enclave crossing — and therefore one switchless
// protected-FS flush — per commit window.
//
// Routing semantics:
//
//   - A SELECT whose FROM is exactly the routed table and whose WHERE
//     contains a `RouteColumn = <const>` conjunct runs on that key's
//     shard alone (point read).
//   - Other SELECTs referencing the routed table fan out to every shard
//     and merge at the coordinator: plain selects concatenate, re-sort
//     and re-apply LIMIT/OFFSET; aggregate selects merge partial
//     aggregates (COUNT/SUM/TOTAL/MIN/MAX/GROUP_CONCAT sum or compare,
//     AVG is rewritten per shard into TOTAL+COUNT). Cross-shard GROUP BY
//     must project its grouping keys; HAVING is not supported across
//     shards.
//   - SELECTs not touching the routed table round-robin across shards
//     (non-routed tables are replicated: every write to them
//     broadcasts).
//   - INSERTs on the routed table split row-by-row on the routing value;
//     UPDATE/DELETE with a `RouteColumn = <const>` conjunct run on one
//     shard, otherwise they broadcast. DDL broadcasts.
//
// Commit-window visibility: Exec returns only after its statements are
// committed and the shard epoch has advanced, so a subsequent read —
// from any replica — observes them (read-your-writes). Replicas refresh
// from the sealed file when their epoch is stale.
//
// With Shards=1, Replicas=1 and NoGroupCommit=true the Service degrades
// to an exact pass-through of a sequential DB: same statements, same
// enclave crossings, same counters.
type Service struct {
	cfg  ShardConfig
	base Config // defaulted Base, shared by writers and replicas

	shards []*shard
	rr     atomic.Int64

	schemaMu  sync.RWMutex
	routeAff  litedb.Type
	routeIdx  int
	routeCols []string

	stats serviceCounters
}

// ShardConfig configures a sharded service.
type ShardConfig struct {
	// Base is the per-shard database configuration; shard i stores its
	// partition in "<Path>.s<i>" (just Path when Shards is 1) on the
	// shared HostFS. In-memory databases cannot be sharded.
	Base Config
	// Shards is the number of hash partitions (default 1).
	Shards int
	// Replicas is the number of serving handles per shard, including
	// the writer (default 1: all reads go through the writer handle).
	Replicas int
	// RouteTable/RouteColumn name the partitioned table and its routing
	// column. Required when Shards > 1.
	RouteTable  string
	RouteColumn string
	// NoGroupCommit executes writes synchronously on the caller, one
	// autocommit transaction each — the fidelity configuration. Off, the
	// batching is opportunistic: whatever queued while the previous
	// commit flushed forms the next batch, up to maxBatch requests.
	NoGroupCommit bool
}

// maxBatch caps the requests one group commit carries.
const maxBatch = 32

// ServiceStats is a point-in-time snapshot of routing counters.
type ServiceStats struct {
	Shards           int
	PointReads       []int64 // per-shard single-shard SELECTs
	FanOuts          int64   // cross-shard scatter-gather SELECTs
	RoundRobinReads  int64   // non-routed-table SELECTs
	Writes           int64
	Broadcasts       int64 // statements sent to every shard
	GroupCommits     int64 // batches committed
	GroupedStmts     int64 // statements carried by those batches
	GroupFallbacks   int64 // batches re-run statement-by-statement
	ReplicaRefreshes int64 // stale replicas revalidated in place against their sealed file
}

type serviceCounters struct {
	pointReads     []int64
	fanOuts        int64
	rrReads        int64
	writes         int64
	broadcasts     int64
	groupCommits   int64
	groupedStmts   int64
	groupFallbacks int64
	refreshes      int64
}

type writeResp struct {
	n   int64
	err error
}

// writeReq is one unit on a shard's group-commit queue: either a
// pre-split INSERT (ins) or statement stmtIdx of the raw text (all of it
// when stmtIdx is -1).
type writeReq struct {
	sql     string
	stmtIdx int
	ins     *litedb.InsertStmt
	args    []Value
	resp    chan writeResp
}

// servHandle is one serving slot: the writer (handle 0) or a lazily
// opened snapshot clone. mu is the true exclusivity lock; the shard's
// free-list channel is only the dispenser.
type servHandle struct {
	mu     sync.Mutex
	db     *DB
	epoch  int64
	writer bool
}

type shard struct {
	svc     *Service
	idx     int
	writer  *DB
	wh      *servHandle
	handles chan *servHandle
	// epoch counts committed write batches; replicas compare it to
	// decide whether their sealed-file snapshot is stale. Advanced only
	// under storageMu's write lock.
	epoch atomic.Int64
	// storageMu serialises sealed-file mutation (commit flushes) against
	// replica reads and refreshes of the same untrusted file.
	storageMu sync.RWMutex
	wq        chan *writeReq
	done      chan struct{}
}

// OpenService builds the shard workers and starts their commit queues.
func OpenService(cfg ShardConfig) (*Service, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Shards > 1 && (cfg.RouteTable == "" || cfg.RouteColumn == "") {
		return nil, fmt.Errorf("tsql: a sharded service needs RouteTable and RouteColumn")
	}
	base := cfg.Base
	if base.Path == "" {
		base.Path = "trusted.db"
	}
	if base.Path == litedb.MemoryDBName {
		return nil, fmt.Errorf("tsql: a Service needs a file-backed database")
	}
	if base.HostFS == nil {
		base.HostFS = hostfs.NewMemFS()
	}
	if cfg.Replicas > 1 {
		// Snapshot clones refresh from the sealed file while the writer
		// stays live, so every commit must reach the host bytes — not
		// just the writer's in-enclave caches — when it completes.
		base.sync = litedb.SyncNormal
	}
	s := &Service{cfg: cfg, base: base}
	s.stats.pointReads = make([]int64, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		scfg := base
		scfg.Path = shardPath(base.Path, i, cfg.Shards)
		w, err := Open(scfg)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("tsql: shard %d: %w", i, err)
		}
		sh := &shard{svc: s, idx: i, writer: w}
		sh.wh = &servHandle{db: w, writer: true}
		sh.handles = make(chan *servHandle, cfg.Replicas)
		sh.handles <- sh.wh
		for r := 1; r < cfg.Replicas; r++ {
			sh.handles <- &servHandle{}
		}
		if !cfg.NoGroupCommit {
			sh.wq = make(chan *writeReq, 256)
			sh.done = make(chan struct{})
			go sh.commitLoop()
		}
		s.shards = append(s.shards, sh)
	}
	s.refreshRouteSchema()
	return s, nil
}

func shardPath(path string, i, n int) string {
	if n == 1 {
		return path
	}
	return fmt.Sprintf("%s.s%d", path, i)
}

// refreshRouteSchema re-reads the routed table's declared columns from
// shard 0 (all shards share DDL); called at open and after DDL.
func (s *Service) refreshRouteSchema() {
	if s.cfg.RouteTable == "" {
		return
	}
	sh := s.shards[0]
	sh.storageMu.RLock()
	ldb := sh.writer.edb.DB
	aff, affOK := ldb.ColumnAffinity(s.cfg.RouteTable, s.cfg.RouteColumn)
	cols, _ := ldb.TableColumns(s.cfg.RouteTable)
	sh.storageMu.RUnlock()

	s.schemaMu.Lock()
	defer s.schemaMu.Unlock()
	if affOK {
		s.routeAff = aff
	} else {
		s.routeAff = litedb.Null
	}
	s.routeIdx = -1
	s.routeCols = cols
	for i, c := range cols {
		if strings.EqualFold(c, s.cfg.RouteColumn) {
			s.routeIdx = i
		}
	}
}

// shardOf maps a routing value to its partition: affinity-coerced (so
// '17' and 17 land together when the column is INTEGER), record-encoded,
// FNV-1a hashed, then avalanche-mixed. The finalizer matters: reduced
// modulo a small shard count, raw FNV-1a keeps the last input byte's
// parity in its low bit, so an all-even key set would collapse onto one
// partition.
func (s *Service) shardOf(v Value) int {
	s.schemaMu.RLock()
	aff := s.routeAff
	s.schemaMu.RUnlock()
	v = litedb.ApplyAffinity(v, aff)
	h := fnv.New64a()
	h.Write(litedb.EncodeRecord(nil, []Value{v}))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(len(s.shards)))
}

// --- serving handles ---

// checkout acquires a serving handle from the dispenser and locks it.
func (sh *shard) checkout() *servHandle {
	h := <-sh.handles
	h.mu.Lock()
	return h
}

func (sh *shard) checkin(h *servHandle) {
	h.mu.Unlock()
	sh.handles <- h
}

// ensureFresh lazily opens a snapshot clone, or revalidates a stale one
// against the sealed file in place (core.EmbeddedDB.Refresh: one enclave
// crossing, and only what the commits changed is read again). The caller
// must hold storageMu.RLock: the staleness decision and the read it
// licenses have to sit under the same lock hold, or a commit can re-key
// the sealed file in between and the replica's open cursors fail
// integrity checks. A refresh that fails leaves the handle's epoch stale,
// so the next read tries again before it serves anything.
func (sh *shard) ensureFresh(h *servHandle) error {
	if h.db == nil {
		cfg := sh.svc.base
		cfg.Path = shardPath(sh.svc.base.Path, sh.idx, len(sh.svc.shards))
		db, err := Open(cfg)
		if err != nil {
			return err
		}
		h.db, h.epoch = db, sh.epoch.Load()
		return nil
	}
	if !h.writer && h.epoch != sh.epoch.Load() {
		if err := h.db.edb.Refresh(); err != nil {
			return err
		}
		h.epoch = sh.epoch.Load()
		atomic.AddInt64(&sh.svc.stats.refreshes, 1)
	}
	return nil
}

// readOn runs one read-only sub-request on a shard: checkout, then
// refresh-check and query under one storage read-lock hold.
func (s *Service) readOn(idx int, fn func(db *DB) (*Rows, error)) (*Rows, error) {
	sh := s.shards[idx]
	h := sh.checkout()
	defer sh.checkin(h)
	sh.storageMu.RLock()
	defer sh.storageMu.RUnlock()
	if err := sh.ensureFresh(h); err != nil {
		return nil, err
	}
	return fn(h.db)
}

// --- reads ---

// Query routes a single SELECT (or PRAGMA) through the shard tier.
func (s *Service) Query(sql string, args ...Value) (*Rows, error) {
	stmts, err := litedb.ParseAll(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("tsql: Query expects exactly one statement")
	}
	switch st := stmts[0].(type) {
	case *litedb.SelectStmt:
		return s.routeSelect(sql, st, args)
	case *litedb.PragmaStmt:
		return s.readOn(0, func(db *DB) (*Rows, error) { return db.Query(sql, args...) })
	default:
		return nil, fmt.Errorf("tsql: Query expects a SELECT or PRAGMA")
	}
}

// QueryRow runs a query expected to produce one row (nil if none).
func (s *Service) QueryRow(sql string, args ...Value) ([]Value, error) {
	rows, err := s.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	if !rows.Next() {
		return nil, nil
	}
	return rows.Row(), nil
}

func (s *Service) routeSelect(sql string, st *litedb.SelectStmt, args []Value) (*Rows, error) {
	if len(s.shards) == 1 {
		atomic.AddInt64(&s.stats.pointReads[0], 1)
		return s.readOn(0, func(db *DB) (*Rows, error) { return db.Query(sql, args...) })
	}
	if idx, ok := s.pointShard(st, args); ok {
		atomic.AddInt64(&s.stats.pointReads[idx], 1)
		return s.readOn(idx, func(db *DB) (*Rows, error) { return db.Query(sql, args...) })
	}
	if !s.referencesRouteTable(st) {
		atomic.AddInt64(&s.stats.rrReads, 1)
		idx := int(s.rr.Add(1)-1) % len(s.shards)
		return s.readOn(idx, func(db *DB) (*Rows, error) { return db.Query(sql, args...) })
	}
	atomic.AddInt64(&s.stats.fanOuts, 1)
	return s.fanout(sql, st, args)
}

func (s *Service) referencesRouteTable(st *litedb.SelectStmt) bool {
	for _, ref := range st.From {
		if strings.EqualFold(ref.Name, s.cfg.RouteTable) {
			return true
		}
	}
	return false
}

// conjunctsOf flattens the AND tree of a WHERE clause.
func conjunctsOf(e litedb.Expr, out []litedb.Expr) []litedb.Expr {
	if b, ok := e.(*litedb.Binary); ok && b.Op == "AND" {
		out = conjunctsOf(b.L, out)
		return conjunctsOf(b.R, out)
	}
	if e != nil {
		out = append(out, e)
	}
	return out
}

// routeValueIn finds a `RouteColumn = <const>` conjunct and returns the
// evaluated routing value. tblNames are the names the routed table is
// visible under ("" entries are skipped).
func (s *Service) routeValueIn(where litedb.Expr, args []Value, tblNames ...string) (Value, bool) {
	for _, c := range conjunctsOf(where, nil) {
		b, ok := c.(*litedb.Binary)
		if !ok || b.Op != "=" {
			continue
		}
		for _, side := range [2][2]litedb.Expr{{b.L, b.R}, {b.R, b.L}} {
			cr, ok := side[0].(*litedb.ColRef)
			if !ok || !strings.EqualFold(cr.Col, s.cfg.RouteColumn) {
				continue
			}
			if cr.Table != "" {
				match := false
				for _, n := range tblNames {
					if n != "" && strings.EqualFold(cr.Table, n) {
						match = true
					}
				}
				if !match {
					continue
				}
			}
			v, err := litedb.EvalConst(side[1], args)
			if err != nil {
				continue
			}
			return v, true
		}
	}
	return Value{}, false
}

// pointShard reports the single shard a SELECT can be answered on: FROM
// is exactly the routed table and WHERE pins the routing column.
func (s *Service) pointShard(st *litedb.SelectStmt, args []Value) (int, bool) {
	if s.cfg.RouteTable == "" || len(st.From) != 1 ||
		!strings.EqualFold(st.From[0].Name, s.cfg.RouteTable) {
		return 0, false
	}
	v, ok := s.routeValueIn(st.Where, args, st.From[0].Alias, st.From[0].Name)
	if !ok {
		return 0, false
	}
	return s.shardOf(v), true
}

// --- writes ---

// Exec routes one or more statements through the write tier, returning
// the affected-row count of the last one. Transaction control statements
// are rejected: the group-commit queue owns transaction boundaries.
func (s *Service) Exec(sql string, args ...Value) (int64, error) {
	stmts, err := litedb.ParseAll(sql)
	if err != nil {
		return 0, err
	}
	if len(stmts) == 0 {
		return 0, nil
	}
	for _, st := range stmts {
		switch st.(type) {
		case *litedb.BeginStmt, *litedb.CommitStmt, *litedb.RollbackStmt:
			return 0, fmt.Errorf("tsql: the service owns transaction boundaries; batch statements in one Exec instead")
		}
	}
	atomic.AddInt64(&s.stats.writes, 1)
	if len(s.shards) == 1 {
		// Whole text as one unit: with batching off this is exactly the
		// sequential DB.Exec crossing pattern.
		resp := s.submit(0, &writeReq{sql: sql, stmtIdx: -1, args: args})
		r := <-resp
		return r.n, r.err
	}
	var affected int64
	ddl := false
	for i, st := range stmts {
		n, isDDL, err := s.execOne(sql, i, st, args)
		if err != nil {
			return affected, err
		}
		affected = n
		ddl = ddl || isDDL
	}
	if ddl {
		s.refreshRouteSchema()
	}
	return affected, nil
}

// execOne routes one statement of a (possibly multi-statement) text.
func (s *Service) execOne(sql string, idx int, st litedb.Stmt, args []Value) (int64, bool, error) {
	routed := func(tbl string) bool { return strings.EqualFold(tbl, s.cfg.RouteTable) }
	switch t := st.(type) {
	case *litedb.InsertStmt:
		if routed(t.Table) {
			n, err := s.execRoutedInsert(t, args)
			return n, false, err
		}
		n, err := s.broadcast(sql, idx, args, false)
		return n, false, err
	case *litedb.UpdateStmt:
		if routed(t.Table) {
			for _, set := range t.Sets {
				if strings.EqualFold(set.Col, s.cfg.RouteColumn) {
					return 0, false, fmt.Errorf("tsql: UPDATE may not change the routing column %s (rows would cross shards)", s.cfg.RouteColumn)
				}
			}
			if v, ok := s.routeValueIn(t.Where, args, t.Table); ok {
				resp := s.submit(s.shardOf(v), &writeReq{sql: sql, stmtIdx: idx, args: args})
				r := <-resp
				return r.n, false, r.err
			}
			n, err := s.broadcast(sql, idx, args, true)
			return n, false, err
		}
		n, err := s.broadcast(sql, idx, args, false)
		return n, false, err
	case *litedb.DeleteStmt:
		if routed(t.Table) {
			if v, ok := s.routeValueIn(t.Where, args, t.Table); ok {
				resp := s.submit(s.shardOf(v), &writeReq{sql: sql, stmtIdx: idx, args: args})
				r := <-resp
				return r.n, false, r.err
			}
			n, err := s.broadcast(sql, idx, args, true)
			return n, false, err
		}
		n, err := s.broadcast(sql, idx, args, false)
		return n, false, err
	case *litedb.SelectStmt:
		// Exec of a SELECT has no effect; run it on shard 0 for parity.
		_, err := s.readOn(0, func(db *DB) (*Rows, error) { return db.edb.QueryStmt(t, args...) })
		return 0, false, err
	case *litedb.CreateTableStmt, *litedb.CreateIndexStmt, *litedb.DropStmt, *litedb.AlterStmt:
		n, err := s.broadcast(sql, idx, args, false)
		return n, true, err
	default: // PRAGMA, ANALYZE, VACUUM
		n, err := s.broadcast(sql, idx, args, false)
		return n, false, err
	}
}

// execRoutedInsert splits a multi-row INSERT on the routing value and
// submits each slice to its shard's commit queue.
func (s *Service) execRoutedInsert(t *litedb.InsertStmt, args []Value) (int64, error) {
	if t.Select != nil {
		return 0, fmt.Errorf("tsql: INSERT ... SELECT is not supported on the routed table")
	}
	s.schemaMu.RLock()
	pos := s.routeIdx
	s.schemaMu.RUnlock()
	if len(t.Cols) > 0 {
		pos = -1
		for i, c := range t.Cols {
			if strings.EqualFold(c, s.cfg.RouteColumn) {
				pos = i
			}
		}
	}
	if pos < 0 {
		return 0, fmt.Errorf("tsql: INSERT on %s must supply the routing column %s", t.Table, s.cfg.RouteColumn)
	}
	buckets := make(map[int][][]litedb.Expr)
	for _, row := range t.Rows {
		if pos >= len(row) {
			return 0, fmt.Errorf("tsql: INSERT row has no value for the routing column")
		}
		v, err := litedb.EvalConst(row[pos], args)
		if err != nil {
			return 0, fmt.Errorf("tsql: routing value must be a constant expression: %w", err)
		}
		buckets[s.shardOf(v)] = append(buckets[s.shardOf(v)], row)
	}
	var waits []chan writeResp
	for idx, rows := range buckets {
		ins := &litedb.InsertStmt{Table: t.Table, Cols: t.Cols, Rows: rows, OrReplace: t.OrReplace}
		waits = append(waits, s.submit(idx, &writeReq{ins: ins, args: args}))
	}
	var total int64
	var first error
	for _, w := range waits {
		r := <-w
		total += r.n
		if first == nil && r.err != nil {
			first = r.err
		}
	}
	return total, first
}

// broadcast submits one statement to every shard. sum reports the summed
// affected count (disjoint routed-table partitions); otherwise shard 0's
// count stands for the replicated table.
func (s *Service) broadcast(sql string, idx int, args []Value, sum bool) (int64, error) {
	atomic.AddInt64(&s.stats.broadcasts, 1)
	waits := make([]chan writeResp, len(s.shards))
	for i := range s.shards {
		waits[i] = s.submit(i, &writeReq{sql: sql, stmtIdx: idx, args: args})
	}
	var total int64
	var first error
	for i, w := range waits {
		r := <-w
		if sum {
			total += r.n
		} else if i == 0 {
			total = r.n
		}
		if first == nil && r.err != nil {
			first = r.err
		}
	}
	return total, first
}

// submit hands a write to a shard: onto the group-commit queue, or — with
// batching off — executed synchronously on the caller.
func (s *Service) submit(idx int, r *writeReq) chan writeResp {
	r.resp = make(chan writeResp, 1)
	sh := s.shards[idx]
	if s.cfg.NoGroupCommit {
		sh.execDirect(r)
		return r.resp
	}
	sh.wq <- r
	return r.resp
}

// parseReq resolves a request's statements on the executor side: shards
// never share ASTs (binding mutates them), so text requests re-parse and
// pre-split inserts travel as exclusive statement values.
func parseReq(r *writeReq) ([]litedb.Stmt, error) {
	if r.ins != nil {
		return []litedb.Stmt{r.ins}, nil
	}
	stmts, err := litedb.ParseAll(r.sql)
	if err != nil {
		return nil, err
	}
	if r.stmtIdx >= 0 {
		if r.stmtIdx >= len(stmts) {
			return nil, fmt.Errorf("tsql: statement index out of range")
		}
		return stmts[r.stmtIdx : r.stmtIdx+1], nil
	}
	return stmts, nil
}

// execDirect is the batching-off write path: one autocommit unit per
// request, executed under the writer handle like a sequential DB.
func (sh *shard) execDirect(r *writeReq) {
	sh.wh.mu.Lock()
	sh.storageMu.Lock()
	var n int64
	var err error
	if r.ins != nil {
		n, err = sh.writer.edb.ExecStmt(r.ins, r.args...)
	} else if r.stmtIdx < 0 {
		n, err = sh.writer.edb.Exec(r.sql, r.args...)
	} else {
		var stmts []litedb.Stmt
		stmts, err = parseReq(r)
		if err == nil {
			n, err = sh.writer.edb.ExecStmt(stmts[0], r.args...)
		}
	}
	sh.epoch.Add(1)
	sh.storageMu.Unlock()
	sh.wh.mu.Unlock()
	r.resp <- writeResp{n, err}
}

// commitLoop drains the shard's write queue into group commits. The
// batching is opportunistic: everything that queued while the previous
// batch flushed forms the next one.
func (sh *shard) commitLoop() {
	for {
		var first *writeReq
		select {
		case first = <-sh.wq:
		case <-sh.done:
			return
		}
		batch := []*writeReq{first}
	drain:
		for len(batch) < maxBatch {
			select {
			case r := <-sh.wq:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		sh.commitBatch(batch)
	}
}

// commitBatch executes a batch as BEGIN..COMMIT inside ONE enclave
// crossing — one switchless protected-FS flush for the whole window. A
// failing statement rolls the batch back and every request re-runs in
// its own enclave crossing, each statement an autocommit unit, so one
// bad write cannot poison its batchmates.
func (sh *shard) commitBatch(batch []*writeReq) {
	svc := sh.svc
	atomic.AddInt64(&svc.stats.groupCommits, 1)
	atomic.AddInt64(&svc.stats.groupedStmts, int64(len(batch)))

	parsed := make([][]litedb.Stmt, len(batch))
	live := batch[:0:0]
	for _, r := range batch {
		stmts, err := parseReq(r)
		if err != nil {
			r.resp <- writeResp{0, err}
			continue
		}
		parsed[len(live)] = stmts
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}

	runIn := func(db *litedb.DB, i int, r *writeReq) (int64, error) {
		var last int64
		for _, st := range parsed[i] {
			n, err := db.ExecStmt(st, r.args...)
			if err != nil {
				return last, err
			}
			last = n
		}
		return last, nil
	}

	ns := make([]int64, len(live))
	sh.wh.mu.Lock()
	sh.storageMu.Lock()

	var stmtErr error
	err := sh.writer.edb.Batch(func(db *litedb.DB) error {
		if _, err := db.Exec("BEGIN"); err != nil {
			return err
		}
		for i, r := range live {
			n, err := runIn(db, i, r)
			if err != nil {
				stmtErr = err
				_, _ = db.Exec("ROLLBACK")
				return nil
			}
			ns[i] = n
		}
		_, err := db.Exec("COMMIT")
		return err
	})

	if err == nil && stmtErr == nil {
		sh.epoch.Add(1)
		sh.storageMu.Unlock()
		sh.wh.mu.Unlock()
		for i, r := range live {
			r.resp <- writeResp{ns[i], nil}
		}
		return
	}

	// Fallback: the batch aborted — re-run each request alone so only
	// the genuinely failing ones report errors.
	atomic.AddInt64(&svc.stats.groupFallbacks, 1)
	resps := make([]writeResp, len(live))
	for i, r := range live {
		var n int64
		rerr := sh.writer.edb.Batch(func(db *litedb.DB) (err error) {
			n, err = runIn(db, i, r)
			return err
		})
		resps[i] = writeResp{n, rerr}
	}
	sh.epoch.Add(1)
	sh.storageMu.Unlock()
	sh.wh.mu.Unlock()
	for i, r := range live {
		r.resp <- resps[i]
	}
}

// --- lifecycle ---

// Stats snapshots the routing counters.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{
		Shards:           len(s.shards),
		PointReads:       make([]int64, len(s.stats.pointReads)),
		FanOuts:          atomic.LoadInt64(&s.stats.fanOuts),
		RoundRobinReads:  atomic.LoadInt64(&s.stats.rrReads),
		Writes:           atomic.LoadInt64(&s.stats.writes),
		Broadcasts:       atomic.LoadInt64(&s.stats.broadcasts),
		GroupCommits:     atomic.LoadInt64(&s.stats.groupCommits),
		GroupedStmts:     atomic.LoadInt64(&s.stats.groupedStmts),
		GroupFallbacks:   atomic.LoadInt64(&s.stats.groupFallbacks),
		ReplicaRefreshes: atomic.LoadInt64(&s.stats.refreshes),
	}
	for i := range s.stats.pointReads {
		st.PointReads[i] = atomic.LoadInt64(&s.stats.pointReads[i])
	}
	return st
}

// Shard exposes a shard's writer DB (tests and stats probes).
func (s *Service) Shard(i int) *DB { return s.shards[i].writer }

// Close stops the commit queues and closes every handle. Callers must
// have drained their own in-flight requests first.
func (s *Service) Close() error {
	var first error
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
		if sh.done != nil {
			close(sh.done)
		}
		for i := 0; i < cap(sh.handles); i++ {
			h := <-sh.handles
			if h.db == nil || h.writer {
				continue
			}
			if err := h.db.edb.Release(); err != nil && first == nil {
				first = err
			}
			h.db.rt.Enclave.Destroy()
		}
		if err := sh.writer.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
