package core

import (
	"fmt"

	"twine/internal/litedb"
	"twine/internal/wasm"
	"twine/wasmgen"
)

// Embedded database support: TWINE's showcase application is SQLite run as
// a Wasm module (§V). The reproduction's database engine executes against
// the runtime's sandboxed linear memory and WASI layer (README
// "Architecture map"): the page cache lives inside guest memory, and all
// file I/O passes through the registered wasi_snapshot_preview1 host
// functions. A handle lives as long as its instance: when another enclave
// commits to the same sealed file the handle is revalidated in place
// (Refresh), never rebuilt.

// EmbeddedDB bundles the shim instance and the database handle.
type EmbeddedDB struct {
	rt   *Runtime
	inst *Instance
	In   *wasm.Instance
	DB   *litedb.DB
}

// DBConfig sizes an embedded database.
type DBConfig struct {
	// Name is the database file name (litedb.MemoryDBName for in-memory).
	Name string
	// CachePages is the page-cache size (default 2,048 = 8 MiB).
	CachePages int
	// Sync/Journal mirror the litedb options.
	Sync    litedb.SyncMode
	Journal litedb.JournalMode
	// MemVFS forces a purely in-memory database whose backing store is
	// still charged against the enclave (Figure 5's in-memory variants).
	MemVFS bool
}

// shimModule builds the guest module whose linear memory hosts the
// database buffers.
func shimModule(pages uint32) []byte {
	m := wasmgen.NewModule()
	m.Memory(pages, pages)
	f := m.Func(wasmgen.Sig())
	f.End()
	m.Export("_start", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// scratchBytes is the WASI marshal window size.
const scratchBytes = 128 << 10

// OpenDB opens a database inside the runtime: guest memory is allocated
// in the enclave, the page cache is placed in it, and I/O flows through
// WASI to the configured backend (IPFS or host POSIX).
func (rt *Runtime) OpenDB(cfg DBConfig) (*EmbeddedDB, error) {
	if cfg.CachePages <= 0 {
		cfg.CachePages = litedb.DefaultCachePages
	}
	// The guest's linear memory holds the marshal window plus the page
	// cache, and two 64 KiB pages of slack.
	guestPages := uint32((cfg.CachePages*litedb.PageSize+scratchBytes+wasm.PageSize-1)/wasm.PageSize) + 2
	mod, err := rt.LoadModule(shimModule(guestPages))
	if err != nil {
		return nil, fmt.Errorf("twine: shim module: %w", err)
	}
	inst, err := rt.NewInstance(mod)
	if err != nil {
		return nil, err
	}

	store, err := litedb.NewSandboxStore(inst.In.Memory(), scratchBytes, cfg.CachePages)
	if err != nil {
		return nil, err
	}

	var vfs litedb.VFS
	if cfg.MemVFS || cfg.Name == litedb.MemoryDBName {
		// In-memory database: backing bytes are charged against the
		// enclave through the touch hook (they live in guest address
		// space conceptually).
		mv := litedb.NewMemVFS()
		base := inst.arena
		mem := rt.Enclave.Memory()
		limit := mem.Size() - base
		mv.Touch = func(off, n int64) {
			if off < 0 {
				return
			}
			if off+n > limit {
				off = (off + n) % limit
				n = 1
			}
			_ = mem.Touch(base+off, n)
		}
		vfs = mv
		cfg.Journal = litedb.JournalMemory
	} else {
		wvfs, err := litedb.NewWASIVFS(rt.Imports, inst.In, 0, scratchBytes)
		if err != nil {
			return nil, err
		}
		vfs = wvfs
	}

	edb := &EmbeddedDB{rt: rt, inst: inst, In: inst.In}
	var db *litedb.DB
	err = edb.rt.Enclave.ECall("twine_db_open", func() error {
		var oerr error
		db, oerr = litedb.Open(vfs, cfg.Name, litedb.Options{
			CachePages: cfg.CachePages,
			Store:      store,
			Sync:       cfg.Sync,
			Journal:    cfg.Journal,
		})
		return oerr
	})
	if err != nil {
		return nil, err
	}
	edb.DB = db
	return edb, nil
}

// Refresh brings the handle up to date with commits another handle (in
// another enclave of the same platform) made to the same sealed file, in
// ONE enclave crossing and in place: same instance, arena, page store,
// VFS and descriptor. The protected file re-authenticates its metadata
// node and diffs the Merkle tree against what it has cached, the pager
// drops the pages that changed, the catalog reloads if the schema moved
// (litedb.DB.Refresh). Snapshot-cloned read replicas call it when their
// shard's commit epoch has moved.
func (e *EmbeddedDB) Refresh() error {
	return e.rt.Enclave.ECall("twine_db_refresh", func() error { return e.DB.Refresh() })
}

// Exec runs SQL inside the enclave.
func (e *EmbeddedDB) Exec(sql string, args ...litedb.Value) (int64, error) {
	var n int64
	err := e.rt.Enclave.ECall("twine_db_exec", func() error {
		var xerr error
		n, xerr = e.DB.Exec(sql, args...)
		return xerr
	})
	return n, err
}

// Query runs a SELECT inside the enclave.
func (e *EmbeddedDB) Query(sql string, args ...litedb.Value) (*litedb.Rows, error) {
	var rows *litedb.Rows
	err := e.rt.Enclave.ECall("twine_db_query", func() error {
		var qerr error
		rows, qerr = e.DB.Query(sql, args...)
		return qerr
	})
	return rows, err
}

// ExecStmt runs one pre-parsed statement inside the enclave.
func (e *EmbeddedDB) ExecStmt(st litedb.Stmt, args ...litedb.Value) (int64, error) {
	var n int64
	err := e.rt.Enclave.ECall("twine_db_exec", func() error {
		var xerr error
		n, xerr = e.DB.ExecStmt(st, args...)
		return xerr
	})
	return n, err
}

// QueryStmt runs one pre-parsed SELECT (or PRAGMA) inside the enclave.
func (e *EmbeddedDB) QueryStmt(st litedb.Stmt, args ...litedb.Value) (*litedb.Rows, error) {
	var rows *litedb.Rows
	err := e.rt.Enclave.ECall("twine_db_query", func() error {
		var qerr error
		rows, qerr = e.DB.QueryStmt(st, args...)
		return qerr
	})
	return rows, err
}

// Batch runs fn against the database inside ONE enclave crossing, so a
// group-committed transaction — BEGIN, every batched statement, COMMIT —
// pays a single ECall and a single protected-FS flush on exit. This is
// the shard service's write path.
func (e *EmbeddedDB) Batch(fn func(db *litedb.DB) error) error {
	return e.rt.Enclave.ECall("twine_db_batch", func() error { return fn(e.DB) })
}

// Close closes the database inside the enclave.
func (e *EmbeddedDB) Close() error {
	return e.rt.Enclave.ECall("twine_db_close", func() error { return e.DB.Close() })
}

// Release closes the database and frees the shim instance's arena.
func (e *EmbeddedDB) Release() error {
	err := e.Close()
	if rerr := e.inst.Release(); err == nil {
		err = rerr
	}
	return err
}

// --- streaming queries ---

// streamBatch is how many rows one fetch ECall pulls from the in-enclave
// cursor: large enough to amortise the crossing, small enough to keep the
// host-side buffer bounded.
const streamBatch = 128

// DBStream is a streaming cursor over an embedded database query. Rows
// are produced by a litedb.RowIter inside the enclave and pulled across
// the boundary in batches of streamBatch rows, so the host never holds a
// full result set. The handle must not run other statements until the
// stream is closed.
type DBStream struct {
	e    *EmbeddedDB
	it   *litedb.RowIter
	buf  [][]litedb.Value
	pos  int
	cur  []litedb.Value
	err  error
	done bool
}

// QueryStream starts a streaming query inside the enclave.
func (e *EmbeddedDB) QueryStream(sql string, args ...litedb.Value) (*DBStream, error) {
	var it *litedb.RowIter
	err := e.rt.Enclave.ECall("twine_db_query", func() error {
		var qerr error
		it, qerr = e.DB.QueryIter(sql, args...)
		return qerr
	})
	if err != nil {
		return nil, err
	}
	return &DBStream{e: e, it: it}, nil
}

// Cols returns the result column names.
func (s *DBStream) Cols() []string { return s.it.Cols() }

// Next advances to the next row, refilling from the enclave cursor when
// the host-side batch is exhausted.
func (s *DBStream) Next() bool {
	if s.pos < len(s.buf) {
		s.cur = s.buf[s.pos]
		s.pos++
		return true
	}
	if s.done || s.err != nil {
		return false
	}
	s.buf = s.buf[:0]
	s.pos = 0
	err := s.e.rt.Enclave.ECall("twine_db_fetch", func() error {
		for len(s.buf) < streamBatch {
			if !s.it.Next() {
				s.done = true
				return s.it.Err()
			}
			s.buf = append(s.buf, s.it.Row())
		}
		return nil
	})
	if err != nil {
		s.err = err
		return false
	}
	if len(s.buf) == 0 {
		return false
	}
	s.cur = s.buf[0]
	s.pos = 1
	return true
}

// Row returns the current row after Next reported true.
func (s *DBStream) Row() []litedb.Value { return s.cur }

// Err returns the error that terminated the stream, if any.
func (s *DBStream) Err() error { return s.err }

// MaxBuffered reports the bounded-memory guarantee: the host-side refill
// batch. The in-enclave cursor hands rows over one at a time and holds none.
func (s *DBStream) MaxBuffered() int64 { return streamBatch }

// Close stops the in-enclave producer and frees the handle for the next
// statement.
func (s *DBStream) Close() error {
	err := s.e.rt.Enclave.ECall("twine_db_fetch", func() error { return s.it.Close() })
	if s.err == nil && err != nil {
		s.err = err
	}
	return s.err
}
