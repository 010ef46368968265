// Package tsql is the paper's flagship application as a library: a
// trusted, full SQL database running inside a TWINE enclave. Data is
// encrypted and integrity-protected by the Intel protected file system
// before it reaches the untrusted host; queries — including the query
// compiler and optimiser — execute entirely inside the enclave (§II,
// "by running a complete Wasm binary, pre-compiled queries as well as the
// query compiler and optimiser are executed inside SGX enclaves").
//
//	db, err := tsql.Open(tsql.Config{Path: "ledger.db"})
//	defer db.Close()
//	db.Exec(`CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance INTEGER)`)
//	db.Exec(`INSERT INTO accounts (balance) VALUES (?)`, tsql.Int(100))
//	rows, err := db.Query(`SELECT SUM(balance) FROM accounts`)
//
// For serving at scale, OpenService shards one logical database across
// enclave workers with snapshot-cloned read replicas and group-committed
// writes; see Service for the routing and visibility semantics.
package tsql

import (
	"fmt"

	"twine/internal/core"
	"twine/internal/hostfs"
	"twine/internal/ipfs"
	"twine/internal/litedb"
	"twine/internal/sgx"
)

// Value is a SQL value.
type Value = litedb.Value

// Rows is a materialised result set.
type Rows = litedb.Rows

// Value constructors.
var (
	Int  = litedb.IntVal
	Real = litedb.RealVal
	Text = litedb.TextVal
	Blob = litedb.BlobVal
	Null = litedb.NullVal
)

// Config opens a trusted database.
type Config struct {
	// Path is the database file name on the untrusted host
	// (":memory:" for a purely in-enclave database).
	Path string
	// HostFS is the untrusted storage (default: in-memory FS). Use
	// twine.NewDirHostFS to persist to a real directory.
	HostFS hostfs.FS
	// CacheKiB is the page-cache size (default 8,192 KiB, the paper's
	// SQLite configuration).
	CacheKiB int
	// PlatformSeed selects the simulated CPU identity; databases sealed
	// by one platform cannot be opened on another.
	PlatformSeed string
	// StandardIPFS runs Intel's stock protected-FS behaviour instead of
	// the paper's §V-F optimisation (default false: optimised).
	StandardIPFS bool
	// SGX overrides the enclave geometry (zero = paper defaults).
	SGX sgx.Config

	// sync overrides the pager's sync mode (zero: SyncOff, the paper's
	// benchmark setting). The shard service raises it on writers whose
	// sealed files are read by live replicas: a snapshot clone can
	// only refresh from commits that were made durable on the host.
	sync litedb.SyncMode
}

// DB is a trusted database handle. Not safe for concurrent use.
type DB struct {
	rt  *core.Runtime
	edb *core.EmbeddedDB
}

// Open builds the enclave, the protected file system and the database.
func Open(cfg Config) (*DB, error) {
	if cfg.Path == "" {
		cfg.Path = "trusted.db"
	}
	if cfg.CacheKiB <= 0 {
		cfg.CacheKiB = litedb.DefaultCachePages * litedb.PageSize / 1024
	}
	mode := ipfs.ModeOptimized
	if cfg.StandardIPFS {
		mode = ipfs.ModeStandard
	}
	rt, err := core.NewRuntime(core.Config{
		PlatformSeed: cfg.PlatformSeed,
		SGX:          cfg.SGX,
		FS:           core.FSIPFS,
		IPFSMode:     mode,
		HostFS:       cfg.HostFS,
	})
	if err != nil {
		return nil, fmt.Errorf("tsql: %w", err)
	}
	edb, err := rt.OpenDB(core.DBConfig{
		Name:       cfg.Path,
		CachePages: cfg.CacheKiB * 1024 / litedb.PageSize,
		MemVFS:     cfg.Path == litedb.MemoryDBName,
		Sync:       cfg.sync,
	})
	if err != nil {
		return nil, fmt.Errorf("tsql: %w", err)
	}
	return &DB{rt: rt, edb: edb}, nil
}

// Exec runs one or more statements inside the enclave, returning the
// affected-row count of the last one.
func (db *DB) Exec(sql string, args ...Value) (int64, error) {
	return db.edb.Exec(sql, args...)
}

// Query runs a SELECT (or PRAGMA) inside the enclave.
func (db *DB) Query(sql string, args ...Value) (*Rows, error) {
	return db.edb.Query(sql, args...)
}

// RowStream is a streaming cursor over an in-enclave query: rows cross
// the boundary in batches instead of as one materialised set.
type RowStream = core.DBStream

// QueryStream runs a SELECT inside the enclave and streams its rows with
// bounded buffering — plain scans of any size never materialise; see
// litedb.RowIter for the statements that fall back. The handle must not
// run another statement until the stream is closed.
func (db *DB) QueryStream(sql string, args ...Value) (*RowStream, error) {
	return db.edb.QueryStream(sql, args...)
}

// QueryRow runs a query expected to produce one row (nil if none).
func (db *DB) QueryRow(sql string, args ...Value) ([]Value, error) {
	rows, err := db.edb.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	if !rows.Next() {
		return nil, nil
	}
	return rows.Row(), nil
}

// Runtime exposes the underlying TWINE runtime (attestation, stats).
func (db *DB) Runtime() *core.Runtime { return db.rt }

// Close flushes and closes the database.
func (db *DB) Close() error { return db.edb.Close() }
