// Package bench wires the four execution variants of the paper's SQLite
// experiments (Figures 4-6, Tables II-III) over the litedb engine:
//
//	Native   litedb on the host, direct memory, direct I/O
//	WAMR     litedb inside the Wasm sandbox (linear-memory page cache,
//	         WASI-marshalled I/O), no enclave
//	Twine    the WAMR stack inside the SGX enclave, with the Intel
//	         protected file system as the trusted backend
//	SGX-LKL  native-speed execution inside the enclave over an encrypted
//	         disk image mapped into enclave memory
//
// each in an in-memory and an on-file storage configuration.
package bench

import (
	"fmt"
	"time"

	"twine/internal/core"
	"twine/internal/hostfs"
	"twine/internal/ipfs"
	"twine/internal/litedb"
	"twine/internal/sgx"
	"twine/internal/sgxlkl"
	"twine/internal/wasi"
	"twine/internal/wasm"
	"twine/wasmgen"
)

// Variant identifies an execution stack.
type Variant int

// Variants.
const (
	Native Variant = iota
	WAMR
	Twine
	SGXLKL
)

func (v Variant) String() string {
	switch v {
	case Native:
		return "native"
	case WAMR:
		return "wamr"
	case Twine:
		return "twine"
	case SGXLKL:
		return "sgx-lkl"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Storage selects in-memory or on-file databases.
type Storage int

// Storage kinds.
const (
	Mem Storage = iota
	File
)

func (s Storage) String() string {
	if s == File {
		return "file"
	}
	return "mem"
}

// Options configures a database handle.
type Options struct {
	// CachePages is the page cache size (default 2,048 = 8 MiB, paper).
	CachePages int
	// SGX configures enclave variants (zero = DefaultConfig; tests use
	// smaller EPCs).
	SGX sgx.Config
	// SGXMode overrides hardware/simulation (Figure 6).
	SGXMode sgx.Mode
	// IPFSMode selects the standard or optimised protected FS (§V-F).
	IPFSMode ipfs.Mode
	// ImageBlocks sizes the SGX-LKL disk image (file variant).
	ImageBlocks int
	// Sync is the synchronous mode (default normal, paper).
	Sync litedb.SyncMode
	// Timings receives the Twine variant's protected-FS time attribution
	// (Figure 7); nil reads no clock.
	Timings *ipfs.Timings
}

// DB is an open benchmark database of some variant.
type DB struct {
	Variant Variant
	Storage Storage

	db      *litedb.DB
	enclave *sgx.Enclave
	rt      *core.Runtime
	edb     *core.EmbeddedDB
	lkl     *sgxlkl.Runtime
	host    *hostfs.MemFS

	// OpenTime is the time spent building the stack (Table IIIa Launch).
	OpenTime time.Duration
}

// dbName is the benchmark database file name.
const dbName = "bench.db"

// Open builds the requested variant.
func Open(v Variant, s Storage, opt Options) (*DB, error) {
	start := time.Now()
	if opt.CachePages <= 0 {
		opt.CachePages = litedb.DefaultCachePages
	}
	if opt.SGX.EPCSize == 0 {
		opt.SGX = sgx.DefaultConfig()
	}
	// The paper runs SQLite in its default "normal" synchronous mode.
	if opt.Sync == litedb.SyncOff {
		opt.Sync = litedb.SyncNormal
	}
	opt.SGX.Mode = opt.SGXMode
	h := &DB{Variant: v, Storage: s, host: hostfs.NewMemFS()}

	var err error
	switch v {
	case Native:
		err = h.openNative(s, opt)
	case WAMR:
		err = h.openWAMR(s, opt)
	case Twine:
		err = h.openTwine(s, opt)
	case SGXLKL:
		err = h.openLKL(s, opt)
	default:
		err = fmt.Errorf("bench: unknown variant %d", int(v))
	}
	if err != nil {
		return nil, fmt.Errorf("bench: open %v/%v: %w", v, s, err)
	}
	h.OpenTime = time.Since(start)
	return h, nil
}

func (h *DB) openNative(s Storage, opt Options) error {
	var vfs litedb.VFS
	name := dbName
	if s == Mem {
		vfs = litedb.NewMemVFS()
		name = litedb.MemoryDBName
	} else {
		vfs = litedb.NewHostVFS(h.host)
	}
	db, err := litedb.Open(vfs, name, litedb.Options{
		CachePages: opt.CachePages, Sync: opt.Sync,
	})
	h.db = db
	return err
}

// wamrShim builds the sandbox instance for the non-enclave Wasm variant.
func wamrShim(cachePages int, imp *wasm.ImportObject) (*wasm.Instance, litedb.PageStore, error) {
	pages := uint32((cachePages*litedb.PageSize+benchScratch+wasm.PageSize-1)/wasm.PageSize) + 2
	m := wasmgen.NewModule()
	m.Memory(pages, pages)
	f := m.Func(wasmgen.Sig())
	f.End()
	m.Export("_start", f)
	mod, err := wasm.Decode(m.Bytes())
	if err != nil {
		return nil, nil, err
	}
	c, err := wasm.Compile(mod)
	if err != nil {
		return nil, nil, err
	}
	in, err := wasm.Instantiate(c, imp, wasm.Config{})
	if err != nil {
		return nil, nil, err
	}
	store, err := litedb.NewSandboxStore(in.Memory(), benchScratch, cachePages)
	if err != nil {
		return nil, nil, err
	}
	return in, store, nil
}

const benchScratch = 128 << 10

func (h *DB) openWAMR(s Storage, opt Options) error {
	sys, err := wasi.NewSystem(wasi.Config{
		FS:       wasi.NewHostBackend(h.host, nil),
		Preopens: map[string]string{"/": ""},
	})
	if err != nil {
		return err
	}
	imp := wasm.NewImportObject()
	sys.Register(imp)
	in, store, err := wamrShim(opt.CachePages, imp)
	if err != nil {
		return err
	}
	var vfs litedb.VFS
	name := dbName
	if s == Mem {
		vfs = litedb.NewMemVFS()
		name = litedb.MemoryDBName
	} else {
		wv, err := litedb.NewWASIVFS(imp, in, 0, benchScratch)
		if err != nil {
			return err
		}
		vfs = wv
	}
	db, err := litedb.Open(vfs, name, litedb.Options{
		CachePages: opt.CachePages, Store: store, Sync: opt.Sync,
	})
	h.db = db
	return err
}

func (h *DB) openTwine(s Storage, opt Options) error {
	rt, err := core.NewRuntime(core.Config{
		PlatformSeed: "bench",
		SGX:          opt.SGX,
		FS:           core.FSIPFS,
		IPFSMode:     opt.IPFSMode,
		HostFS:       h.host,
		Timings:      opt.Timings,
	})
	if err != nil {
		return err
	}
	h.rt = rt
	h.enclave = rt.Enclave
	name := dbName
	if s == Mem {
		name = litedb.MemoryDBName
	}
	edb, err := rt.OpenDB(core.DBConfig{
		Name:       name,
		CachePages: opt.CachePages,
		Sync:       opt.Sync,
		MemVFS:     s == Mem,
	})
	if err != nil {
		return err
	}
	h.edb = edb
	return nil
}

func (h *DB) openLKL(s Storage, opt Options) error {
	platform := sgx.NewPlatform("bench-lkl")
	// SGX-LKL enclaves are heavier (Table IIIb): add the image footprint
	// on top of the configured heap.
	cfg := opt.SGX
	if s == File {
		if opt.ImageBlocks <= 0 {
			opt.ImageBlocks = 16 << 10 // 64 MiB image by default
		}
		cfg.HeapSize += int64(opt.ImageBlocks+64) * sgxlkl.BlockSize
	}
	enclave, err := platform.NewEnclave(cfg, []byte("sgx-lkl-image"))
	if err != nil {
		return err
	}
	h.enclave = enclave

	var vfs litedb.VFS
	name := dbName
	if s == Mem {
		mv := litedb.NewMemVFS()
		// The in-memory database occupies enclave memory.
		if arena, aerr := enclave.Allocator().Alloc(64 << 10); aerr == nil {
			base := arena
			mem := enclave.Memory()
			limit := mem.Size() - base
			mv.Touch = func(off, n int64) {
				if off >= 0 && off+n <= limit {
					_ = mem.Touch(base+off, n)
				} else if limit > 0 {
					_ = mem.Touch(base+(off%limit+limit)%limit, 1)
				}
			}
		}
		vfs = mv
		name = litedb.MemoryDBName
	} else {
		var key [16]byte
		if err := sgxlkl.BuildImage(h.host, "disk.img", sgxlkl.ImageConfig{
			Blocks: opt.ImageBlocks, Key: key,
		}); err != nil {
			return err
		}
		lkl, err := sgxlkl.Launch(enclave, h.host, "disk.img", key)
		if err != nil {
			return err
		}
		h.lkl = lkl
		vfs = lkl.VFS()
	}

	// Native execution inside the enclave: page cache counts against the
	// EPC through a touch-wrapped store.
	store := litedb.NewNativeStore(opt.CachePages)
	if arena, aerr := enclave.Allocator().Alloc(int64(opt.CachePages)*litedb.PageSize + sgx.PageSize); aerr == nil {
		base := (arena + sgx.PageSize - 1) &^ (sgx.PageSize - 1)
		mem := enclave.Memory()
		store = litedb.NewTouchStore(store, func(slot int) {
			_ = mem.Touch(base+int64(slot)*litedb.PageSize, litedb.PageSize)
		})
	}
	db, err := litedb.Open(vfs, name, litedb.Options{
		CachePages: opt.CachePages, Store: store, Sync: opt.Sync,
	})
	h.db = db
	return err
}

// Exec runs SQL under the variant's execution model.
func (h *DB) Exec(sql string, args ...litedb.Value) (int64, error) {
	switch {
	case h.edb != nil:
		return h.edb.Exec(sql, args...)
	case h.enclave != nil:
		var n int64
		err := h.enclave.ECall("db_exec", func() error {
			var xerr error
			n, xerr = h.db.Exec(sql, args...)
			return xerr
		})
		return n, err
	default:
		return h.db.Exec(sql, args...)
	}
}

// Query runs a SELECT under the variant's execution model.
func (h *DB) Query(sql string, args ...litedb.Value) (*litedb.Rows, error) {
	switch {
	case h.edb != nil:
		return h.edb.Query(sql, args...)
	case h.enclave != nil:
		var rows *litedb.Rows
		err := h.enclave.ECall("db_query", func() error {
			var qerr error
			rows, qerr = h.db.Query(sql, args...)
			return qerr
		})
		return rows, err
	default:
		return h.db.Query(sql, args...)
	}
}

// Enclave exposes the enclave for stats (nil for non-enclave variants).
func (h *DB) Enclave() *sgx.Enclave { return h.enclave }

// HostBytes reports the untrusted storage footprint.
func (h *DB) HostBytes() int64 { return h.host.TotalBytes() }

// Close tears the stack down. Enclave variants destroy their enclave,
// which also retires the switchless worker so back-to-back benchmark runs
// cannot interfere with each other.
func (h *DB) Close() error {
	switch {
	case h.edb != nil:
		err := h.edb.Close()
		if h.enclave != nil {
			h.enclave.Destroy()
		}
		return err
	case h.enclave != nil && h.db != nil:
		err := h.enclave.ECall("db_close", func() error { return h.db.Close() })
		if h.lkl != nil {
			if lerr := h.lkl.Close(); err == nil {
				err = lerr
			}
		}
		return err
	case h.db != nil:
		return h.db.Close()
	default:
		return nil
	}
}
