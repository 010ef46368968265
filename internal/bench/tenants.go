package bench

import (
	"fmt"
	"sync"
	"time"

	"twine/internal/core"
	"twine/internal/prof"
	"twine/internal/sgx"
	"twine/internal/wasm"
	"twine/wasmgen"
)

// The fig-tenants workload (PR 8): N tenants sharing one enclave through
// the multi-tenant registry, each serving requests from its own pool at
// a fixed TCS count. Every tenant registers the *same* module bytes, so
// the registry compiles once and the grid isolates the serving-path
// question: what does per-request isolation cost as tenants multiply?
// Two treatments answer it:
//
//   - warm (PR 8): FreshState tenants — completed workers are reset in
//     place on the free list — with switchless batching on, so adjacent
//     tenants' host calls share ring wakeups.
//   - cold (ablation): ColdStart tenants — a fresh instance is stamped
//     from the snapshot for every request and released after — with
//     batching off. Same isolation guarantee, none of the PR 8
//     machinery.
//
// Each request computes a small checksum in-enclave and writes a 16-byte
// response line through WASI fd_write, so the switchless ring sees real
// per-request traffic.

// TenantsConfig parameterises one fig-tenants point.
type TenantsConfig struct {
	// TCS is the enclave's thread-control-structure count (default 4 —
	// the grid's fixed axis).
	TCS int
	// Tenants is the tenant count; each tenant gets a one-worker pool.
	Tenants int
	// Requests is the total request count, split evenly across tenants
	// (default 64 per tenant).
	Requests int
	// Cold switches to the per-request-instantiation ablation.
	Cold bool
	// SGX overrides the enclave geometry (zero = DefaultConfig).
	SGX sgx.Config
	// Prof receives counters.
	Prof *prof.Registry
}

// TenantsResult is one measured fig-tenants point.
type TenantsResult struct {
	Tenants   int
	Requests  int
	Elapsed   time.Duration
	ReqPerSec float64
	// WarmResets / ColdStarts attribute the serving mode: a warm run has
	// WarmResets == Requests and ColdStarts == 0; a cold run the reverse.
	WarmResets int64
	ColdStarts int64
	// CompiledModules / CompileHits prove code sharing: for T tenants of
	// one binary they are 1 and T-1.
	CompiledModules int
	CompileHits     int64
	// BatchedWakeups counts switchless ring wakeups saved by batch
	// admission (zero in the cold treatment, which runs batching off).
	BatchedWakeups int64
	// WorstP99 is the slowest tenant's p99 request latency.
	WorstP99 time.Duration
}

// TenantGuest builds the per-request serving kernel: run(x) folds a
// 256-byte data segment into a checksum seeded by x, writes a 16-byte
// response through fd_write (one host call per request — ring traffic),
// and returns the checksum.
func TenantGuest() []byte {
	m := wasmgen.NewModule()
	fdWrite := m.ImportFunc("wasi_snapshot_preview1", "fd_write",
		wasmgen.Sig(wasmgen.I32, wasmgen.I32, wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	m.Memory(1, 1)
	seg := make([]byte, 256)
	for i := range seg {
		seg[i] = byte(i*13 + 5)
	}
	m.Data(64, seg)
	m.Data(512, []byte("response-body-ok"))

	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	i, s := f.AddLocal(wasmgen.I32), f.AddLocal(wasmgen.I32)
	f.LocalGet(0).LocalSet(s)
	f.I32Const(0).LocalSet(i)
	f.Block(wasmgen.BlockVoid)
	f.Loop(wasmgen.BlockVoid)
	f.LocalGet(i).I32Const(int32(len(seg))).I32GeS().BrIf(1)
	f.LocalGet(s).LocalGet(i).I32Const(64).I32Add().I32Load8U(0).I32Add().LocalSet(s)
	f.LocalGet(i).I32Const(1).I32Add().LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	// iovec at 0: base 512, len 16; fd_write(stdout, iovec, 1, nwritten@32)
	f.I32Const(0).I32Const(512).I32Store(0)
	f.I32Const(4).I32Const(16).I32Store(0)
	f.I32Const(1).I32Const(0).I32Const(1).I32Const(32).Call(fdWrite).Drop()
	f.LocalGet(s)
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// RunTenants serves one fig-tenants point: cfg.Tenants tenants of one
// shared module, each driven by its own client goroutine, reporting
// aggregate requests/sec and the sharing/serving counters.
func RunTenants(cfg TenantsConfig) (TenantsResult, error) {
	if cfg.TCS <= 0 {
		cfg.TCS = 4
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 64 * cfg.Tenants
	}
	if cfg.SGX.EPCSize == 0 {
		cfg.SGX = sgx.DefaultConfig()
	}
	cfg.SGX.TCSNum = cfg.TCS
	cfg.SGX.Prof = cfg.Prof

	rt, err := core.NewRuntime(core.Config{
		PlatformSeed:    "bench-tenants",
		SGX:             cfg.SGX,
		Switchless:      core.SwitchlessOn,
		SwitchlessBatch: !cfg.Cold,
		Prof:            cfg.Prof,
	})
	if err != nil {
		return TenantsResult{}, err
	}
	defer rt.Enclave.Destroy()

	reg := rt.NewRegistry(core.RegistryConfig{})
	defer reg.Close()
	bin := TenantGuest()
	tenants := make([]*core.Tenant, cfg.Tenants)
	for i := range tenants {
		tcfg := core.TenantConfig{Workers: 1, ColdStart: cfg.Cold}
		t, err := reg.Register(fmt.Sprintf("tenant-%d", i), bin, tcfg)
		if err != nil {
			return TenantsResult{}, err
		}
		tenants[i] = t
	}

	per := cfg.Requests / cfg.Tenants
	total := per * cfg.Tenants
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	start := time.Now()
	for _, t := range tenants {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < per; r++ {
				if _, err := t.Submit(uint64(r)); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return TenantsResult{}, firstErr
	}

	rs := reg.Stats()
	res := TenantsResult{
		Tenants:         cfg.Tenants,
		Requests:        total,
		Elapsed:         elapsed,
		ReqPerSec:       float64(total) / elapsed.Seconds(),
		CompiledModules: rs.CompiledModules,
		CompileHits:     rs.CompileHits,
		BatchedWakeups:  rt.Enclave.Stats().BatchedWakeups,
	}
	for _, ts := range rs.PerTenant {
		res.WarmResets += ts.Pool.WarmResets
		res.ColdStarts += ts.Pool.ColdStarts
		if ts.Latency.P99 > res.WorstP99 {
			res.WorstP99 = ts.Latency.P99
		}
	}
	return res, nil
}

// WarmColdResult reports the warm-reset microbenchmark: what one
// ready-to-serve instance costs under each provisioning strategy.
type WarmColdResult struct {
	// FullNs is a full Instantiate: value-stack allocation, linking,
	// data-segment replay.
	FullNs float64
	// SnapshotNs is InstantiateFromSnapshot: fresh buffers, state copied
	// from the golden snapshot.
	SnapshotNs float64
	// ResetNs is ResetFromSnapshot on a live instance: the PR 8 warm
	// free-list hot path — in-place copy, no allocation.
	ResetNs float64
}

// ColdWarmRatio is the headline: how many times cheaper a warm reset is
// than the cold per-request instantiation it replaces.
func (r WarmColdResult) ColdWarmRatio() float64 {
	if r.ResetNs == 0 {
		return 0
	}
	return r.SnapshotNs / r.ResetNs
}

// RunWarmCold measures the three provisioning strategies at the wasm
// layer (no enclave — the arena and transition costs are priced by
// fig-tenants; this isolates the runtime-state work) over a module with
// `pages` pages of linear memory, `iters` iterations each.
func RunWarmCold(pages, iters int) (WarmColdResult, error) {
	if pages <= 0 {
		pages = 16
	}
	if iters <= 0 {
		iters = 50
	}
	m := wasmgen.NewModule()
	m.Memory(uint32(pages), uint32(pages))
	seg := make([]byte, 4096)
	for i := range seg {
		seg[i] = byte(i)
	}
	m.Data(0, seg)
	f := m.Func(wasmgen.Sig().Returns(wasmgen.I32))
	f.I32Const(0).I32Load(0)
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")

	mod, err := wasm.Decode(m.Bytes())
	if err != nil {
		return WarmColdResult{}, err
	}
	c, err := wasm.Compile(mod)
	if err != nil {
		return WarmColdResult{}, err
	}
	golden, err := wasm.Instantiate(c, nil, wasm.Config{})
	if err != nil {
		return WarmColdResult{}, err
	}
	snap := golden.Snapshot()

	var res WarmColdResult
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := wasm.Instantiate(c, nil, wasm.Config{}); err != nil {
			return res, err
		}
	}
	res.FullNs = float64(time.Since(start).Nanoseconds()) / float64(iters)

	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := wasm.InstantiateFromSnapshot(c, nil, snap, wasm.Config{}); err != nil {
			return res, err
		}
	}
	res.SnapshotNs = float64(time.Since(start).Nanoseconds()) / float64(iters)

	warm, err := wasm.InstantiateFromSnapshot(c, nil, snap, wasm.Config{})
	if err != nil {
		return res, err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := warm.ResetFromSnapshot(snap); err != nil {
			return res, err
		}
	}
	res.ResetNs = float64(time.Since(start).Nanoseconds()) / float64(iters)
	return res, nil
}
