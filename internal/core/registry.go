package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
)

// The multi-tenant front door (PR 8). TWINE's trust argument is
// per-module — attestation binds a tenant to the bytes it runs — but an
// embedded runtime hosting many tenants cannot afford per-tenant copies
// of everything. The Registry splits the serving state by what may be
// shared and what must not:
//
//   - Compiled code is content-addressed and shared. Register hashes the
//     module bytes (SHA-256) and compiles each distinct binary exactly
//     once per enclave — the single expensive twine_load_module ECALL —
//     no matter how many tenants register it. Compiled code is immutable
//     (the reserved region is sealed execute-only at load), so sharing it
//     leaks nothing between tenants.
//   - Everything mutable is per-tenant: each tenant owns its Pool, its
//     workers' guest memories and WASI descriptor tables, its golden
//     snapshot (taken after the tenant's own Init ran), its admission
//     queue and its latency accounting. One tenant's overload rejects
//     that tenant's requests (ErrOverloaded) and nobody else's; one
//     tenant's guest state is unreachable from another's workers.
//
// A tenant's worker is reset to its golden snapshot after every request,
// as every pool's is: request origins are mutually untrusting. It is also
// what lets the swap tier keep nothing of a suspended worker: idle, it is
// its golden snapshot.

// ErrUnknownTenant is returned by Registry.Submit for a name no Register
// call created.
var ErrUnknownTenant = errors.New("twine: unknown tenant")

// TenantConfig shapes one tenant's serving pool. The zero value is a
// one-worker tenant with an unbounded queue, entry "run".
type TenantConfig struct {
	// Workers is the tenant's worker count (default 1 — tenants share the
	// enclave's TCS pool, so a tenant's workers bound its concurrency
	// share, not the enclave's).
	Workers int
	// Entry and Init are as in PoolConfig (default entry "run").
	Entry string
	Init  string
	// HostIO, when set, runs outside the enclave at the start of every
	// request (see PoolConfig.HostIO).
	HostIO func() error
	// MaxQueue is this tenant's queue share: how many of its Submits may
	// wait at once before further ones are rejected with ErrOverloaded
	// (0 = unbounded). Per-tenant, so one tenant saturating its share
	// never consumes another's admission capacity.
	MaxQueue int
	// Stdout/Stderr receive the tenant's guest output (default discard).
	Stdout io.Writer
	Stderr io.Writer
}

// Tenant is one registered (module, config) pair and its serving pool.
type Tenant struct {
	name string
	mod  *Module
	pool *Pool
}

// Name returns the tenant's registry name.
func (t *Tenant) Name() string { return t.name }

// Module returns the tenant's (possibly shared) compiled module.
func (t *Tenant) Module() *Module { return t.mod }

// Pool returns the tenant's serving pool.
func (t *Tenant) Pool() *Pool { return t.pool }

// Submit serves one request for this tenant (see Pool.Submit).
func (t *Tenant) Submit(args ...uint64) ([]uint64, error) {
	return t.pool.Submit(args...)
}

// SubmitCtx is Submit bounded by ctx (see Pool.SubmitCtx).
func (t *Tenant) SubmitCtx(ctx context.Context, args ...uint64) ([]uint64, error) {
	return t.pool.SubmitCtx(ctx, args...)
}

// Stats returns the tenant's serving counters and latency summaries.
func (t *Tenant) Stats() TenantStats {
	return TenantStats{
		Pool:          t.pool.Stats(),
		Latency:       t.pool.Latency(),
		ResumeLatency: t.pool.ResumeLatency(),
	}
}

// TenantStats is one tenant's accounting: pool counters plus the
// fixed-bucket latency quantiles for requests and for swap resumes.
type TenantStats struct {
	Pool          PoolStats
	Latency       LatencySummary
	ResumeLatency LatencySummary
}

// RegistryStats summarises the registry: how much compiled code is
// shared, the swap tier's aggregate activity, and each tenant's serving
// accounting.
type RegistryStats struct {
	// Tenants is the number of registered tenants; CompiledModules the
	// number of distinct binaries actually compiled. Their difference is
	// code sharing at work.
	Tenants         int
	CompiledModules int
	// CompileHits counts Register calls served from the compiled-code
	// cache instead of a twine_load_module ECALL.
	CompileHits int64
	// Swap-tier aggregates over every tenant (PR 9); the conservation law
	// Suspends == Resumes + Suspended holds across the registry.
	Suspends  int64
	Resumes   int64
	Suspended int64
	// SealBytes is always 0: a suspend writes nothing outside the
	// enclave. It stays only for readers that predate that.
	SealBytes int64
	// PerTenant maps tenant name to its accounting.
	PerTenant map[string]TenantStats
}

// RegistryConfig shapes the registry's swap tier (PR 9). The zero value
// disables it: workers stay EPC-resident until Close, exactly the PR 8
// behaviour.
type RegistryConfig struct {
	// MaxResident bounds how many warm workers may hold EPC arenas at
	// once across every tenant (0 = unbounded). Registering or resuming
	// past the bound synchronously suspends the coldest-largest idle
	// workers — arenas released, nothing written outside the enclave —
	// and the next Submit for a suspended tenant transparently resumes
	// one from its golden snapshot.
	MaxResident int
}

// Registry is the multi-tenant serving front door: a content-addressed
// compiled-module cache plus a named tenant table. Safe for concurrent
// use; Register and Submit may race freely.
type Registry struct {
	rt   *Runtime
	swap *swapGroup // nil when the swap tier is disabled

	mu      sync.Mutex
	mods    map[[sha256.Size]byte]*Module
	tenants map[string]*Tenant
	hits    int64
	closed  bool
}

// NewRegistry creates an empty registry over the runtime's enclave. The
// zero RegistryConfig gives the PR 8 registry; MaxResident turns on the
// swap tier (PR 9).
func (rt *Runtime) NewRegistry(cfg RegistryConfig) *Registry {
	r := &Registry{
		rt:      rt,
		mods:    make(map[[sha256.Size]byte]*Module),
		tenants: make(map[string]*Tenant),
	}
	if cfg.MaxResident > 0 {
		r.swap = &swapGroup{max: cfg.MaxResident}
	}
	return r
}

// Register creates tenant name serving wasmBytes under cfg. The bytes
// are compiled only if no previous Register delivered the same binary
// (content hash, not name, keys the cache); the tenant's pool — workers,
// snapshot, queue, accounting — is always its own. Duplicate names are
// an error: a tenant's identity must not be silently rebound.
func (r *Registry) Register(name string, wasmBytes []byte, cfg TenantConfig) (*Tenant, error) {
	if name == "" {
		return nil, errors.New("twine: empty tenant name")
	}
	key := sha256.Sum256(wasmBytes)

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if _, dup := r.tenants[name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("twine: tenant %q already registered", name)
	}
	mod, cached := r.mods[key]
	r.mu.Unlock()

	// Compile outside the registry lock: loading is an ECALL and may be
	// slow; concurrent Registers of the same new binary may both compile,
	// and the loser's copy is dropped in favour of the first published —
	// wasteful but correct (compiled code is immutable).
	if !cached {
		m, err := r.rt.LoadModule(wasmBytes)
		if err != nil {
			return nil, fmt.Errorf("twine: register %q: %w", name, err)
		}
		r.mu.Lock()
		if prior, ok := r.mods[key]; ok {
			mod = prior
			r.hits++
		} else {
			r.mods[key] = m
			mod = m
		}
		r.mu.Unlock()
	} else {
		r.mu.Lock()
		r.hits++
		r.mu.Unlock()
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	pool, err := r.rt.NewPool(mod, PoolConfig{
		Workers:  workers,
		Entry:    cfg.Entry,
		Init:     cfg.Init,
		HostIO:   cfg.HostIO,
		MaxQueue: cfg.MaxQueue,
		Stdout:   cfg.Stdout,
		Stderr:   cfg.Stderr,
		swap:     r.swap,
	})
	if err != nil {
		return nil, fmt.Errorf("twine: register %q: %w", name, err)
	}
	ten := &Tenant{name: name, mod: mod, pool: pool}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		pool.Close()
		return nil, ErrPoolClosed
	}
	if _, dup := r.tenants[name]; dup {
		r.mu.Unlock()
		pool.Close()
		return nil, fmt.Errorf("twine: tenant %q already registered", name)
	}
	r.tenants[name] = ten
	r.mu.Unlock()
	return ten, nil
}

// Tenant returns the named tenant, or nil if none is registered.
func (r *Registry) Tenant(name string) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenants[name]
}

// Submit serves one request for the named tenant.
func (r *Registry) Submit(tenant string, args ...uint64) ([]uint64, error) {
	return r.SubmitCtx(context.Background(), tenant, args...)
}

// SubmitCtx is Submit bounded by ctx. An unknown tenant fails with an
// error wrapping ErrUnknownTenant — an admission failure, never a panic,
// so the front door can face untrusted tenant names.
func (r *Registry) SubmitCtx(ctx context.Context, tenant string, args ...uint64) ([]uint64, error) {
	t := r.Tenant(tenant)
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	return t.pool.SubmitCtx(ctx, args...)
}

// Stats returns a registry-wide snapshot: sharing counters plus each
// tenant's pool stats and latency summary.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	s := RegistryStats{
		Tenants:         len(r.tenants),
		CompiledModules: len(r.mods),
		CompileHits:     r.hits,
		PerTenant:       make(map[string]TenantStats, len(r.tenants)),
	}
	tens := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tens = append(tens, t)
	}
	r.mu.Unlock()
	// Per-tenant stats are taken outside the registry lock: each is a
	// pool-lock snapshot of its own.
	for _, t := range tens {
		ts := t.Stats()
		s.PerTenant[t.name] = ts
		s.Suspends += ts.Pool.Suspends
		s.Resumes += ts.Pool.Resumes
		s.Suspended += ts.Pool.Suspended
	}
	return s
}

// Close closes every tenant pool, returning their workers' arenas to the
// enclave. The runtime and its enclave stay alive; compiled modules
// remain usable by pools created directly.
func (r *Registry) Close() error {
	r.mu.Lock()
	r.closed = true
	tens := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tens = append(tens, t)
	}
	r.mu.Unlock()
	for _, t := range tens {
		t.pool.Close()
	}
	return nil
}
