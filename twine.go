// Package twine is the public API of the TWINE reproduction: a trusted
// WebAssembly runtime embedded in a (simulated) Intel SGX enclave, exposing
// a WASI system interface whose file operations are served by the Intel
// protected file system — data at rest on the untrusted host is always
// ciphertext (Ménétrey et al., "TWINE: An Embedded Trusted Runtime for
// WebAssembly", ICDE 2021).
//
// Quick start:
//
//	rt, err := twine.NewRuntime(twine.Config{})
//	mod, err := rt.LoadModule(wasmBytes)      // single ECALL, reserved memory
//	inst, err := rt.NewInstance(mod)
//	code, err := inst.Run()                   // runs _start inside the enclave
//
// Application code can also be delivered confidentially after remote
// attestation (the paper's Figure 1 workflow): see Provider and
// Runtime.FetchModule.
//
// Hot host calls ride a switchless OCALL ring by default (PR 2), skipping
// the two enclave transitions a classic OCALL pays; set Config.Switchless
// to SwitchlessOff to restore the baseline two-transition dispatch.
//
// The runtime is concurrent (PR 3): ECALLs from distinct goroutines
// multiplex over a bounded pool of thread control structures
// (sgx.Config.TCSNum), so many instances of one module serve requests in
// parallel. The serving front door is Runtime.NewPool:
//
//	pool, err := rt.NewPool(mod, twine.PoolConfig{Workers: 4})
//	out, err := pool.Submit(args...)          // one request, any goroutine
//	err = pool.Serve(n, argsFn, doneFn)       // a batch across all workers
//
// Every pool request ends with its worker reset to the golden snapshot —
// guest memory, globals, table and WASI descriptor table — inside the
// ECALL that served it, whether it returned or failed (a Wasm trap, a
// failed host interaction), so no request sees another's state. State
// that must outlive a request lives in an Instance or an EmbeddedDB.
// Serving is fault-contained (PR 6): PoolConfig.MaxQueue bounds admission
// (rejected work fails fast with ErrOverloaded) and Pool.SubmitCtx's
// context deadline bounds the wait for a worker and for a TCS. Transient
// host faults are retried at the WASI boundary (Config.HostRetryMax). The
// seeded fault-injection harness behind the fault tests is exported as
// FaultPlan/FaultInjector.
//
// Multi-tenant serving (PR 8) goes through a Registry: tenants register
// named (module, config) pairs, compiled code is shared content-addressed
// across tenants, and every mutable thing — workers, golden snapshot,
// admission queue, latency accounting — stays per-tenant:
//
//	reg := rt.NewRegistry(twine.RegistryConfig{})
//	a, err := reg.Register("tenant-a", wasmBytes, twine.TenantConfig{})
//	out, err := reg.Submit("tenant-a", args...)  // or a.Submit(args...)
//
// A tenant's pool serves under the same reset: each request sees the
// tenant's golden snapshot, restored in place (no re-instantiation on the
// hot path). Per-tenant queue shares
// (TenantConfig.MaxQueue) make overload a private failure — a saturated
// tenant's submits fail with ErrOverloaded while its neighbours keep
// serving — and per-tenant latency quantiles land in RegistryStats.
//
// Under EPC pressure the registry swaps at instance granularity (PR 9):
// RegistryConfig.MaxResident bounds how many warm workers hold enclave
// arenas at once. Beyond the bound, the coldest idle instances
// (working-set-weighted victim selection) are suspended — their EPC
// released, nothing written outside the enclave, since an idle worker is
// its tenant's golden snapshot — and a Submit against a suspended tenant
// transparently resumes it from that snapshot. A resumed worker is
// bit-identical to one that never left the EPC; the zero RegistryConfig
// disables the tier entirely.
//
// Accounting is typed and per layer: Runtime.Enclave.Stats (crossings,
// paging, TCS use), PoolStats / RegistryStats, Runtime.HostRetryStats, and
// a Module's own load time and translation counters. The one set of
// in-line timers is the paper's Figure 7 breakdown of the protected file
// system, collected only when Config.Timings is set.
//
// For the paper's flagship use case — a trusted full SQL database — see the
// tsql subpackage.
package twine

import (
	"io"

	"twine/internal/chaos"
	"twine/internal/core"
	"twine/internal/hostfs"
	"twine/internal/ipfs"
	"twine/internal/sgx"
	"twine/internal/wasm"
)

// Re-exported kinds and modes.
type (
	// Config assembles a runtime; the zero value is a working default
	// (fresh in-memory host, IPFS-backed trusted storage, superblock
	// engine, switchless OCALLs, paper-testbed SGX geometry, no timers:
	// Timings is for cmd/profilefs).
	Config = core.Config
	// Runtime is a live TWINE enclave: it loads modules (LoadModule,
	// FetchModule), instantiates them (NewInstance), opens trusted
	// databases (OpenDB) and exposes the enclave for stats and
	// attestation.
	Runtime = core.Runtime
	// Module is a loaded application, translated ahead of time for the
	// runtime's engine, together with its artefact metrics (binary size,
	// translated instruction count, load time — Table IIIb) and the
	// translation counters of that engine (Reg or Super).
	Module = core.Module
	// Instance is an instantiated module whose linear memory is charged
	// against the enclave's EPC; Run executes its WASI start routine and
	// Invoke calls exported functions, each through an ECALL. Distinct
	// instances execute concurrently, bounded by the enclave's TCS pool.
	Instance = core.Instance
	// Pool is the serving front door (PR 3): N worker instances of one
	// module, stamped out by copy-from-snapshot, serving concurrent
	// requests through Submit/Serve. See Runtime.NewPool.
	Pool = core.Pool
	// PoolConfig sizes a Pool (workers, entry function, optional one-time
	// init and per-request untrusted host I/O) and bounds its admission:
	// MaxQueue caps waiting submits (PR 6); the caller's context bounds
	// how long one waits (Pool.SubmitCtx).
	PoolConfig = core.PoolConfig
	// PoolStats counts served requests and their resets, pool-level
	// waits, rejected and timed-out admissions, and the swap tier's
	// suspends and resumes.
	PoolStats = core.PoolStats
	// Registry is the multi-tenant serving front door (PR 8): a
	// content-addressed compiled-module cache plus a named tenant table.
	// See Runtime.NewRegistry.
	Registry = core.Registry
	// RegistryConfig shapes a Registry's EPC-pressure lifecycle (PR 9):
	// MaxResident bounds warm workers holding enclave arenas. The zero
	// value disables the swap tier (PR 8 behaviour).
	RegistryConfig = core.RegistryConfig
	// Tenant is one registered (module, config) pair and its serving
	// pool.
	Tenant = core.Tenant
	// TenantConfig shapes one tenant's pool; the zero value is a
	// one-worker tenant with an unbounded queue.
	TenantConfig = core.TenantConfig
	// TenantStats is one tenant's accounting: pool counters plus latency
	// quantiles.
	TenantStats = core.TenantStats
	// RegistryStats summarises a registry: tenant and distinct-binary
	// counts, compile-cache hits, and per-tenant accounting.
	RegistryStats = core.RegistryStats
	// LatencySummary reports a pool's request-latency quantiles (p50,
	// p95, p99) from its fixed-bucket histogram.
	LatencySummary = core.LatencySummary
	// FaultPlan describes a deterministic, seeded fault-injection plan
	// (PR 6): which operations of a stream fail, with what error, after
	// what stall. The zero plan injects nothing.
	FaultPlan = chaos.Plan
	// FaultInjector applies a FaultPlan to an operation stream. A nil
	// injector is a strict no-op, so fault hooks cost nothing when unused.
	FaultInjector = chaos.Injector
	// Provider serves Wasm modules to attested enclaves over a
	// provisioning channel (the paper's Figure 1 trusted-deployment
	// workflow).
	Provider = core.Provider
	// FSKind selects the WASI file backend (FSIPFS or FSHost).
	FSKind = core.FSKind
	// SwitchlessMode selects the OCALL dispatch strategy
	// (SwitchlessAuto rides the ring, SwitchlessOff pays two transitions
	// per call).
	SwitchlessMode = core.SwitchlessMode
)

// File-system kinds.
const (
	// FSIPFS routes file I/O to the Intel protected file system (trusted).
	FSIPFS = core.FSIPFS
	// FSHost forwards file I/O to untrusted POSIX (the WAMR baseline).
	FSHost = core.FSHost
)

// Switchless OCALL modes (Config.Switchless, PR 2).
const (
	// SwitchlessAuto — the default — enables the switchless ring: hot
	// host calls are served by an untrusted worker without enclave
	// transitions.
	SwitchlessAuto = core.SwitchlessAuto
	// SwitchlessOff forces classic two-transition OCALLs, bit-identical
	// to the pre-switchless runtime (used by ablations and fidelity
	// tests).
	SwitchlessOff = core.SwitchlessOff
)

// IPFS modes (paper §V-F).
const (
	// IPFSStandard mirrors Intel's SGX SDK node lifecycle, including the
	// memset clearing and the edge ciphertext copy Figure 7 measures.
	IPFSStandard = ipfs.ModeStandard
	// IPFSOptimized applies the paper's §V-F fixes: no clearing and
	// zero-copy decryption from the untrusted buffer.
	IPFSOptimized = ipfs.ModeOptimized
)

// Engines (Config.Engine). All four are bit-identical in results, traps
// and SGX accounting; they differ only in speed.
const (
	// EngineSuperblock runs the superblock tier (PR 7): register IR
	// with innermost loops compiled to single Go closures. It is the
	// zero value — the fastest tier is what an unset Config.Engine runs.
	EngineSuperblock = wasm.EngineSuperblock
	// EngineInterp runs the plain interpreter (Table I's slower mode),
	// the reference the other tiers are tested against.
	EngineInterp = wasm.EngineInterp
	// EngineRegister runs the register-IR tier (PR 4): per-function
	// register code with folding, propagation and fused address
	// arithmetic, every memory access checked.
	EngineRegister = wasm.EngineRegister
	// EngineAOT runs the pre-translated, fused instruction stream, the
	// stand-in for TWINE's ahead-of-time compiled modules and the
	// per-function fallback of the two tiers above.
	EngineAOT = wasm.EngineAOT
)

// Serving-pool admission errors (PR 6).
var (
	// ErrOverloaded reports an admission-control rejection: the pool's
	// wait queue was full, or the submit's context deadline expired
	// before it had both a worker and a TCS (the error then wraps
	// context.DeadlineExceeded too). Overloaded requests left no side
	// effect and are safe to resubmit (typically after client-side
	// backoff).
	ErrOverloaded = core.ErrOverloaded
	// ErrPoolClosed reports a submit against a closed pool, including
	// submits that were queued when Close began.
	ErrPoolClosed = core.ErrPoolClosed
	// ErrUnknownTenant reports a Registry.Submit against a name no
	// Register call created — an admission failure, never a panic, so
	// the front door can face untrusted tenant names (PR 8).
	ErrUnknownTenant = core.ErrUnknownTenant
)

// NewFaultInjector compiles a FaultPlan into a FaultInjector for use in
// fault hooks (wrappers around Config.HostFS or PoolConfig.HostIO).
func NewFaultInjector(p FaultPlan) *FaultInjector { return chaos.New(p) }

// TransientFault marks err as transient — "the call never happened, no
// side effect" — which makes it retryable at the WASI boundary.
func TransientFault(err error) error { return chaos.Transient(err) }

// IsTransientFault reports whether err is transient in the sense of
// TransientFault.
func IsTransientFault(err error) bool { return chaos.IsTransient(err) }

// NewRuntime builds the enclave and WASI plumbing. The zero Config is a
// working default; the returned Runtime is ready for LoadModule.
func NewRuntime(cfg Config) (*Runtime, error) { return core.NewRuntime(cfg) }

// NewProvider builds the application-provider side of the provisioning
// protocol: it releases wasmModule only to enclaves whose measurement
// matches expected, verified through svc.
func NewProvider(svc *AttestationService, expected [32]byte, wasmModule []byte) *Provider {
	return core.NewProvider(svc, expected, wasmModule)
}

// AttestationService simulates the remote attestation authority (Intel
// IAS): it verifies quotes produced by registered platforms and reports
// whether an enclave is genuine and non-debug.
type AttestationService = sgx.AttestationService

// NewAttestationService returns an empty attestation service; register
// platforms that should be considered genuine.
func NewAttestationService() *AttestationService { return sgx.NewAttestationService() }

// NewMemHostFS returns an in-memory untrusted host file system, useful for
// examples and tests.
func NewMemHostFS() hostfs.FS { return hostfs.NewMemFS() }

// NewDirHostFS returns an untrusted host file system rooted at a real
// directory.
func NewDirHostFS(dir string) (hostfs.FS, error) { return hostfs.NewDirFS(dir) }

// SGXDefaultConfig returns the paper-testbed enclave geometry (128 MiB
// EPC, 93 MiB usable, ~1.7 µs one-way transition cost).
func SGXDefaultConfig() sgx.Config { return sgx.DefaultConfig() }

// SGXTestConfig returns a small, fast enclave for tests: a tiny EPC so
// paging is easy to provoke, and free transitions.
func SGXTestConfig() sgx.Config { return sgx.TestConfig() }

// Discard is a convenient stdout sink for guests whose output does not
// matter (benchmarks, smoke tests).
var Discard io.Writer = discard{}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
