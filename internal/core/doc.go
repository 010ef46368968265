// Package core implements TWINE itself (paper §IV): a WebAssembly runtime
// embedded in an SGX enclave behind a WASI system interface (§IV-B). The
// Wasm runtime executes entirely inside the enclave; WASI is the bridge
// between trusted and untrusted worlds (§IV-C), routing each call either
// to a trusted implementation (Intel protected file system, in-enclave
// entropy, monotonic-guarded clock) or to a guarded POSIX layer outside
// the enclave.
//
// Modules are supplied through a single ECALL and copied into the
// enclave's reserved memory (§IV-B), so application code never exists in
// plaintext outside the enclave once provisioning (see provision.go) is
// used. The embedded trusted database facade (embed.go) is the paper's
// flagship workload (§V), executing the SQLite-alike against sandboxed
// linear memory with file I/O served by the protected FS (§V-F).
//
// # Cost-model invariants
//
// core is where the per-layer cost models compose, and where their
// fidelity is enforced (fidelity_test.go, switchless_test.go):
//
//   - guest linear memory is charged against the enclave's EPC through a
//     page-aligned arena, so EPC paging counts are bit-identical with the
//     software EPC-TLB enabled or disabled (Config.NoEPCTLB);
//   - OCALL dispatch is adaptive (Config.Switchless, default on): hot
//     host calls ride the switchless ring, everything else pays the
//     classic two transitions. With the ring off, boundary counters are
//     bit-identical to the pre-switchless runtime; with it on,
//     WASI-visible results are byte-identical and
//     OCalls_off == OCalls_on + SwitchlessCalls_on holds for unbatched
//     workloads;
//   - launch and load times are fields of Runtime and Module (Table III),
//     a module's translation counters are Module.Reg / Module.Super, and
//     Figure 7's timers are ipfs.Timings, carried by Config.Timings.
//
// # Concurrency and the serving pool (PR 3)
//
// A Module is the immutable half of the split: decoded and AoT-translated
// code and link tables are shared by every instance. An Instance is the
// mutable half — guest memory (its own enclave arena), globals, table and
// its own WASI System (fd table, args, clock guards) over the shared
// storage backend. Distinct instances run concurrently, bounded by the
// enclave's TCS pool (sgx.Config.TCSNum); a single Instance stays
// single-threaded.
//
// Pool is the serving front door: N worker instances of one module,
// stamped out by copy-from-snapshot (the first worker's post-
// initialisation memory/globals/table are captured once; further workers
// cost one memory copy instead of decode+translate+link+segments+start).
// Submit serves one request on a free worker; Serve fans a batch across
// all of them. Pool-level saturation shows up in PoolStats.Waits,
// enclave-level saturation in sgx Stats.TCSWaits.
//
// Concurrency fidelity invariant: with TCSNum == 1 and SwitchlessOff, a
// sequential workload's ECALL/OCALL/fault/eviction counters are
// bit-identical to the pre-concurrency runtime (fidelity_test.go); the
// cost models gained locks, not new costs.
//
// # Fault containment (PR 6)
//
// The serving pool bounds and contains failure instead of letting it
// spread. Admission control first: PoolConfig.MaxQueue caps how many
// submits may wait for a worker and PoolConfig.SubmitTimeout (or a
// context deadline via SubmitCtx/ServeCtx) bounds how long they wait;
// work the pool cannot take fails fast with ErrOverloaded, leaving no
// side effect. Containment second: a request that returns an error has
// run arbitrary guest code against its worker's memory, so the pool
// assumes the worker is corrupt, quarantines it, and repairs it from the
// instantiation snapshot (memory/globals/table restored in-place, a
// fresh WASI System) before it serves again. Two error classes are
// exempt: sgx.ErrDestroyed (the enclave is gone — nothing to repair)
// and chaos-transient errors ("the call never happened" — guest state
// is intact, and the WASI boundary retries them under
// Config.HostRetryMax before the pool ever sees one). PoolStats counts
// all of it: Rejected, TimedOut, QueueDepth, Quarantined, Repaired.
//
// Fault-containment fidelity invariant: on a fault-free run the whole
// machinery is inert — a 1-worker pool's ECALL/OCALL/fault/eviction
// counters and results are bit-identical to a sequential NewInstance
// run (pool_chaos_test.go), and a zero chaos.Plan or nil Injector is a
// strict no-op at every hook.
//
// # Multi-tenant serving (PR 8)
//
// Registry is the multi-tenant front door over Pool, splitting serving
// state by what may be shared and what must not:
//
//   - Compiled code is content-addressed (SHA-256 of the module bytes)
//     and shared: each distinct binary is compiled by exactly one
//     twine_load_module ECALL per enclave, however many tenants register
//     it, and is immutable thereafter (the reserved region is sealed
//     execute-only outside load ECALLs). RegistryStats.CompileHits
//     counts Registers served from the cache.
//   - Everything mutable is per-tenant: workers, guest memories, WASI
//     descriptor tables, the golden snapshot (captured after the
//     tenant's own Init), the admission queue (TenantConfig.MaxQueue is
//     a per-tenant queue share — one tenant's overload rejects only
//     that tenant's submits) and the latency histogram behind
//     TenantStats.Latency.
//
// Tenants serve FreshState by default: after a successful request the
// worker is reset in place from the golden snapshot — inside the same
// serve ECALL, via the allocation-free Instance.ResetFromSnapshot — so
// every request observes identical initial state without per-request
// instantiation (PoolStats.WarmResets). TenantConfig.Stateful opts into
// PR 3 state-carrying workers; TenantConfig.ColdStart is the ablation
// that instantiates per request (PoolStats.ColdStarts). Worker handoff
// is FIFO-fair: a freed worker goes to the longest-waiting submit, so
// hot tenants or hot submitters cannot starve a patient one.
//
// Multi-tenant fidelity invariant: a 1-tenant registry at 1 TCS with
// switchless and batching off serves with ECALL/OCALL/fault/eviction
// counters and results bit-identical to a sequential
// invoke-plus-reset loop over one instance (registry_test.go), and a
// warm-reset worker is bit-identical to a fresh snapshot instantiation
// (wasm/reset_test.go) — warm serving is an optimisation, never an
// observable state change.
//
// # EPC-pressure lifecycle (PR 9)
//
// When resident instances outnumber what the EPC holds, the page-level
// clock sweep thrashes: every request faults its working set back one
// 4 KiB EWB/ELDU-priced page at a time. The swap tier
// (RegistryConfig.MaxResident / IdleSuspendAge, swap.go) reclaims at
// instance granularity instead. Each warm worker is in one of two
// states:
//
//	warm      — holds an enclave arena; acquirable by Submit.
//	suspended — Instance released; state lives as a sealed delta
//	            (globals + table + dirty-vs-golden 4 KiB chunks,
//	            wasm.SnapshotDelta) in untrusted storage.
//
// warm → suspended happens only while the worker is idle (never under a
// request), via three triggers: the admission bound (resident workers
// would exceed MaxResident), enclave-heap pressure (a resume or cold
// instantiation out of arena memory suspends one victim and retries),
// and the background reaper (workers idle past IdleSuspendAge).
// suspended → warm happens transparently inside Submit: unseal, apply
// the delta to the golden snapshot, re-instantiate, pre-touch the
// restored extent (the ELDU analogue). Victim selection is working-set-
// weighted, coldest-largest first: fewest clock-referenced pages, then
// most resident pages, then longest idle; TenantConfig.Pinned exempts a
// tenant (it still counts against the bound).
//
// Lifecycle invariants (swap_test.go, release_test.go):
//
//   - suspension is complete: after suspendWorker the arena's resident
//     page count is exactly zero and the allocator gets every arena
//     byte back (Release is EREMOVE — never billed as evictions);
//   - counters are conserved at rest: Suspends == Resumes + Suspended,
//     per pool and registry-wide;
//   - fidelity: a suspended-then-resumed worker is bit-identical to one
//     that never left the EPC — same results, same trap kinds, same
//     ECALL/OCALL/fault/eviction counters modulo the suspend and resume
//     ECALLs themselves (TestSuspendResumeFidelity);
//   - WASI state does not survive suspension: the resume builds a fresh
//     System from the tenant template, exactly like quarantine repair;
//   - when no victim is idle the group over-commits rather than blocks
//     — pressure falls through to the page-level clock sweep and the
//     next release/idle cycle re-balances.
package core
