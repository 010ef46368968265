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
//     OCalls_off == OCalls_on + SwitchlessCalls_on holds exactly on
//     either file backend: a host call is one crossing, whichever path
//     it takes;
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
// submits may wait for a worker and a context deadline (SubmitCtx/
// ServeCtx) bounds how long one waits, for a worker and for a TCS; work
// the pool cannot take fails fast with ErrOverloaded, leaving no side
// effect. Containment second, with one serving contract: every request
// that entered the enclave ends with its worker reset to the golden
// snapshot, inside the serve ECALL it already paid, whether it returned
// or failed. A failed request has run arbitrary guest code against its
// worker's memory; the reset it pays anyway scrubs that, so failure needs
// no classification and no second ECALL. The reset restores memory,
// globals and table in place (Instance.ResetFromSnapshot) and the WASI
// descriptor table (wasi.System.Reset: the guest's open handles closed,
// so their writes are flushed, then stdio and the preopens restored with
// their initial rights). Transient host faults are retried at the WASI
// boundary under Config.HostRetryMax; one that escapes reaches the guest
// as an errno. PoolStats counts admission (Rejected, TimedOut,
// QueueDepth) and serving (Requests, WarmResets — one per request).
//
// Serving fidelity invariant: a 1-worker pool's or 1-tenant registry's
// ECALL/OCALL/fault/eviction counters and results are bit-identical to
// a sequential loop of one hand-rolled {invoke; reset} ECALL per request
// over one instance (TestPoolFidelity, both front doors), and a reset
// worker is bit-identical to a fresh snapshot instantiation
// (wasm/reset_test.go). Faults come only from the host: the tests wrap
// Config.HostFS in chaos.WrapFS, whose zero Plan or nil Injector is a
// strict no-op.
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
// A tenant's pool serves under the same contract as any pool: every
// request observes the golden snapshot without per-request
// instantiation. Worker handoff is FIFO-fair: a freed worker goes to the
// longest-waiting submit, so hot tenants or hot submitters cannot starve
// a patient one.
//
// # EPC-pressure lifecycle (PR 9)
//
// When resident instances outnumber what the EPC holds, the page-level
// clock sweep thrashes: every request faults its working set back one
// 4 KiB EWB/ELDU-priced page at a time. The swap tier
// (RegistryConfig.MaxResident, swap.go) reclaims at instance granularity
// instead. Each warm worker is in one of two states:
//
//	warm      — holds an enclave arena; acquirable by Submit.
//	suspended — Instance released; nothing kept, inside the enclave or
//	            out: an idle worker is its tenant's golden snapshot,
//	            which the pool holds anyway.
//
// warm → suspended happens only while the worker is idle (never under a
// request), via two triggers: the admission bound (resident workers
// would exceed MaxResident) and enclave-heap pressure (a resume out of
// arena memory suspends one victim and retries).
// It is one twine_suspend ECALL running Instance.Release. suspended →
// warm happens transparently inside Submit: one twine_resume ECALL
// instantiates the golden snapshot and pre-touches its extent (the ELDU
// analogue).
// Victim selection is working-set-weighted, coldest-largest first:
// fewest clock-referenced pages, then most resident pages, then longest
// idle.
//
// Lifecycle invariants (swap_test.go, release_test.go):
//
//   - suspension is complete: after suspendWorker the arena's resident
//     page count is exactly zero and the allocator gets every arena
//     byte back (Release is EREMOVE — never billed as evictions); so
//     does Pool.Close, for every worker (TestPoolCloseReleasesArenas);
//   - counters are conserved at rest: Suspends == Resumes + Suspended,
//     per pool and registry-wide;
//   - fidelity: a suspended-then-resumed worker is bit-identical to one
//     that never left the EPC — same results, same trap kinds, same
//     ECALL/OCALL/fault/eviction counters modulo the suspend and resume
//     ECALLs themselves (TestSuspendResumeFidelity); a resumed worker
//     is a fresh snapshot instantiation and a suspend writes nothing
//     outside the enclave (TestResumedWorkerIsGolden);
//   - nothing of the WASI state is lost: an idle worker's descriptor
//     table is the one NewSystem built, and the resume builds a fresh
//     System from the tenant template;
//   - when no victim is idle the group over-commits rather than blocks
//     — pressure falls through to the page-level clock sweep and the
//     next release/idle cycle re-balances.
package core
