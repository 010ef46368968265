// Package sgx simulates Intel Software Guard Extensions (SGX) enclaves in
// pure Go, closely following the cost model that drives the TWINE paper's
// evaluation (ICDE'21, §III-A and §V):
//
//   - an enclave page cache (EPC) of limited size (128 MiB on the paper's
//     SGX1 testbed, ~93 MiB usable); touching a non-resident enclave page
//     triggers paging whose cost is paid with real AES work over the 4 KiB
//     page, so workloads larger than the EPC slow down exactly where the
//     paper's curves bend;
//   - expensive enclave transitions: ECALLs and OCALLs burn a calibrated
//     amount of CPU (the paper cites up to 13,100 cycles per crossing);
//   - switchless OCALLs (PR 2, after the follow-up paper "A Comprehensive
//     Trusted Runtime for WebAssembly with Intel SGX"): a bounded
//     request/response ring drained by an untrusted worker goroutine, so
//     hot host calls pay a small enqueue cost instead of two crossings —
//     see SwitchlessRing and "The simulator's own cost of a ride" below;
//   - an in-enclave heap allocator whose "system" mode reproduces the
//     above-linear allocation cost the paper observed (§IV-C), and a
//     "pool" mode reproducing the preallocated memsys3-style buffer that
//     TWINE uses to avoid it;
//   - measurement (MRENCLAVE), sealing keys bound to (platform, enclave)
//     and remote attestation through a simulated quoting/attestation
//     service;
//   - hardware vs simulation modes, mirroring SGX HW/SW builds (Figure 6):
//     simulation mode performs no memory-protection work.
//
// # Cost-model invariants
//
// Costs are paid with busy CPU work (never sleeps), so they show up in
// wall-clock measurements the way hardware costs do. The invariants later
// layers rely on:
//
//   - paging state (faults, evictions, the clock hand) advances only
//     through Memory.Touch and friends, never as a side effect of timing,
//     so identical touch sequences give bit-identical Stats regardless of
//     execution speed — the contract behind the EPC-TLB and switchless
//     differential tests;
//   - every boundary crossing is counted: Stats.OCalls counts real
//     two-transition calls (including switchless fallbacks) and
//     Stats.SwitchlessCalls counts ring rides, so with switchless disabled
//     the counters are bit-identical to the pre-switchless runtime and
//     with it enabled OCalls + SwitchlessCalls is conserved. The package
//     reads no clock for them: Figure 7's boundary series is timed by the
//     one caller that plots it (ipfs.Timings.Boundary).
//
// # Concurrency: the TCS pool (PR 3)
//
// Real SGX enclaves multiplex concurrent ECALLs over a fixed set of
// thread control structures (TCS): each ECALL binds one TCS for its whole
// duration (including its OCALLs — the outstanding frame keeps the TCS
// reserved for re-entry), and an ECALL that finds every TCS busy waits.
// The simulation models exactly that with Config.TCSNum: ECalls from
// distinct goroutines execute concurrently up to the TCS bound, excess
// callers park FIFO-ish on the pool, and Stats gains TCSWaits (saturated
// entries), TCSBusy and TCSMaxBusy (occupancy high-water mark).
//
// Concurrency invariants the concurrent runtime relies on:
//
//   - Enclave entry points (ECall, OCall, SwitchlessOCall) and all
//     counters are safe for concurrent use; paging is serialised by a
//     per-Memory lock (the EPC and its reclaim path are one shared
//     resource per enclave on hardware too) while the paging generation
//     is published atomically, so internal/wasm's EPC-TLB fast path
//     remains a single lock-free load;
//   - with TCSNum == 1 every entry serialises and the ECALL/OCALL/fault/
//     eviction counters of a sequential workload are bit-identical to
//     the pre-concurrency runtime (guarded by internal/core's fidelity
//     tests);
//   - the switchless ring admits requests from any number of enclave
//     threads, arrival-ordered under the ring lock; a request admitted
//     to the ring is always served, even when Destroy races the enqueue
//     (the poison request queues behind all admitted work);
//   - Destroy drains: it rejects new entries, wakes TCS waiters with
//     ErrDestroyed, and blocks until in-flight ECALLs exit before
//     scrubbing memory.
//
// Same-goroutine re-entry is still rejected (TWINE exposes a single entry
// point, §IV-C); nested ECALLs require distinct goroutines, each paying
// its own TCS; the pool keeps an owner word per TCS (tcs.go), so the
// check is a scan of at most TCSNum words for the caller's own identity.
//
// # The simulator's own cost of a crossing
//
// Every Registry.Submit, tsql.DB.Query/Exec and tsql.Service request is
// one ECALL, and whatever the simulator spends on bookkeeping there is
// measured as if it were the machine's. The rule: an empty crossing at
// TransitionCost 0 costs at most 10 % of the modelled round trip (0.34 µs
// of 2 × 1.7 µs) at any stack depth and allocates nothing; it measures
// ~0.1 µs (TestEmptyECallCost). Identifying the caller from a
// runtime.Stack dump broke it (11.8 µs twelve frames deep; the
// benchmark's sgx.ecall_ns read 12 618 ns, now 3 847, for 3 400 modelled).
//
// # The simulator's own cost of a ride
//
// The same rule one layer down: a ride on a ring that is being used costs
// the same whatever the enclave thread did since the last one; only a
// ring that went a whole WorkerIdle without a request pays again, and it
// pays exactly the modelled WakeupCost plus one classic OCALL. The ring's
// worker is polling, blocked on its queue or parked (the header of
// switchless.go says what each state costs the next request, modelled and
// in wall clock), and it polls through the gaps it observes so that only a
// sparse ring is ever found blocked: TestRideCostIndependentOfGap,
// TestSparseRingPollsAtFloor, BenchmarkSwitchlessGap.
//
// # The simulator's own cost of an enclave
//
// The same rule for host memory: an enclave costs the host what it wrote.
// The arena (ReservedSize + HeapSize, 272 MiB by default) holds allocator
// headers, loaded code and whatever callers Write; everything else uses it
// through Touch as the EPC residency model. It is a private anonymous
// mapping (arena_unix.go), unmapped when the Memory is collected, and
// Memory tracks the pages Write, Zero and Slice handed bytes to. Launch is
// the model's paging sweep over the pool (one fault per heap page, one
// eviction per page past the EPC) and writes nothing, Destroy wipes the
// written pages, and resident memory is O(pages written), not O(arena):
// TestEnclaveHostCostFollowsWrites, TestLaunchSweepCounts. HeapSystem
// still zeroes every page it commits (§IV-C's EAUG cost). Slices from
// Memory.Slice and Reserved.Bytes alias the mapping: they are valid only
// while the enclave is reachable and not destroyed. A guest's linear
// memory is not a Go value either: internal/wasm reserves each one as a
// mapping of its own limit, the range the enclave allocator reserves for
// it here, and the host backs only the pages the guest wrote.
//
// # Fault containment (PR 6)
//
// The caller's context keeps a saturated enclave from hanging its
// callers. ECallCtx parks waiting for a free TCS only until ctx is done,
// then returns ctx.Err() without entering (the parked call counts in
// Stats.TCSWaits, not in ECalls) — the enclave-level half of the serving
// pool's admission control, and the signal a server uses to shed load.
// Once a call is inside, nothing interrupts it. The ring has no fault
// hook of its own: a slow untrusted host is a host closure that stalls,
// which the drain worker runs like any other, so switchless_chaos_test.go's
// Destroy-during-stalled-drain and result-preservation tests stall the
// closures they enqueue.
//
// # Instance-granularity reclamation hooks (PR 9)
//
// The core-layer swap tier suspends whole idle instances instead of
// letting the clock sweep reclaim their pages one at a time. The
// primitives it builds on live here:
//
//   - Memory.Discard is EREMOVE, not EWB: it drops a range to
//     pageAbsent without touching the fault/eviction counters or paying
//     page-crypto work — releasing a suspended instance's arena is
//     free, only bringing it back (ELDU, via Touch) is priced;
//   - Memory.RangeResidency reports per-arena resident and referenced
//     page counts — the working-set signal victim selection sorts by
//     (a page still marked referenced survived the last clock sweep).
//
// A suspended instance keeps no state (its tenant's golden snapshot is
// what resumes it), so suspension seals nothing.
package sgx
