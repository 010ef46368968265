// Package wasi implements the WebAssembly System Interface
// (snapshot_preview1, the 45-function surface the paper describes in
// §III-B) as TWINE's bridge between trusted and untrusted worlds (§IV-B/C).
//
// Calls are routed in two layers, exactly as the paper describes:
//
//   - trusted implementations are used when available: file-system calls go
//     to the Intel-protected-file-system backend, random_get uses the
//     in-enclave entropy source, and the clock is monotonic-guarded so the
//     untrusted host cannot turn time backwards;
//   - a generic POSIX-like layer outside the enclave handles the rest via
//     OCALLs, with sanity checks on returned values.
//
// A compilation-flag equivalent — Config.DisableUntrustedPOSIX — globally
// disables the generic layer (§IV-C), so applications can be audited for
// reliance on external resources.
//
// The sandbox follows WASI's capability model: guests see only preopened
// directory trees and operations allowed by each descriptor's rights.
//
// # Boundary-crossing cost model (PR 2)
//
// Every untrusted interaction funnels through one accounting helper per
// layer (System.ocall/ocallN for stdio, clocks and sleeps;
// HostBackend.call for POSIX file operations), which decides between the
// classic two-transition OCALL and the enclave's switchless ring:
//
//   - hot, small operations — fd_read / fd_write / fd_seek-induced fstat,
//     path stat, clock reads — ride the ring and pay only the enqueue
//     cost;
//   - operations above the ring's payload ceiling, and blocking calls
//     such as poll_oneoff sleeps (which must not occupy the worker), take
//     the classic path.
//
// Either way a host call is exactly one crossing: the host backend keeps
// no write-behind state, so every write is on the untrusted store when
// it returns, a System clone shares the backend instead of copying it,
// and OCalls_off == OCalls_on + SwitchlessCalls_on holds exactly
// (TestSmallWritesCrossOnceEach, FuzzHostBackendRing). With switchless
// disabled the helpers degrade to exactly the historical
// one-OCALL-per-operation accounting, a fidelity invariant enforced by
// internal/core's differential tests. Faults come only from the host
// (chaos.WrapFS around the backend's hostfs.FS); RetryPolicy absorbs the
// transient ones.
package wasi
