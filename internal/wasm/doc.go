// Package wasm implements a WebAssembly 1.0 (MVP) runtime in pure Go: a
// binary decoder, a validating compiler that lowers structured control flow
// to branch-resolved internal code, and four execution engines — a plain
// interpreter and an "AoT" engine that runs a pre-translated,
// peephole-fused form of the code, mirroring the WAMR modes the paper uses
// (§III-B, Table I; the runtime TWINE embeds in the enclave is §IV-B), plus
// a second AoT stage (PR 4, EngineRegister) that rewrites each function
// into a basic-block register IR with constant folding, copy propagation
// and hoisted bounds checks, and a third AoT stage (PR 7,
// EngineSuperblock) that compiles those of the register IR's innermost
// self-loops that match an idiom template into single Go closures. The superblock tier is the zero-value Engine:
// it is the fastest of the four on every workload measured (BENCHMARKS.md,
// "Tier × workload matrix"), so it is what runs when no option is set. The
// fused form stays as its per-function fallback and as a selectable tier,
// and the interpreter as the oracle the differential tests compare
// against. Compiled.Translate derives a tier's form ahead of time; the
// enclave loader calls it, so translation is load time, never request time.
//
// TWINE embeds this runtime inside the SGX enclave simulator; the runtime
// itself is host-agnostic and reports linear-memory accesses through an
// optional touch hook so the enclave's EPC model can charge paging costs.
//
// # Cost-model invariants
//
// The hot path between guest code and the EPC model is contractual:
//
//   - every linear-memory access is either reported through the touch
//     hook or proven redundant by the software EPC-TLB (PR 1): Memory
//     keeps a direct-mapped TLB of guest pages keyed by the enclave's
//     paging generation, and a hit is taken only where the touch would
//     have been a no-op — fault/eviction counts are bit-identical with
//     the TLB on or off (internal/core/fidelity_test.go);
//   - guest pages and enclave EPC pages coincide: the arena backing
//     linear memory is 4 KiB-aligned, so one guest page touch charges
//     exactly one enclave page;
//   - the AoT fusion pass may merge address arithmetic and adjacent
//     loads/stores into superinstructions, but never elides or reorders
//     the memory accesses themselves, so the touch sequence an
//     instruction stream produces is engine-independent.
//
// # Register-IR invariants (PR 4)
//
// The register tier adds translation-time optimisation, under rules that
// keep every tier bit-exact against the interpreter:
//
//   - Folding is integer-only and excludes trapping ops. Floats are
//     NEVER folded (not even int→float conversions): a value computed at
//     translation time by the Go compiler could legally differ from the
//     runtime arms in NaN bit patterns or contraction, so every float
//     result comes from runtime arithmetic on every tier. Non-NaN float
//     results are bit-identical across tiers (fusions preserve operand
//     order, and IEEE add/mul are bitwise commutative on non-NaN
//     values); NaN payload bits are nondeterministic across tiers —
//     exactly the latitude the wasm spec gives — because the stack
//     tiers share one set of arithmetic arms while the register tier
//     has its own, and hardware NaN propagation follows the operand
//     order each compiled arm happens to use.
//   - CSE (local value numbering) covers pure register computations
//     only — never loads, globals, or trapping ops — so no trap and no
//     memory access is ever elided by reuse; dead-store elimination
//     removes only side-effect-free local stores that are overwritten
//     before any read, branch, call boundary or block end.
//   - Memory accesses are never reordered or elided: the checked access
//     ops route through the same memLoad*/memStore* helpers as the
//     stack tiers (identical bounds traps, messages and touch order).
//   - Hoisting a bounds check is legal only for a window, inside one
//     basic block, in which EVERY access is covered by a guard: each
//     guard proves — per execution — that its accesses' whole span is
//     in bounds and that every touch would be a no-op (no hook, or one
//     EPC-TLB-hot page at the current paging generation), and no call,
//     memory.grow, base-register write or inbound branch target breaks
//     the window. Only then do raw (check-free, touch-free) accesses
//     run; any failed guard transfers to a verbatim checked copy of the
//     window suffix, so paging counters and trap sites are identical on
//     every path (internal/core/tier_test.go pins this under eviction
//     pressure and with the working set resident).
//
// # Superblock-tier invariants (PR 7)
//
// The superblock tier (EngineSuperblock) stacks on the register form: it
// finds innermost self-loop regions (a back-edge to a dominating header
// inside one function) and replaces the header of each one that matches
// an idiom with a trace-enter pseudo-op dispatching to a Go closure. Only the header instruction is
// patched — interior pcs keep their original instructions, so mid-region
// branch targets and guard-failure blobs still execute under the
// register interpreter and re-enter the trace at the next back-edge.
// Rules, in addition to everything above:
//
//   - One trace form exists. An IDIOM trace matches a counted loop
//     (brcmp-ge header over an i32 induction local, constant positive
//     step; the back-edge increment may also be LVN's copy of a
//     body-computed L+step temp, proven affine-equal — the jacobi
//     stencil shape) whose straight-line body is an affine f64 walk —
//     loads and at most one trailing store at addresses
//     c + cL·i + Σ coeffₖ·invₖ scaled by a constant stride, combined by
//     one of a fixed set of templates (fill, copy, binary op, mul-add
//     update, scaled sum, scalar accumulate). Every other loop — integer
//     and sub-word bodies, calls, br_table, return, memory.grow/size — is
//     a bailout (counted in SuperStats) and runs under the register
//     interpreter, the one executor of the register IR. Bailing is always
//     correct, and a bailed loop costs exactly what EngineRegister
//     charges for it.
//   - Float semantics follow the PR 4 rule: nothing is folded at
//     translation time, and idiom templates force product rounding
//     (prod := float64(x*y)) so Go's FMA contraction cannot change bits.
//     Operand order is preserved exactly as the register IR recorded it.
//   - An idiom trace amortises the PR 4 guard to once per loop TRIP: an
//     exact int64 proof (coefficients bounded, index line inside [0,2³²)
//     so u32 wrap is the identity, byte spans in bounds, induction never
//     wrapping past MaxInt32, every access width-aligned so it cannot
//     straddle an EPC-TLB page, and — when a touch hook is installed —
//     all ≤64 pages of every span hot at a generation read once). Under
//     that proof the checked path would perform no touch and no trap, so
//     the raw loop's empty hook sequence is bit-identical. If the proof
//     fails, a checked fallback replays the loop per-iteration through
//     the shared memLoad*/memStore* helpers in exact program order,
//     committing the induction local and accumulator every iteration, so
//     a mid-loop trap leaves the frame exactly as the interpreter would.
//   - The trip guard extends PR 4's hot-page stability assumption from a
//     window to a whole trip. For single-threaded instances — every
//     fidelity configuration in this repo — the proof is exact. Under
//     concurrent cross-instance eviction the generation word can move
//     mid-trip, in which case only touch/fault COUNTS can drift (the
//     same class of slack PR 4's window guards already accept); guest
//     results, traps and memory state remain bit-exact regardless.
//   - Retired-instruction accounting: idiom traces charge one dispatch
//     per iteration plus the trip entry; everything else is the register
//     interpreter's own count, one per executed instruction.
//
// Correctness of the whole stack is carried by a seeded cross-tier
// differential fuzzer (fuzz_tier_test.go): structured random modules run
// under all four engines against a fake EPC pager, comparing results,
// trap kind+message, memory, globals, the exact touch-call sequence and
// fault/eviction counts.
package wasm
