// Package ipfs reimplements the Intel Protected File System (IPFS) that
// TWINE maps WASI file operations onto (paper §IV-D/E): files stored on the
// untrusted host are structured as a Merkle tree of 4 KiB nodes, each node
// encrypted and authenticated with AES-GCM under a fresh random key kept in
// its parent node, with the root key/MAC sealed into a metadata node under
// a key derived from the enclave's sealing identity. Confidentiality and
// integrity hold at rest; rollback of whole files is (deliberately, as in
// Intel's design) not detected.
//
// The node layout follows Intel's: node 0 is the metadata node; Merkle-hash
// -tree (MHT) nodes each hold 96 entries for data-node children and 32
// entries for MHT children; a data node carries 4 KiB of file plaintext.
//
// Two operating modes reproduce the paper's §V-F study:
//
//   - ModeStandard mirrors the SGX SDK implementation: every node added to
//     the LRU cache first has its entire structure cleared (memset), the
//     plaintext buffer is cleared again when a node is dropped, and the
//     ciphertext read by the OCALL is copied into enclave memory before
//     being decrypted (the edger8r-generated copy).
//   - ModeOptimized applies the paper's fixes: no clearing (fields are
//     simply assigned), and decryption reads directly from the untrusted
//     buffer, MAC-then-encrypt style, so the enclave keeps no ciphertext
//     copy at all.
//
// # Cost-model invariants
//
// Every byte leaving the enclave is ciphertext, and every boundary
// crossing is visible to the cost model: node reads and writes funnel
// through one size-aware helper (ocallN with a NodeSize payload), so when
// the enclave has a switchless ring (§V-F's dominant OCALL share, PR 2)
// they ride it, and when it does not they pay exactly one classic OCALL
// each — bit-identical to the pre-switchless runtime. Node-cache EPC
// residency is charged against the enclave memory arena, so protected-file
// working sets larger than the EPC page exactly like the paper's Figure 5.
//
// # Refreshing a handle another handle wrote behind
//
// A reader that keeps a file open while another handle (another enclave
// of the same platform) commits to it calls File.Refresh instead of
// closing and re-opening. The rule: a refresh with an unchanged root costs
// one metadata read; a refresh after a commit that changed c pages
// re-reads only the MHT nodes on those pages' paths and evicts only those
// pages, independent of file size and of how full either cache is. It
// rests on two properties of the format. The metadata node authenticates
// the root entry under the file key, so it is the one node a reader can
// trust without a parent; and every write seals its node under a fresh
// random key stored in the parent's entry, so two equal (key, tag) entries
// name the same bytes, and a cached node under an unchanged entry is
// still the node the new root vouches for. Refresh therefore diffs each
// changed MHT node against its cached old plaintext and follows only the
// entries that differ (refresh.go). Where the old plaintext is gone from
// the cache there is nothing to diff, and the whole subtree is dropped
// and reported. Every node read on the way is authenticated as on any
// other read, and a failure empties the cache. What Refresh cannot see is
// what Open cannot see either: a host that serves the previous metadata
// node is replaying an older file (TestRollbackNotDetected), and the
// reader keeps its old, authenticated snapshot.
//
// # Figure 7's timers
//
// Options.Timings, when set, receives the measured half of the paper's
// random-read breakdown as four atomic nanosecond totals: ReadPath (all of
// File.Read), Crypto (AES-GCM over nodes), Memset (the standard mode's node
// clearing) and Boundary (everything ocallN spends outside the enclave:
// the ride or the two transitions, the edge copy and the host's own I/O).
// bench.RunBreakdown derives the other two series as remainders. With
// Timings nil no clock is read; this is the only in-line timing in the
// repository, everything else counts.
package ipfs
