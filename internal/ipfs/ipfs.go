package ipfs

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"twine/internal/hostfs"
	"twine/internal/sgx"
)

// NodeSize is the protected-file node granularity (4 KiB, one SGX page).
const NodeSize = 4096

// Intel MHT fan-out: 96 data children + 32 MHT children per MHT node.
const (
	dataPerMHT = 96
	mhtPerMHT  = 32
	entrySize  = 32 // 16-byte AES key + 16-byte GCM tag
)

// Mode selects the standard (Intel) or optimized (paper §V-F) node
// lifecycle.
type Mode int

const (
	// ModeStandard is the Intel SGX SDK behaviour.
	ModeStandard Mode = iota
	// ModeOptimized applies the paper's memset and zero-copy fixes.
	ModeOptimized
)

func (m Mode) String() string {
	if m == ModeOptimized {
		return "optimized"
	}
	return "standard"
}

// Package errors.
var (
	ErrIntegrity   = errors.New("ipfs: integrity check failed")
	ErrBadName     = errors.New("ipfs: file name mismatch")
	ErrSeekPastEnd = errors.New("ipfs: seek beyond end of file")
	ErrClosed      = errors.New("ipfs: file closed")
	ErrReadOnly    = errors.New("ipfs: file opened read-only")
)

// DefaultCacheNodes is the SDK's default node-cache capacity.
const DefaultCacheNodes = 48

// Options configures an FS.
type Options struct {
	// Mode selects standard or optimized behaviour. Default standard.
	Mode Mode
	// CacheNodes is the per-file LRU node cache capacity.
	CacheNodes int
	// Timings receives Figure 7's time attribution. nil, as on every
	// serving path, means no clock is read.
	Timings *Timings
}

// Timings is the measured half of Figure 7 (§V-F), in nanoseconds of wall
// time, summed over every File of the FS it was handed to: ReadPath is the
// whole of File.Read, and Crypto, Memset and Boundary are the parts of the
// read and write paths spent in AES-GCM, in the standard mode's node
// clearing, and outside the enclave (a classic OCALL or a ring ride, the
// host's own work included).
type Timings struct {
	ReadPath, Crypto, Memset, Boundary atomic.Int64
}

// The selectors name the total a span is charged to.
func inReadPath(t *Timings) *atomic.Int64 { return &t.ReadPath }
func inCrypto(t *Timings) *atomic.Int64   { return &t.Crypto }
func inMemset(t *Timings) *atomic.Int64   { return &t.Memset }
func inBoundary(t *Timings) *atomic.Int64 { return &t.Boundary }

// span is a timed region in flight. The zero span, which a nil *Timings
// starts, reads no clock and records nothing.
type span struct {
	into  *atomic.Int64
	start time.Time
}

func (t *Timings) start(field func(*Timings) *atomic.Int64) span {
	if t == nil {
		return span{}
	}
	return span{field(t), time.Now()}
}

func (s span) stop() {
	if s.into != nil {
		s.into.Add(int64(time.Since(s.start)))
	}
}

// FS is a protected file system living partly inside an enclave (trusted
// library) and partly outside (untrusted backing store reached via OCALLs).
//
// The FS value itself is immutable after New and may be shared by any
// number of concurrently open Files (a concurrent runtime's instances
// each open their own handles); per-handle state lives in File. The
// node-cache counters are atomics so concurrent handles account without
// racing.
type FS struct {
	enclave *sgx.Enclave // nil means "no enclave" (plain library use)
	backing hostfs.FS
	opt     Options

	// epcArena is the enclave-memory region used to account node-buffer
	// EPC residency (see node.go). Zero when enclave is nil.
	epcArena     int64
	epcArenaOK   bool
	epcSlotBytes int64

	// Node-cache accounting across every File of this FS (atomic): a hit
	// serves a node from the in-enclave LRU, a miss walks the Merkle path
	// through the boundary. The ratio is the §V-F knob CacheNodes turns.
	cacheHits   int64
	cacheMisses int64
}

// CacheStats returns the node-cache hit/miss totals across all files.
func (fs *FS) CacheStats() (hits, misses int64) {
	return atomic.LoadInt64(&fs.cacheHits), atomic.LoadInt64(&fs.cacheMisses)
}

// cacheHit/cacheMiss account one lookup; safe from concurrent Files.
func (fs *FS) cacheHit() {
	atomic.AddInt64(&fs.cacheHits, 1)
}

func (fs *FS) cacheMiss() {
	atomic.AddInt64(&fs.cacheMisses, 1)
}

// New builds a protected FS over the untrusted backing store. enclave may
// be nil, in which case keys fall back to a file-name-derived key and no
// OCALL costs are charged (useful for unit tests of the data structure).
func New(enclave *sgx.Enclave, backing hostfs.FS, opt Options) *FS {
	if opt.CacheNodes <= 0 {
		opt.CacheNodes = DefaultCacheNodes
	}
	// A Merkle path (data node plus MHT ancestors) must fit in the cache
	// with headroom, or loads could evict their own parents mid-walk.
	if opt.CacheNodes < 8 {
		opt.CacheNodes = 8
	}
	fs := &FS{enclave: enclave, backing: backing, opt: opt}
	if enclave != nil {
		// Two pages per slot (ciphertext + plaintext) in standard mode;
		// optimized keeps only plaintext but the arena is sized for both.
		fs.epcSlotBytes = 2 * NodeSize
		need := int64(opt.CacheNodes)*fs.epcSlotBytes + sgx.PageSize
		if off, err := enclave.Allocator().Alloc(need); err == nil {
			fs.epcArena = (off + sgx.PageSize - 1) &^ (sgx.PageSize - 1)
			fs.epcArenaOK = true
		}
	}
	return fs
}

// Mode returns the FS operating mode.
func (fs *FS) Mode() Mode { return fs.opt.Mode }

// ocall runs fn outside the enclave, or directly when no enclave is
// attached. Metadata-sized requests; node I/O uses ocallN with the node
// payload so the switchless policy sees the real transfer size.
func (fs *FS) ocall(name string, fn func() error) error {
	return fs.ocallN(name, 0, fn)
}

// ocallN crosses the boundary for a request marshalling payload bytes.
// With a switchless ring enabled on the enclave the request rides it (node
// reads and writes are TWINE's hottest OCALLs — §V-F measures them as a
// dominant share of the random-read breakdown); without one this is
// exactly the classic two-transition OCall. Every crossing of the protected
// FS comes through here, which is why Timings.Boundary is timed here and
// sgx times nothing.
func (fs *FS) ocallN(name string, payload int, fn func() error) error {
	if fs.enclave == nil || !fs.enclave.Inside() {
		return fn()
	}
	sp := fs.opt.Timings.start(inBoundary)
	err := fs.enclave.SwitchlessOCall(name, payload, fn)
	sp.stop()
	return err
}

// fileKey derives the automatic file key: bound to the enclave identity
// and the file name, as Intel's auto-key scheme is (§IV-E).
func (fs *FS) fileKey(name string) [16]byte {
	var key [16]byte
	if fs.enclave != nil {
		k := fs.enclave.SealKey("ipfs:" + name)
		copy(key[:], k[:16])
		return key
	}
	// Library use without an enclave: name-derived development key.
	sum := gcmKDF("ipfs-dev-key:" + name)
	copy(key[:], sum[:16])
	return key
}

// Open opens (or creates, with hostfs.OCreate) a protected file using the
// automatic enclave-derived key.
func (fs *FS) Open(name string, flag int) (*File, error) {
	return fs.OpenWithKey(name, flag, fs.fileKey(name))
}

// OpenWithKey opens a protected file with an explicit 128-bit key,
// mirroring sgx_fopen's key parameter for portable files.
func (fs *FS) OpenWithKey(name string, flag int, key [16]byte) (*File, error) {
	var backing hostfs.File
	err := fs.ocall("ipfs.open", func() error {
		var oerr error
		backing, oerr = fs.backing.OpenFile(name, flag|hostfs.ORead|hostfs.OWrite)
		return oerr
	})
	if err != nil {
		return nil, err
	}
	f := newFile(fs, name, backing, key, flag)
	if err := f.loadMeta(); err != nil {
		cerr := f.closeBacking()
		_ = cerr
		return nil, err
	}
	return f, nil
}

// Remove deletes a protected file from the untrusted store. As in Intel's
// design this needs no key: deletion is exactly the attack IPFS does not
// defend against.
func (fs *FS) Remove(name string) error {
	return fs.ocall("ipfs.remove", func() error { return fs.backing.Remove(name) })
}

// Exists reports whether the untrusted store has a file by this name.
func (fs *FS) Exists(name string) bool {
	found := false
	_ = fs.ocall("ipfs.stat", func() error {
		_, err := fs.backing.Stat(name)
		found = err == nil
		return nil
	})
	return found
}

// --- crypto helpers ---

var zeroNonce [12]byte

// sealNodeInto encrypts a NodeSize plaintext with a fresh random key into
// dst (which must hold NodeSize bytes of ciphertext), returning the key
// and GCM tag to store in the parent entry. scratch must have capacity for
// NodeSize+16 bytes. A fresh key per write makes the zero nonce safe
// (Intel's scheme).
func sealNodeInto(plaintext, dst, scratch []byte) (key [16]byte, tag [16]byte, err error) {
	if _, err = rand.Read(key[:]); err != nil {
		return key, tag, err
	}
	aead, err := newAEAD(key)
	if err != nil {
		return key, tag, err
	}
	out := aead.Seal(scratch[:0], zeroNonce[:], plaintext, nil)
	copy(dst, out[:len(plaintext)])
	copy(tag[:], out[len(plaintext):])
	return key, tag, nil
}

// openNode authenticates and decrypts ciphertext (with its detached tag)
// into dst, which must hold len(ciphertext) bytes. scratch must have
// capacity for NodeSize+16 bytes.
func openNode(key, tag [16]byte, ciphertext, dst, scratch []byte) error {
	aead, err := newAEAD(key)
	if err != nil {
		return err
	}
	buf := append(scratch[:0], ciphertext...)
	buf = append(buf, tag[:]...)
	if _, err := aead.Open(dst[:0], zeroNonce[:], buf, nil); err != nil {
		return fmt.Errorf("%w: %v", ErrIntegrity, err)
	}
	return nil
}

func newAEAD(key [16]byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

func gcmKDF(s string) [32]byte {
	// Small deterministic KDF for non-enclave keys.
	var out [32]byte
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	for i := range out {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		out[i] = byte(h >> 56)
	}
	return out
}
