// Package sgxlkl simulates the SGX-LKL library OS, the paper's empirical
// baseline for running *native* code inside SGX enclaves (§V-A): the
// application and its data live on an encrypted disk image that is mapped
// into enclave memory in full, native code executes at full speed inside
// the enclave, and block writes are re-encrypted and written through to
// the untrusted image file.
//
// The disk image is the minimal ext4 stand-in the experiments need: a
// header plus two fixed extents (database and journal) of 4 KiB blocks,
// each block encrypted with a fresh AES-GCM key kept in a key table at
// the end of the image (the dm-crypt + dm-integrity analogue).
//
// Costs reproduced: image generation at build time (Table IIIa), a heavy
// launch (read + decrypt + verify the whole image into enclave memory),
// a large enclave footprint (Table IIIb), and in-enclave I/O that counts
// against the EPC (Figures 4-6).
package sgxlkl

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"twine/internal/hostfs"
	"twine/internal/litedb"
	"twine/internal/sgx"
)

// BlockSize is the image block granularity.
const BlockSize = 4096

// keySlot is the per-block key+tag record in the key table.
const keySlot = 32

var imageMagic = [8]byte{'L', 'K', 'L', 'I', 'M', 'G', '1', 0}

// Header layout (block 0, plaintext):
//
//	magic(8) nBlocks(4) dbCap(4) jCap(4) dbSize(8) jSize(8)
const (
	hdrNBlocksOff = 8
	hdrDBCapOff   = 12
	hdrJCapOff    = 16
	hdrDBSizeOff  = 20
	hdrJSizeOff   = 28
)

// Package errors.
var (
	ErrBadImage  = errors.New("sgxlkl: bad disk image")
	ErrImageFull = errors.New("sgxlkl: extent full")
)

// ImageConfig sizes a disk image.
type ImageConfig struct {
	// Blocks is the number of data blocks (image data size = Blocks*4KiB).
	Blocks int
	// DBFrac is the fraction of blocks given to the database extent
	// (remainder is the journal extent). Default 0.75.
	DBFrac float64
	// Key encrypts the image (shared between image builder and enclave,
	// standing in for SGX-LKL's disk encryption key provisioning).
	Key [16]byte
}

// BuildImage creates an encrypted, zero-filled image file on the host.
// The paper measures this as "Generate disk image" (Table IIIa).
func BuildImage(fs hostfs.FS, path string, cfg ImageConfig) error {
	if cfg.Blocks <= 0 {
		return fmt.Errorf("sgxlkl: non-positive image size")
	}
	if cfg.DBFrac <= 0 || cfg.DBFrac >= 1 {
		cfg.DBFrac = 0.75
	}
	f, err := fs.OpenFile(path, hostfs.OWrite|hostfs.OCreate|hostfs.OTrunc)
	if err != nil {
		return err
	}
	defer f.Close()

	dbCap := int(float64(cfg.Blocks) * cfg.DBFrac)
	jCap := cfg.Blocks - dbCap
	var hdr [BlockSize]byte
	copy(hdr[:8], imageMagic[:])
	binary.BigEndian.PutUint32(hdr[hdrNBlocksOff:], uint32(cfg.Blocks))
	binary.BigEndian.PutUint32(hdr[hdrDBCapOff:], uint32(dbCap))
	binary.BigEndian.PutUint32(hdr[hdrJCapOff:], uint32(jCap))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}

	// Encrypt every (zero) block with a fresh key; the work is what the
	// paper's image generation pays.
	zero := make([]byte, BlockSize)
	ct := make([]byte, BlockSize+16)
	slot := make([]byte, keySlot)
	for b := 0; b < cfg.Blocks; b++ {
		key, tag, err := sealBlock(zero, ct)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(ct[:BlockSize], blockOff(b)); err != nil {
			return err
		}
		copy(slot[:16], key[:])
		copy(slot[16:], tag[:])
		if _, err := f.WriteAt(slot, keyOff(cfg.Blocks, b)); err != nil {
			return err
		}
	}
	return f.Sync()
}

func blockOff(b int) int64 { return BlockSize + int64(b)*BlockSize }

func keyOff(nBlocks, b int) int64 {
	return BlockSize + int64(nBlocks)*BlockSize + int64(b)*keySlot
}

var zeroNonce [12]byte

func sealBlock(plain, ctOut []byte) (key, tag [16]byte, err error) {
	if _, err = rand.Read(key[:]); err != nil {
		return
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return
	}
	out := aead.Seal(ctOut[:0], zeroNonce[:], plain, nil)
	copy(tag[:], out[len(plain):])
	return
}

func openBlock(key, tag [16]byte, ct, plainOut, scratch []byte) error {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return err
	}
	buf := append(scratch[:0], ct...)
	buf = append(buf, tag[:]...)
	if _, err := aead.Open(plainOut[:0], zeroNonce[:], buf, nil); err != nil {
		return fmt.Errorf("%w: block authentication failed: %v", ErrBadImage, err)
	}
	return nil
}

// Runtime is a launched SGX-LKL instance: the decrypted image in enclave
// memory plus the write-through machinery.
type Runtime struct {
	enclave *sgx.Enclave
	fs      hostfs.FS
	file    hostfs.File

	nBlocks int
	dbCap   int
	jCap    int
	dbSize  int64
	jSize   int64

	plain    []byte // decrypted image (conceptually enclave memory)
	dirty    map[int]struct{}
	hdrDirty bool

	arena   int64 // enclave arena for EPC accounting
	arenaOK bool

	scratch [BlockSize + 16]byte
	ctBuf   [BlockSize + 16]byte
	closed  bool
}

// Launch loads the image into the enclave, decrypting and verifying every
// block — the heavyweight startup the paper measures (Table IIIa: 6.1 s
// on their testbed).
func Launch(enclave *sgx.Enclave, fs hostfs.FS, path string, key [16]byte) (*Runtime, error) {
	_ = key // the per-block keys live in the key table; `key` reserved for header MAC extensions
	r := &Runtime{enclave: enclave, fs: fs, dirty: make(map[int]struct{})}
	err := r.ocall("lkl.open", func() error {
		f, oerr := fs.OpenFile(path, hostfs.ORead|hostfs.OWrite)
		r.file = f
		return oerr
	})
	if err != nil {
		return nil, err
	}
	var hdr [BlockSize]byte
	if err := r.readHost(hdr[:], 0); err != nil {
		return nil, err
	}
	if [8]byte(hdr[:8]) != imageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	r.nBlocks = int(binary.BigEndian.Uint32(hdr[hdrNBlocksOff:]))
	r.dbCap = int(binary.BigEndian.Uint32(hdr[hdrDBCapOff:]))
	r.jCap = int(binary.BigEndian.Uint32(hdr[hdrJCapOff:]))
	r.dbSize = int64(binary.BigEndian.Uint64(hdr[hdrDBSizeOff:]))
	r.jSize = int64(binary.BigEndian.Uint64(hdr[hdrJSizeOff:]))
	if r.nBlocks <= 0 || r.dbCap+r.jCap != r.nBlocks {
		return nil, fmt.Errorf("%w: inconsistent extents", ErrBadImage)
	}

	// Claim enclave memory for the whole image (the SGX-LKL footprint).
	if enclave != nil {
		need := int64(r.nBlocks)*BlockSize + sgx.PageSize
		off, err := enclave.Allocator().Alloc(need)
		if err != nil {
			return nil, fmt.Errorf("sgxlkl: enclave too small for image: %w", err)
		}
		r.arena = (off + sgx.PageSize - 1) &^ (sgx.PageSize - 1)
		r.arenaOK = true
	}
	r.plain = make([]byte, r.nBlocks*BlockSize)

	// Read, decrypt, verify every block.
	slot := make([]byte, keySlot)
	for b := 0; b < r.nBlocks; b++ {
		if err := r.readHost(r.ctBuf[:BlockSize], blockOff(b)); err != nil {
			return nil, err
		}
		if err := r.readHost(slot, keyOff(r.nBlocks, b)); err != nil {
			return nil, err
		}
		var bkey, btag [16]byte
		copy(bkey[:], slot[:16])
		copy(btag[:], slot[16:])
		r.touch(b)
		if err := openBlock(bkey, btag, r.ctBuf[:BlockSize], r.plain[b*BlockSize:(b+1)*BlockSize], r.scratch[:]); err != nil {
			return nil, fmt.Errorf("block %d: %w", b, err)
		}
	}
	return r, nil
}

func (r *Runtime) ocall(name string, fn func() error) error {
	if r.enclave == nil || !r.enclave.Inside() {
		return fn()
	}
	return r.enclave.OCall(name, fn)
}

func (r *Runtime) readHost(p []byte, off int64) error {
	return r.ocall("lkl.read", func() error {
		n, err := r.file.ReadAt(p, off)
		if err != nil {
			return err
		}
		for i := n; i < len(p); i++ {
			p[i] = 0
		}
		return nil
	})
}

// touch charges EPC residency for a block of the in-enclave image.
func (r *Runtime) touch(block int) {
	if r.arenaOK {
		_ = r.enclave.Memory().Touch(r.arena+int64(block)*BlockSize, BlockSize)
	}
}

// flushBlock re-encrypts one block and writes it through to the host.
func (r *Runtime) flushBlock(b int) error {
	r.touch(b)
	key, tag, err := sealBlock(r.plain[b*BlockSize:(b+1)*BlockSize], r.ctBuf[:])
	if err != nil {
		return err
	}
	return r.ocall("lkl.write", func() error {
		if _, err := r.file.WriteAt(r.ctBuf[:BlockSize], blockOff(b)); err != nil {
			return err
		}
		var slot [keySlot]byte
		copy(slot[:16], key[:])
		copy(slot[16:], tag[:])
		_, err := r.file.WriteAt(slot[:], keyOff(r.nBlocks, b))
		return err
	})
}

func (r *Runtime) flushHeader() error {
	var hdr [BlockSize]byte
	copy(hdr[:8], imageMagic[:])
	binary.BigEndian.PutUint32(hdr[hdrNBlocksOff:], uint32(r.nBlocks))
	binary.BigEndian.PutUint32(hdr[hdrDBCapOff:], uint32(r.dbCap))
	binary.BigEndian.PutUint32(hdr[hdrJCapOff:], uint32(r.jCap))
	binary.BigEndian.PutUint64(hdr[hdrDBSizeOff:], uint64(r.dbSize))
	binary.BigEndian.PutUint64(hdr[hdrJSizeOff:], uint64(r.jSize))
	return r.ocall("lkl.write", func() error {
		_, err := r.file.WriteAt(hdr[:], 0)
		return err
	})
}

// Sync flushes all dirty blocks and the header.
func (r *Runtime) Sync() error {
	for b := range r.dirty {
		if err := r.flushBlock(b); err != nil {
			return err
		}
		delete(r.dirty, b)
	}
	if r.hdrDirty {
		if err := r.flushHeader(); err != nil {
			return err
		}
		r.hdrDirty = false
	}
	return r.ocall("lkl.fsync", func() error { return r.file.Sync() })
}

// Close flushes and releases the image.
func (r *Runtime) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if err := r.Sync(); err != nil {
		return err
	}
	return r.ocall("lkl.close", func() error { return r.file.Close() })
}

// ImageBytes reports the in-enclave image footprint.
func (r *Runtime) ImageBytes() int64 { return int64(len(r.plain)) }

// --- VFS over the image ---

// extent identifies one of the two image regions.
type extent int

const (
	extDB extent = iota
	extJournal
)

// VFS returns a litedb VFS backed by the image: the main database file
// maps to the db extent, any "*-journal" name to the journal extent.
func (r *Runtime) VFS() litedb.VFS { return &lklVFS{rt: r} }

type lklVFS struct{ rt *Runtime }

func (v *lklVFS) extentOf(name string) extent {
	if strings.HasSuffix(name, "-journal") {
		return extJournal
	}
	return extDB
}

// Open implements litedb.VFS.
func (v *lklVFS) Open(name string, create bool) (litedb.DBFile, error) {
	e := v.extentOf(name)
	size := v.rt.sizeOf(e)
	if size == 0 && !create {
		return nil, fmt.Errorf("%w: %s", litedb.ErrNotFound, name)
	}
	return &lklFile{rt: v.rt, ext: e}, nil
}

// Delete implements litedb.VFS.
func (v *lklVFS) Delete(name string) error {
	e := v.extentOf(name)
	v.rt.setSize(e, 0)
	v.rt.hdrDirty = true
	return v.rt.flushHeader()
}

// Exists implements litedb.VFS.
func (v *lklVFS) Exists(name string) (bool, error) {
	return v.rt.sizeOf(v.extentOf(name)) > 0, nil
}

func (r *Runtime) sizeOf(e extent) int64 {
	if e == extDB {
		return r.dbSize
	}
	return r.jSize
}

func (r *Runtime) setSize(e extent, size int64) {
	if e == extDB {
		r.dbSize = size
	} else {
		r.jSize = size
	}
	r.hdrDirty = true
}

func (r *Runtime) extentBase(e extent) int {
	if e == extDB {
		return 0
	}
	return r.dbCap
}

func (r *Runtime) extentCap(e extent) int64 {
	if e == extDB {
		return int64(r.dbCap) * BlockSize
	}
	return int64(r.jCap) * BlockSize
}

type lklFile struct {
	rt  *Runtime
	ext extent
}

// ReadAt reads from the decrypted in-enclave image.
func (f *lklFile) ReadAt(p []byte, off int64) (int, error) {
	size := f.rt.sizeOf(f.ext)
	if off >= size {
		return 0, nil
	}
	n := int64(len(p))
	if off+n > size {
		n = size - off
	}
	base := int64(f.rt.extentBase(f.ext)) * BlockSize
	for b := off / BlockSize; b <= (off+n-1)/BlockSize; b++ {
		f.rt.touch(f.rt.extentBase(f.ext) + int(b))
	}
	copy(p[:n], f.rt.plain[base+off:base+off+n])
	return int(n), nil
}

// WriteAt writes into the image and marks blocks for write-through.
func (f *lklFile) WriteAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > f.rt.extentCap(f.ext) {
		return 0, fmt.Errorf("%w (%s extent, need %d bytes of %d)",
			ErrImageFull, map[extent]string{extDB: "db", extJournal: "journal"}[f.ext],
			off+int64(len(p)), f.rt.extentCap(f.ext))
	}
	base := int64(f.rt.extentBase(f.ext)) * BlockSize
	copy(f.rt.plain[base+off:], p)
	first := f.rt.extentBase(f.ext) + int(off/BlockSize)
	last := f.rt.extentBase(f.ext) + int((off+int64(len(p))-1)/BlockSize)
	for b := first; b <= last; b++ {
		f.rt.touch(b)
		f.rt.dirty[b] = struct{}{}
	}
	if off+int64(len(p)) > f.rt.sizeOf(f.ext) {
		f.rt.setSize(f.ext, off+int64(len(p)))
	}
	return len(p), nil
}

// Truncate implements DBFile.
func (f *lklFile) Truncate(size int64) error {
	if size > f.rt.extentCap(f.ext) {
		return ErrImageFull
	}
	cur := f.rt.sizeOf(f.ext)
	if size > cur {
		base := int64(f.rt.extentBase(f.ext)) * BlockSize
		for i := base + cur; i < base+size; i++ {
			f.rt.plain[i] = 0
		}
	}
	f.rt.setSize(f.ext, size)
	return nil
}

// Sync flushes this file's extent (all dirty blocks — block granularity
// does not distinguish extents, matching dm-crypt behaviour).
func (f *lklFile) Sync() error { return f.rt.Sync() }

// Size implements DBFile.
func (f *lklFile) Size() (int64, error) { return f.rt.sizeOf(f.ext), nil }

// Close implements DBFile (extents stay mapped).
func (f *lklFile) Close() error { return nil }
