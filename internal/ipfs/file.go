package ipfs

import (
	"container/list"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"twine/internal/hostfs"
)

// Seek whences (POSIX values).
const (
	SeekStart   = 0
	SeekCurrent = 1
	SeekEnd     = 2
)

var metaMagic = [8]byte{'T', 'W', 'P', 'F', 'S', 'v', '1', 0}

const metaVersion = 1

// File is an open protected file. Like Intel's sgx_fopen handles it keeps
// its own cursor; Read and Write operate at the cursor and Seek moves it
// (never beyond the end of file — the limitation TWINE's WASI layer works
// around by explicitly extending files with null bytes, §IV-E).
//
// A File is not safe for concurrent use.
type File struct {
	fs      *FS
	name    string
	backing hostfs.File
	key     [16]byte
	flag    int

	size      int64
	offset    int64
	dataNodes int64 // number of data nodes materialised

	haveRoot  bool
	rootKey   [16]byte
	rootTag   [16]byte
	metaDirty bool

	cache     map[int64]*node
	lru       *list.List
	freeSlots []int
	bufPool   [][]byte
	evicting  bool

	// untrusted is the host-side scratch buffer OCALLs read into /
	// write from; conceptually it lives outside the enclave.
	untrusted [NodeSize]byte
	// scratch backs AEAD seal/open so node crypto does not allocate.
	scratch [NodeSize + 16]byte

	closed bool
}

func newFile(fs *FS, name string, backing hostfs.File, key [16]byte, flag int) *File {
	f := &File{
		fs:      fs,
		name:    name,
		backing: backing,
		key:     key,
		flag:    flag,
		cache:   make(map[int64]*node),
		lru:     list.New(),
	}
	for i := fs.opt.CacheNodes - 1; i >= 0; i-- {
		f.freeSlots = append(f.freeSlots, i)
	}
	return f
}

func (f *File) writable() bool { return f.flag&hostfs.OWrite != 0 }

// Size returns the current logical file size.
func (f *File) Size() int64 { return f.size }

// Tell returns the cursor position.
func (f *File) Tell() int64 { return f.offset }

// Name returns the file name the handle was opened with.
func (f *File) Name() string { return f.name }

// CachedNodes reports how many nodes the LRU currently holds (testing aid).
func (f *File) CachedNodes() int { return len(f.cache) }

// --- metadata node ---

func (f *File) loadMeta() error {
	var hostSize int64
	err := f.fs.ocall("ipfs.stat", func() error {
		info, serr := f.backing.Stat()
		if serr != nil {
			return serr
		}
		hostSize = info.Size
		return nil
	})
	if err != nil {
		return err
	}
	if hostSize == 0 {
		// Fresh file.
		f.size = 0
		f.metaDirty = true
		return nil
	}
	if hostSize < NodeSize {
		return fmt.Errorf("%w: truncated metadata node", ErrIntegrity)
	}
	rootKey, rootTag, size, err := f.readMeta()
	if err != nil {
		return err
	}
	f.setRoot(rootKey, rootTag, size)
	return nil
}

// readMeta reads the metadata node (one boundary ride) and authenticates
// it under the file key and name, returning the root entry and the file
// size it seals. A node that is short, torn or absent fails here: only
// loadMeta, which has seen a zero-length host file, may call a file fresh.
func (f *File) readMeta() (rootKey, rootTag [16]byte, size int64, err error) {
	var meta [NodeSize]byte
	if err = f.readPhys(0, meta[:]); err != nil {
		return
	}
	if [8]byte(meta[0:8]) != metaMagic {
		err = fmt.Errorf("%w: bad magic", ErrIntegrity)
		return
	}
	if binary.LittleEndian.Uint32(meta[8:12]) != metaVersion {
		err = fmt.Errorf("%w: unsupported version", ErrIntegrity)
		return
	}
	nonce := meta[12:24]
	ct := meta[24 : 24+40+16] // rootKey(16) rootTag(16) size(8) + GCM tag(16)
	aead, err := newAEAD(f.key)
	if err != nil {
		return
	}
	pt, err := aead.Open(nil, nonce, ct, []byte(f.name))
	if err != nil {
		err = fmt.Errorf("%w: metadata authentication (wrong key or renamed file?)", ErrBadName)
		return
	}
	copy(rootKey[:], pt[0:16])
	copy(rootTag[:], pt[16:32])
	size = int64(binary.LittleEndian.Uint64(pt[32:40]))
	return
}

// setRoot adopts an authenticated metadata node's content.
func (f *File) setRoot(rootKey, rootTag [16]byte, size int64) {
	f.rootKey, f.rootTag, f.size = rootKey, rootTag, size
	f.haveRoot = size > 0
	f.dataNodes = (size + NodeSize - 1) / NodeSize
}

func (f *File) writeMeta() error {
	var meta [NodeSize]byte
	copy(meta[0:8], metaMagic[:])
	binary.LittleEndian.PutUint32(meta[8:12], metaVersion)
	nonce := meta[12:24]
	if _, err := rand.Read(nonce); err != nil {
		return err
	}
	var pt [40]byte
	copy(pt[0:16], f.rootKey[:])
	copy(pt[16:32], f.rootTag[:])
	binary.LittleEndian.PutUint64(pt[32:40], uint64(f.size))
	aead, err := newAEAD(f.key)
	if err != nil {
		return err
	}
	aead.Seal(meta[24:24], nonce, pt[:], []byte(f.name))
	if err := f.writePhys(0, meta[:]); err != nil {
		return err
	}
	f.metaDirty = false
	return nil
}

// --- raw node I/O (crossing the enclave boundary) ---

// readPhys reads the physical node into dst via an OCALL. dst is treated
// as untrusted memory here; the trusted copy-in happens in loadNode.
func (f *File) readPhys(phys int64, dst []byte) error {
	return f.fs.ocallN("ipfs.read", NodeSize, func() error {
		n, err := f.backing.ReadAt(dst, phys*NodeSize)
		if err != nil {
			return err
		}
		if n < len(dst) {
			// Zero-fill short reads (sparse region).
			for i := n; i < len(dst); i++ {
				dst[i] = 0
			}
		}
		return nil
	})
}

func (f *File) writePhys(phys int64, src []byte) error {
	return f.fs.ocallN("ipfs.write", NodeSize, func() error {
		_, err := f.backing.WriteAt(src, phys*NodeSize)
		return err
	})
}

// --- node cache ---

// touchSlot charges EPC residency for one page of a cache slot.
// page 0 = plaintext buffer, page 1 = ciphertext buffer.
func (f *File) touchSlot(n *node, page int64) {
	if n == nil || n.slot < 0 || !f.fs.epcArenaOK {
		return
	}
	off := f.fs.epcArena + int64(n.slot)*f.fs.epcSlotBytes + page*NodeSize
	_ = f.fs.enclave.Memory().Touch(off, NodeSize)
}

// insertNode places n into the cache, evicting as needed, and applies the
// ModeStandard node-clearing cost. It returns the node that ends up
// representing n.phys: eviction write-backs can fault the very node being
// inserted back in through its parent chain, in which case the freshly
// loaded (and possibly already re-dirtied) copy must win — inserting n
// over it would orphan live entries and corrupt the tree.
func (f *File) insertNode(n *node) (*node, error) {
	if !f.evicting {
		for len(f.cache) >= f.fs.opt.CacheNodes {
			if err := f.evictOne(); err != nil {
				return nil, err
			}
		}
	}
	if existing, ok := f.cache[n.phys]; ok {
		f.putBuf(n.plain)
		f.putBuf(n.cipher)
		f.touchLRU(existing)
		return existing, nil
	}
	if len(f.freeSlots) > 0 {
		n.slot = f.freeSlots[len(f.freeSlots)-1]
		f.freeSlots = f.freeSlots[:len(f.freeSlots)-1]
	} else {
		n.slot = -1
	}
	if f.fs.opt.Mode == ModeStandard {
		// Intel clears the whole node structure on insertion: both 4 KiB
		// buffers plus metadata, touching the corresponding EPC pages.
		sp := f.fs.opt.Timings.start(inMemset)
		f.touchSlot(n, 0)
		f.touchSlot(n, 1)
		clear(n.plain)
		clear(n.cipher)
		sp.stop()
	}
	n.elem = f.lru.PushFront(n)
	f.cache[n.phys] = n
	return n, nil
}

func (f *File) newNode(phys int64, isMHT bool, idx int64) *node {
	n := &node{phys: phys, isMHT: isMHT, idx: idx, slot: -1}
	n.plain = f.takeBuf()
	if f.fs.opt.Mode == ModeStandard {
		n.cipher = f.takeBuf()
	}
	return n
}

// takeBuf reuses a buffer from the pool when available. Reused buffers may
// hold stale plaintext; every consumer either fully overwrites them
// (decrypt) or clears them (fresh/sparse nodes), mirroring Intel's node
// recycling.
func (f *File) takeBuf() []byte {
	if n := len(f.bufPool); n > 0 {
		b := f.bufPool[n-1]
		f.bufPool = f.bufPool[:n-1]
		return b
	}
	return make([]byte, NodeSize)
}

func (f *File) putBuf(b []byte) {
	if b != nil {
		f.bufPool = append(f.bufPool, b)
	}
}

// touchLRU marks n most recently used.
func (f *File) touchLRU(n *node) { f.lru.MoveToFront(n.elem) }

// evictOne drops the least recently used node, writing it back if dirty
// and applying the ModeStandard plaintext-clearing cost.
func (f *File) evictOne() error {
	back := f.lru.Back()
	if back == nil {
		return nil
	}
	victim := back.Value.(*node)
	f.evicting = true
	err := f.writeBack(victim)
	f.evicting = false
	if err != nil {
		return err
	}
	f.release(victim)
	return nil
}

// release removes a node that holds nothing unwritten from the cache and
// recycles its slot and buffers.
func (f *File) release(n *node) {
	f.lru.Remove(n.elem)
	delete(f.cache, n.phys)
	if f.fs.opt.Mode == ModeStandard {
		// Intel clears the plaintext buffer before releasing the node.
		sp := f.fs.opt.Timings.start(inMemset)
		f.touchSlot(n, 0)
		clear(n.plain)
		sp.stop()
	}
	if n.slot >= 0 {
		f.freeSlots = append(f.freeSlots, n.slot)
	}
	f.putBuf(n.plain)
	f.putBuf(n.cipher)
}

// writeBack encrypts a dirty node with a fresh key, stores the (key, tag)
// entry in its parent, and writes the ciphertext outside via OCALL.
func (f *File) writeBack(n *node) error {
	if !n.dirty {
		return nil
	}
	var key, tag [16]byte
	var err error
	sp := f.fs.opt.Timings.start(inCrypto)
	if f.fs.opt.Mode == ModeStandard {
		// Encrypt into the enclave-side ciphertext buffer...
		f.touchSlot(n, 0)
		f.touchSlot(n, 1)
		key, tag, err = sealNodeInto(n.plain, n.cipher, f.scratch[:])
		sp.stop()
		if err != nil {
			return err
		}
		// ...then cross the boundary: edger8r copies it out.
		if err := f.fs.ocallN("ipfs.write", NodeSize, func() error {
			copy(f.untrusted[:], n.cipher)
			_, werr := f.backing.WriteAt(f.untrusted[:], n.phys*NodeSize)
			return werr
		}); err != nil {
			return err
		}
	} else {
		// Optimized: encrypt straight into the untrusted buffer.
		f.touchSlot(n, 0)
		key, tag, err = sealNodeInto(n.plain, f.untrusted[:], f.scratch[:])
		sp.stop()
		if err != nil {
			return err
		}
		if err := f.fs.ocallN("ipfs.write", NodeSize, func() error {
			_, werr := f.backing.WriteAt(f.untrusted[:], n.phys*NodeSize)
			return werr
		}); err != nil {
			return err
		}
	}
	n.dirty = false
	return f.storeEntry(n, key, tag)
}

// storeEntry records a child's fresh (key, tag) in its parent.
func (f *File) storeEntry(n *node, key, tag [16]byte) error {
	if n.isMHT && n.idx == 0 {
		f.rootKey, f.rootTag = key, tag
		f.haveRoot = true
		f.metaDirty = true
		return nil
	}
	var parentIdx int64
	var slot int
	if n.isMHT {
		parentIdx, slot = mhtParent(n.idx)
	} else {
		parentIdx, slot = dataParent(n.idx)
	}
	parent, err := f.loadMHT(parentIdx)
	if err != nil {
		return err
	}
	f.touchSlot(parent, 0)
	parent.setEntry(slot, key, tag)
	return nil
}

// loadMHT returns MHT node k, reading and verifying it (or materialising
// an empty one if it has never been written).
func (f *File) loadMHT(k int64) (*node, error) {
	phys := mhtPhys(k)
	if n, ok := f.cache[phys]; ok {
		f.fs.cacheHit()
		f.touchLRU(n)
		return n, nil
	}
	f.fs.cacheMiss()
	// Resolve the parent entry before inserting, so the eviction the
	// insert may trigger cannot race with the parent lookup.
	var key, tag [16]byte
	exists := false
	if k == 0 {
		if f.haveRoot {
			key, tag, exists = f.rootKey, f.rootTag, true
		}
	} else {
		parentIdx, slot := mhtParent(k)
		parent, err := f.loadMHT(parentIdx)
		if err != nil {
			return nil, err
		}
		if !parent.entryIsZero(slot) {
			key, tag = parent.entry(slot)
			exists = true
		}
	}
	n := f.newNode(phys, true, k)
	inserted, err := f.insertNode(n)
	if err != nil {
		return nil, err
	}
	if inserted != n {
		// Faulted in by an eviction write-back during the insert; it is
		// already decrypted and authoritative.
		return inserted, nil
	}
	if !exists {
		// Fresh MHT node: zero entries. ModeOptimized must still zero it
		// (entries are semantically zero), but that is an assignment of
		// required values, not the wholesale structure clear Intel does.
		if f.fs.opt.Mode == ModeOptimized {
			clear(n.plain)
		}
		return n, nil
	}
	if err := f.decryptInto(n, key, tag); err != nil {
		// Not authenticated: it must not be found in the cache by a retry.
		f.release(n)
		return nil, err
	}
	return n, nil
}

// loadData returns data node d, reading and verifying it (or materialising
// a zero node for unwritten regions).
func (f *File) loadData(d int64) (*node, error) {
	phys := dataPhys(d)
	if n, ok := f.cache[phys]; ok {
		f.fs.cacheHit()
		f.touchLRU(n)
		return n, nil
	}
	f.fs.cacheMiss()
	parentIdx, slot := dataParent(d)
	parent, err := f.loadMHT(parentIdx)
	if err != nil {
		return nil, err
	}
	var key, tag [16]byte
	exists := false
	if !parent.entryIsZero(slot) {
		key, tag = parent.entry(slot)
		exists = true
	}
	n := f.newNode(phys, false, d)
	inserted, err := f.insertNode(n)
	if err != nil {
		return nil, err
	}
	if inserted != n {
		return inserted, nil
	}
	if !exists {
		if f.fs.opt.Mode == ModeOptimized {
			clear(n.plain) // sparse region reads as zeroes
		}
		return n, nil
	}
	if err := f.decryptInto(n, key, tag); err != nil {
		// Not authenticated: it must not be found in the cache by a retry.
		f.release(n)
		return nil, err
	}
	return n, nil
}

// decryptInto performs the OCALL read and decryption according to the FS
// mode: standard copies ciphertext into the enclave before decrypting,
// optimized decrypts directly from the untrusted buffer.
func (f *File) decryptInto(n *node, key, tag [16]byte) error {
	if f.fs.opt.Mode == ModeStandard {
		if err := f.fs.ocallN("ipfs.read", NodeSize, func() error {
			if err := f.readRaw(n.phys); err != nil {
				return err
			}
			// The edger8r-generated edge routine copies the out-buffer
			// into enclave memory: this is the copy §V-F removes.
			f.touchSlot(n, 1)
			copy(n.cipher, f.untrusted[:])
			return nil
		}); err != nil {
			return err
		}
		sp := f.fs.opt.Timings.start(inCrypto)
		f.touchSlot(n, 0)
		err := openNode(key, tag, n.cipher, n.plain, f.scratch[:])
		sp.stop()
		return err
	}
	// Optimized: the enclave receives only a pointer to the untrusted
	// buffer and decrypts from it in place (MAC-then-encrypt rationale in
	// the paper: authentication is computed over data already inside the
	// enclave as it decrypts).
	if err := f.fs.ocallN("ipfs.read", NodeSize, func() error { return f.readRaw(n.phys) }); err != nil {
		return err
	}
	sp := f.fs.opt.Timings.start(inCrypto)
	f.touchSlot(n, 0)
	err := openNode(key, tag, f.untrusted[:], n.plain, f.scratch[:])
	sp.stop()
	return err
}

// readRaw fills f.untrusted with the physical node's ciphertext. Must be
// called from outside the enclave (inside an OCALL body).
func (f *File) readRaw(phys int64) error {
	nread, err := f.backing.ReadAt(f.untrusted[:], phys*NodeSize)
	if err != nil {
		return err
	}
	for i := nread; i < NodeSize; i++ {
		f.untrusted[i] = 0
	}
	return nil
}

// --- public I/O ---

// Read reads up to len(p) bytes at the cursor, advancing it. At end of
// file it returns (0, io.EOF).
func (f *File) Read(p []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	sp := f.fs.opt.Timings.start(inReadPath)
	defer sp.stop()
	if f.offset >= f.size {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	max := f.size - f.offset
	if int64(len(p)) < max {
		max = int64(len(p))
	}
	var done int64
	for done < max {
		d := (f.offset + done) / NodeSize
		in := (f.offset + done) % NodeSize
		n, err := f.loadData(d)
		if err != nil {
			return int(done), err
		}
		f.touchSlot(n, 0)
		c := copy(p[done:max], n.plain[in:])
		done += int64(c)
	}
	f.offset += done
	return int(done), nil
}

// Write writes p at the cursor, advancing it and extending the file as
// needed.
func (f *File) Write(p []byte) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if !f.writable() {
		return 0, ErrReadOnly
	}
	var done int
	for done < len(p) {
		d := (f.offset + int64(done)) / NodeSize
		in := (f.offset + int64(done)) % NodeSize
		n, err := f.loadData(d)
		if err != nil {
			return done, err
		}
		f.touchSlot(n, 0)
		c := copy(n.plain[in:], p[done:])
		n.dirty = true
		done += c
		if d >= f.dataNodes {
			f.dataNodes = d + 1
		}
	}
	f.offset += int64(done)
	if f.offset > f.size {
		f.size = f.offset
		f.metaDirty = true
	}
	return done, nil
}

// Seek moves the cursor. Like Intel's sgx_fseek it refuses to move beyond
// the end of file (ErrSeekPastEnd); TWINE's WASI layer implements
// past-the-end seeks by extending the file with null bytes first.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, ErrClosed
	}
	var target int64
	switch whence {
	case SeekStart:
		target = offset
	case SeekCurrent:
		target = f.offset + offset
	case SeekEnd:
		target = f.size + offset
	default:
		return 0, fmt.Errorf("ipfs: bad whence %d", whence)
	}
	if target < 0 {
		return 0, fmt.Errorf("ipfs: negative seek target %d", target)
	}
	if target > f.size {
		return 0, fmt.Errorf("%w: %d > size %d", ErrSeekPastEnd, target, f.size)
	}
	f.offset = target
	return target, nil
}

// ExtendTo grows the file to newSize by appending null bytes, the
// workaround TWINE's WASI layer applies for SQLite's write-past-EOF
// pattern (§IV-E). It leaves the cursor where it was.
func (f *File) ExtendTo(newSize int64) error {
	if newSize <= f.size {
		return nil
	}
	if !f.writable() {
		return ErrReadOnly
	}
	saved := f.offset
	f.offset = f.size
	zeros := make([]byte, NodeSize)
	for f.size < newSize {
		chunk := newSize - f.size
		if chunk > NodeSize {
			chunk = NodeSize
		}
		if _, err := f.Write(zeros[:chunk]); err != nil {
			f.offset = saved
			return err
		}
	}
	f.offset = saved
	return nil
}

// Truncate shrinks or grows the logical file size. Shrinking only adjusts
// the size (stale nodes become unreachable); growing delegates to ExtendTo.
func (f *File) Truncate(newSize int64) error {
	if f.closed {
		return ErrClosed
	}
	if !f.writable() {
		return ErrReadOnly
	}
	if newSize < 0 {
		return fmt.Errorf("ipfs: negative truncate size")
	}
	if newSize > f.size {
		return f.ExtendTo(newSize)
	}
	f.size = newSize
	f.dataNodes = (newSize + NodeSize - 1) / NodeSize
	if f.offset > f.size {
		f.offset = f.size
	}
	f.metaDirty = true
	return nil
}

// Flush writes all dirty state (data nodes, MHT path, metadata) to the
// untrusted store and syncs it.
func (f *File) Flush() error {
	if f.closed {
		return ErrClosed
	}
	// Data nodes first (their write-back dirties parent MHT entries),
	// then MHT nodes in descending index order: a node's parent always
	// has a smaller index, so one pass settles a path to the root.
	// Write-backs may fault evicted parents back in, so iterate until a
	// pass finds nothing dirty.
	for pass := 0; ; pass++ {
		var mhts []*node
		var datas []*node
		for _, n := range f.cache {
			if !n.dirty {
				continue
			}
			if n.isMHT {
				mhts = append(mhts, n)
			} else {
				datas = append(datas, n)
			}
		}
		if len(mhts) == 0 && len(datas) == 0 {
			break
		}
		if pass > 64 {
			return fmt.Errorf("ipfs: flush did not converge")
		}
		for _, n := range datas {
			if err := f.writeBack(n); err != nil {
				return err
			}
		}
		sort.Slice(mhts, func(i, j int) bool { return mhts[i].idx > mhts[j].idx })
		for _, n := range mhts {
			if err := f.writeBack(n); err != nil {
				return err
			}
		}
	}
	if f.metaDirty {
		if err := f.writeMeta(); err != nil {
			return err
		}
	}
	return f.fs.ocall("ipfs.sync", func() error { return f.backing.Sync() })
}

// Close flushes and releases the handle.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	if err := f.Flush(); err != nil {
		_ = f.closeBacking()
		return err
	}
	return f.closeBacking()
}

func (f *File) closeBacking() error {
	f.closed = true
	return f.fs.ocall("ipfs.close", func() error { return f.backing.Close() })
}
