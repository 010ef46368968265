package litedb

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"twine/internal/ipfs"
)

// PageSize is the database page size (4 KiB, matching the paper's SQLite
// configuration and the SGX page granularity).
const PageSize = 4096

// DefaultCachePages matches SQLite's configuration in the paper: a
// 2,048-page cache of 4 KiB pages (8 MiB).
const DefaultCachePages = 2048

// Database header layout (page 1).
const (
	hdrMagicOff      = 0  // 16 bytes
	hdrPageCountOff  = 16 // u32
	hdrFreelistOff   = 20 // u32 head page (0 = none)
	hdrFreeCountOff  = 24 // u32
	hdrSchemaRootOff = 28 // u32
	hdrCookieOff     = 32 // u32 schema cookie
)

var dbMagic = [16]byte{'L', 'i', 't', 'e', 'D', 'B', ' ', 'f', 'o', 'r', 'm', 'a', 't', ' ', '1', 0}

var journalMagic = [8]byte{'L', 'D', 'B', 'J', 'R', 'N', 'L', '1'}

// Journal file layout: a header (magic, then the database size in pages
// when the transaction began) followed by one record per journaled page
// (page number, original image).
const (
	journalHdrSize = 16
	journalRecSize = 4 + PageSize
)

// maxFreeRecords bounds the journal-record buffers a pager keeps between
// transactions (1 MiB); a larger transaction allocates the excess and the
// collector takes it back.
const maxFreeRecords = 256

// SyncMode mirrors PRAGMA synchronous.
type SyncMode int

// Sync modes.
const (
	SyncOff SyncMode = iota
	SyncNormal
	SyncFull
)

// JournalMode mirrors PRAGMA journal_mode (truncate or memory).
//
// In truncate mode a pager owns one journal file, "<db>-journal", for its
// whole life: it is opened, and emptied, when the first page is journaled,
// every transaction writes a header and its records from offset 0, and
// commit (or rollback) truncates it back to zero length. The truncate is
// the commit point. Pager.Close closes and deletes the file, so a clean
// shutdown leaves none behind. This is SQLite's journal_mode=TRUNCATE,
// not its default DELETE: creating, sealing and unlinking a protected file
// per transaction costs ten boundary crossings and four node writes here,
// and the paper's own closing remark (§V-F) is that such penalties are
// removed by adapting the library, as it does for stock IPFS.
//
// Recovery rule: a journal found at open is hot iff it starts with a
// valid header and holds at least one complete record. A hot journal is
// replayed, the database synced and the journal removed. A cold one
// (absent, empty, short, bad magic) is left exactly as found, because
// another pager may hold it open: a tsql.Service replica opens the shard
// file while the shard's writer owns that journal.
//
// In memory mode original images are kept only in memory: rollback works,
// crash recovery does not.
type JournalMode int

// Journal modes.
const (
	JournalTruncate JournalMode = iota
	JournalMemory
)

// Package errors.
var (
	ErrCorrupt    = errors.New("litedb: database corrupt")
	ErrTxn        = errors.New("litedb: transaction state error")
	ErrCacheFull  = errors.New("litedb: page cache exhausted (all pages pinned)")
	ErrPageBounds = errors.New("litedb: page number out of range")
)

// PagerOptions configures a pager.
type PagerOptions struct {
	CachePages int
	Store      PageStore
	Sync       SyncMode
	Journal    JournalMode
}

// Page is a pinned page image. Data is only valid while pinned.
type Page struct {
	no    uint32
	slot  int
	data  []byte
	dirty bool
	pins  int
	// prev and next link an unpinned page into its pager's LRU; both are
	// nil while the page is pinned.
	prev, next *Page
}

// No returns the page number (1-based).
func (p *Page) No() uint32 { return p.no }

// Data returns the page image.
func (p *Page) Data() []byte { return p.data }

// Pager provides transactional page access over a VFS file, with a fixed
// page cache and a rollback journal (see JournalMode), following SQLite's
// pager design.
type Pager struct {
	vfs   VFS
	name  string
	file  DBFile
	opt   PagerOptions
	store PageStore

	cache map[uint32]*Page
	// lru is the sentinel of a circular list of the unpinned pages (the
	// eviction candidates), most recently unpinned at lru.next. Linking
	// the pages themselves makes a pin and an unpin allocate nothing.
	lru    Page
	pinned int   // cached pages with pins > 0
	free   []int // free cache slots
	// dirty lists every page whose dirty bit went from false to true since
	// the last flush, so a flush costs what was dirtied, not what is
	// cached. An entry that has lost its bit since (spilled by evictOne,
	// dropped) is stale and skipped.
	dirty []*Page

	nPages uint32

	inTxn      bool
	origNPages uint32
	// journaled maps each page the open transaction touched to its journal
	// record (page number, original image), or to nil for a page the
	// transaction created. Empty outside a transaction.
	journaled map[uint32][]byte
	recFree   [][]byte // record buffers retired by earlier transactions
	jFile     DBFile   // the journal, nil until the first journaled page (JournalTruncate)
	jCount    int      // records the open transaction has written to jFile
	jHdr      [journalHdrSize]byte
}

// OpenPager opens or creates the database file.
func OpenPager(vfs VFS, name string, opt PagerOptions) (*Pager, error) {
	if opt.CachePages <= 0 {
		opt.CachePages = DefaultCachePages
	}
	if opt.CachePages < 16 {
		opt.CachePages = 16
	}
	if opt.Store == nil {
		opt.Store = NewNativeStore(opt.CachePages)
	}
	if opt.Store.Cap() < opt.CachePages {
		return nil, fmt.Errorf("litedb: store has %d slots, cache wants %d", opt.Store.Cap(), opt.CachePages)
	}
	f, err := vfs.Open(name, true)
	if err != nil {
		return nil, err
	}
	p := &Pager{
		vfs: vfs, name: name, file: f, opt: opt, store: opt.Store,
		cache:     make(map[uint32]*Page),
		journaled: make(map[uint32][]byte),
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	for i := opt.CachePages - 1; i >= 0; i-- {
		p.free = append(p.free, i)
	}
	if err := p.recoverJournal(); err != nil {
		f.Close()
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size == 0 {
		if err := p.initialize(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		// Provisional size so the header page passes bounds checks; the
		// header's own page count replaces it.
		p.nPages = uint32(size / PageSize)
		if p.nPages == 0 {
			f.Close()
			return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
		}
		if err := p.loadHeader(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return p, nil
}

func (p *Pager) initialize() error {
	p.nPages = 1
	hdr, err := p.allocSlotFor(1)
	if err != nil {
		return err
	}
	clearBytes(hdr.data)
	copy(hdr.data[hdrMagicOff:], dbMagic[:])
	binary.BigEndian.PutUint32(hdr.data[hdrPageCountOff:], 1)
	p.markDirty(hdr)
	p.unpinInternal(hdr)
	// Flush immediately so the file is well-formed.
	return p.flushAll()
}

func (p *Pager) loadHeader() error {
	hdr, err := p.Get(1)
	if err != nil {
		return err
	}
	defer p.Unpin(hdr)
	if [16]byte(hdr.data[hdrMagicOff:hdrMagicOff+16]) != dbMagic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	p.nPages = binary.BigEndian.Uint32(hdr.data[hdrPageCountOff:])
	if p.nPages == 0 {
		return fmt.Errorf("%w: zero page count", ErrCorrupt)
	}
	return nil
}

// NPages returns the database size in pages.
func (p *Pager) NPages() uint32 { return p.nPages }

// CacheSize returns the configured cache capacity in pages.
func (p *Pager) CacheSize() int { return p.opt.CachePages }

// SetCacheSize is a no-op shrink guard used by PRAGMA cache_size; growing
// beyond the store capacity is refused.
func (p *Pager) SetCacheSize(n int) error {
	if n > p.store.Cap() {
		return fmt.Errorf("litedb: cache_size %d exceeds store capacity %d", n, p.store.Cap())
	}
	if n < 16 {
		n = 16
	}
	p.opt.CachePages = n
	return nil
}

// SetSync updates PRAGMA synchronous.
func (p *Pager) SetSync(m SyncMode) { p.opt.Sync = m }

// --- cache ---

func (p *Pager) allocSlotFor(no uint32) (*Page, error) {
	if len(p.free) == 0 {
		if err := p.evictOne(); err != nil {
			return nil, err
		}
	}
	slot := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	pg := &Page{no: no, slot: slot, data: p.store.Page(slot), pins: 1}
	p.cache[no] = pg
	p.pinned++
	return pg, nil
}

// lruPush links the just-unpinned pg at the front of the LRU.
func (p *Pager) lruPush(pg *Page) {
	pg.prev, pg.next = &p.lru, p.lru.next
	p.lru.next.prev = pg
	p.lru.next = pg
}

// lruRemove unlinks pg from the LRU.
func (p *Pager) lruRemove(pg *Page) {
	pg.prev.next, pg.next.prev = pg.next, pg.prev
	pg.prev, pg.next = nil, nil
}

func (p *Pager) evictOne() error {
	// Prefer a clean unpinned page, least recently unpinned first.
	for pg := p.lru.prev; pg != &p.lru; pg = pg.prev {
		if !pg.dirty {
			p.dropPage(pg)
			return nil
		}
	}
	// Spill a dirty unpinned page (it is already journaled).
	for pg := p.lru.prev; pg != &p.lru; pg = pg.prev {
		if pg.dirty {
			if err := p.writePage(pg); err != nil {
				return err
			}
			p.dropPage(pg)
			return nil
		}
	}
	return ErrCacheFull
}

// dropPage removes pg from the cache. It also clears the dirty bit, which
// is what retires the page's entry in the dirty list: its slot is about
// to hold another page.
func (p *Pager) dropPage(pg *Page) {
	pg.dirty = false
	if pg.pins > 0 {
		p.pinned--
	} else {
		p.lruRemove(pg)
	}
	delete(p.cache, pg.no)
	p.free = append(p.free, pg.slot)
}

// Get pins page no, reading it from the file on a miss.
func (p *Pager) Get(no uint32) (*Page, error) {
	if no == 0 || no > p.nPages {
		return nil, fmt.Errorf("%w: page %d of %d", ErrPageBounds, no, p.nPages)
	}
	if pg, ok := p.cache[no]; ok {
		if pg.pins == 0 {
			p.lruRemove(pg)
			p.pinned++
		}
		pg.pins++
		// Re-acquire through the store so sandboxed variants charge the
		// access.
		pg.data = p.store.Page(pg.slot)
		return pg, nil
	}
	// Evict first if needed so the slot exists.
	for len(p.free) == 0 {
		if err := p.evictOne(); err != nil {
			return nil, err
		}
	}
	pg, err := p.allocSlotFor(no)
	if err != nil {
		return nil, err
	}
	n, err := p.file.ReadAt(pg.data, int64(no-1)*PageSize)
	if err != nil {
		p.dropPage(pg)
		return nil, err
	}
	for i := n; i < PageSize; i++ {
		pg.data[i] = 0
	}
	return pg, nil
}

// touch re-acquires a pinned page's image through the store: the one
// store access, and so the one sandbox bounds check and EPC touch, that
// reading a row out of a page held across rows costs.
func (p *Pager) touch(pg *Page) { pg.data = p.store.Page(pg.slot) }

// Refresh revalidates the cache after another pager may have committed
// to the same file: the file says which byte spans may have changed (see
// Refresher), exactly the cached pages inside them are dropped, and the
// header fields are read again. Page p is bytes [(p-1)*PageSize,
// p*PageSize), so a commit that changed c pages costs c evictions however
// large the file or full the cache. It must be called outside a
// transaction with no page pinned. On error every page is dropped, so
// nothing stale is served and a later Refresh starts over.
func (p *Pager) Refresh() error {
	if p.inTxn || len(p.dirty) > 0 || p.pinned > 0 {
		return fmt.Errorf("%w: refresh with a transaction open or a page pinned", ErrTxn)
	}
	r, ok := p.file.(Refresher)
	if !ok {
		return ErrNoRefresh
	}
	spans, err := r.Refresh()
	if err == nil {
		for _, s := range spans {
			p.dropSpan(s)
		}
		err = p.loadHeader()
	}
	if err != nil {
		for _, pg := range p.cache {
			p.dropPage(pg)
		}
	}
	return err
}

// dropSpan drops the cached, unpinned pages that overlap s, by page
// number when the span is shorter than the cache and by cache entry when
// it is not.
func (p *Pager) dropSpan(s ipfs.Span) {
	first, last := s.Off/PageSize+1, (s.Off+s.Len-1)/PageSize+1
	if last-first < int64(len(p.cache)) {
		for no := first; no <= last; no++ {
			if pg, ok := p.cache[uint32(no)]; ok {
				p.dropPage(pg)
			}
		}
		return
	}
	for no, pg := range p.cache {
		if first <= int64(no) && int64(no) <= last {
			p.dropPage(pg)
		}
	}
}

// Unpin releases a pinned page.
func (p *Pager) Unpin(pg *Page) { p.unpinInternal(pg) }

func (p *Pager) unpinInternal(pg *Page) {
	if pg.pins <= 0 {
		panic("litedb: unpin of unpinned page")
	}
	pg.pins--
	if pg.pins == 0 {
		p.pinned--
		p.lruPush(pg)
	}
}

// Write declares intent to modify a pinned page, journaling its original
// image on first touch within the transaction.
func (p *Pager) Write(pg *Page) error {
	if !p.inTxn {
		return fmt.Errorf("%w: write outside transaction", ErrTxn)
	}
	if !pg.dirty || p.notJournaled(pg.no) {
		if err := p.journalPage(pg); err != nil {
			return err
		}
	}
	p.markDirty(pg)
	return nil
}

func (p *Pager) markDirty(pg *Page) {
	if !pg.dirty {
		pg.dirty = true
		p.dirty = append(p.dirty, pg)
	}
}

func (p *Pager) notJournaled(no uint32) bool {
	_, ok := p.journaled[no]
	return !ok && no <= p.origNPages
}

func (p *Pager) journalPage(pg *Page) error {
	if _, ok := p.journaled[pg.no]; ok {
		return nil
	}
	if pg.no > p.origNPages {
		// Fresh page this transaction: no original image to preserve.
		p.journaled[pg.no] = nil
		return nil
	}
	// One buffer serves as the record written to the journal file and as
	// the image Rollback restores from.
	var rec []byte
	if n := len(p.recFree); n > 0 {
		rec, p.recFree = p.recFree[n-1], p.recFree[:n-1]
	} else {
		rec = make([]byte, journalRecSize)
	}
	binary.BigEndian.PutUint32(rec, pg.no)
	copy(rec[4:], pg.data)
	p.journaled[pg.no] = rec
	if p.opt.Journal == JournalTruncate {
		return p.appendJournal(rec)
	}
	return nil
}

// --- allocation ---

// Alloc returns a fresh pinned, zeroed, journaled page.
func (p *Pager) Alloc() (*Page, error) {
	if !p.inTxn {
		return nil, fmt.Errorf("%w: alloc outside transaction", ErrTxn)
	}
	hdr, err := p.Get(1)
	if err != nil {
		return nil, err
	}
	freeHead := binary.BigEndian.Uint32(hdr.data[hdrFreelistOff:])
	if freeHead != 0 {
		fp, err := p.Get(freeHead)
		if err != nil {
			p.Unpin(hdr)
			return nil, err
		}
		next := binary.BigEndian.Uint32(fp.data[1:5])
		if err := p.Write(hdr); err != nil {
			p.Unpin(fp)
			p.Unpin(hdr)
			return nil, err
		}
		binary.BigEndian.PutUint32(hdr.data[hdrFreelistOff:], next)
		cnt := binary.BigEndian.Uint32(hdr.data[hdrFreeCountOff:])
		if cnt > 0 {
			binary.BigEndian.PutUint32(hdr.data[hdrFreeCountOff:], cnt-1)
		}
		p.Unpin(hdr)
		if err := p.Write(fp); err != nil {
			p.Unpin(fp)
			return nil, err
		}
		clearBytes(fp.data)
		return fp, nil
	}
	p.Unpin(hdr)

	// Extend the file.
	no := p.nPages + 1
	p.nPages = no
	for len(p.free) == 0 {
		if err := p.evictOne(); err != nil {
			return nil, err
		}
	}
	pg, err := p.allocSlotFor(no)
	if err != nil {
		return nil, err
	}
	clearBytes(pg.data)
	p.journaled[no] = nil // fresh page
	p.markDirty(pg)
	if err := p.updatePageCount(); err != nil {
		return nil, err
	}
	return pg, nil
}

// Free returns a page to the freelist.
func (p *Pager) Free(no uint32) error {
	if !p.inTxn {
		return fmt.Errorf("%w: free outside transaction", ErrTxn)
	}
	pg, err := p.Get(no)
	if err != nil {
		return err
	}
	if err := p.Write(pg); err != nil {
		p.Unpin(pg)
		return err
	}
	hdr, err := p.Get(1)
	if err != nil {
		p.Unpin(pg)
		return err
	}
	if err := p.Write(hdr); err != nil {
		p.Unpin(hdr)
		p.Unpin(pg)
		return err
	}
	head := binary.BigEndian.Uint32(hdr.data[hdrFreelistOff:])
	clearBytes(pg.data)
	pg.data[0] = 0xFF // freelist marker
	binary.BigEndian.PutUint32(pg.data[1:5], head)
	binary.BigEndian.PutUint32(hdr.data[hdrFreelistOff:], no)
	cnt := binary.BigEndian.Uint32(hdr.data[hdrFreeCountOff:])
	binary.BigEndian.PutUint32(hdr.data[hdrFreeCountOff:], cnt+1)
	p.Unpin(hdr)
	p.Unpin(pg)
	return nil
}

func (p *Pager) updatePageCount() error {
	hdr, err := p.Get(1)
	if err != nil {
		return err
	}
	defer p.Unpin(hdr)
	if err := p.Write(hdr); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(hdr.data[hdrPageCountOff:], p.nPages)
	return nil
}

// SchemaRoot reads the catalog root page number from the header.
func (p *Pager) SchemaRoot() (uint32, error) {
	hdr, err := p.Get(1)
	if err != nil {
		return 0, err
	}
	defer p.Unpin(hdr)
	return binary.BigEndian.Uint32(hdr.data[hdrSchemaRootOff:]), nil
}

// Cookie reads the schema cookie from the header.
func (p *Pager) Cookie() (uint32, error) {
	hdr, err := p.Get(1)
	if err != nil {
		return 0, err
	}
	defer p.Unpin(hdr)
	return binary.BigEndian.Uint32(hdr.data[hdrCookieOff:]), nil
}

// SetSchemaRoot stores the catalog root page number.
func (p *Pager) SetSchemaRoot(no uint32) error {
	hdr, err := p.Get(1)
	if err != nil {
		return err
	}
	defer p.Unpin(hdr)
	if err := p.Write(hdr); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(hdr.data[hdrSchemaRootOff:], no)
	return nil
}

// BumpCookie increments the schema cookie (schema change marker).
func (p *Pager) BumpCookie() error {
	hdr, err := p.Get(1)
	if err != nil {
		return err
	}
	defer p.Unpin(hdr)
	if err := p.Write(hdr); err != nil {
		return err
	}
	c := binary.BigEndian.Uint32(hdr.data[hdrCookieOff:])
	binary.BigEndian.PutUint32(hdr.data[hdrCookieOff:], c+1)
	return nil
}

// --- transactions ---

// InTxn reports whether a transaction is open.
func (p *Pager) InTxn() bool { return p.inTxn }

// Begin opens a transaction.
func (p *Pager) Begin() error {
	if p.inTxn {
		return fmt.Errorf("%w: nested transaction", ErrTxn)
	}
	p.inTxn = true
	p.origNPages = p.nPages
	return nil
}

func (p *Pager) journalName() string { return p.name + "-journal" }

// appendJournal writes one record to the journal file, after the header
// if it is the transaction's first. Each record leaves in one WriteAt.
func (p *Pager) appendJournal(rec []byte) error {
	if p.jFile == nil {
		f, err := p.vfs.Open(p.journalName(), true)
		if err != nil {
			return err
		}
		// A cold journal left at this path may hold anything; records are
		// counted by file size, so it must start empty.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		p.jFile = f
	}
	if p.jCount == 0 {
		copy(p.jHdr[:8], journalMagic[:])
		binary.BigEndian.PutUint32(p.jHdr[8:], p.origNPages)
		if _, err := p.jFile.WriteAt(p.jHdr[:], 0); err != nil {
			return err
		}
	}
	off := journalHdrSize + int64(p.jCount)*journalRecSize
	if _, err := p.jFile.WriteAt(rec, off); err != nil {
		return err
	}
	p.jCount++
	return nil
}

// Commit flushes dirty pages and retires the journal, with sync points
// per the configured synchronous mode: the journal is durable before the
// first page overwrites its original, and the database is durable before
// the journal is emptied.
func (p *Pager) Commit() error {
	if !p.inTxn {
		return fmt.Errorf("%w: commit without begin", ErrTxn)
	}
	if p.jCount > 0 && p.opt.Sync >= SyncNormal {
		if err := p.jFile.Sync(); err != nil {
			return err
		}
	}
	if err := p.flushAll(); err != nil {
		return err
	}
	return p.endTxn()
}

// flushAll writes every dirty page, in ascending page order.
func (p *Pager) flushAll() error {
	slices.SortFunc(p.dirty, func(a, b *Page) int { return cmp.Compare(a.no, b.no) })
	for _, pg := range p.dirty {
		if !pg.dirty {
			continue
		}
		if err := p.writePage(pg); err != nil {
			return err
		}
		pg.dirty = false
	}
	clear(p.dirty)
	p.dirty = p.dirty[:0]
	return nil
}

func (p *Pager) writePage(pg *Page) error {
	// Refresh the slot view (and charge the access) before writing out.
	pg.data = p.store.Page(pg.slot)
	_, err := p.file.WriteAt(pg.data, int64(pg.no-1)*PageSize)
	return err
}

// endTxn ends a transaction whose pages have all been written (the new
// images by Commit, the original ones by Rollback): the database reaches
// the host, then the journal is truncated, which is the commit point, and
// that reaches the host too before the caller hears of success.
func (p *Pager) endTxn() error {
	durable := p.opt.Sync >= SyncNormal
	if durable {
		if err := p.file.Sync(); err != nil {
			return err
		}
	}
	if p.jCount > 0 {
		if err := p.jFile.Truncate(0); err != nil {
			return err
		}
		p.jCount = 0
		if durable {
			if err := p.jFile.Sync(); err != nil {
				return err
			}
		}
	}
	for _, rec := range p.journaled {
		if len(p.recFree) == maxFreeRecords {
			break
		}
		if rec != nil {
			p.recFree = append(p.recFree, rec)
		}
	}
	if len(p.journaled) > maxFreeRecords {
		// clear costs what the map once held; start small again.
		p.journaled = make(map[uint32][]byte)
	} else {
		clear(p.journaled)
	}
	p.inTxn = false
	return nil
}

// Rollback restores every journaled page and the original size.
func (p *Pager) Rollback() error {
	if !p.inTxn {
		return fmt.Errorf("%w: rollback without begin", ErrTxn)
	}
	for no, rec := range p.journaled {
		if rec == nil {
			// Page created this transaction: drop it from cache.
			if pg, ok := p.cache[no]; ok && pg.pins == 0 {
				p.dropPage(pg)
			}
			continue
		}
		pg, ok := p.cache[no]
		if !ok {
			var err error
			for len(p.free) == 0 {
				if err := p.evictOne(); err != nil {
					return err
				}
			}
			pg, err = p.allocSlotFor(no)
			if err != nil {
				return err
			}
			p.unpinInternal(pg)
		}
		pg.data = p.store.Page(pg.slot)
		copy(pg.data, rec[4:])
		p.markDirty(pg)
	}
	p.nPages = p.origNPages
	if err := p.flushAll(); err != nil {
		return err
	}
	if err := p.file.Truncate(int64(p.nPages) * PageSize); err != nil {
		return err
	}
	return p.endTxn()
}

// recoverJournal replays a hot journal left by a crash and removes it. A
// cold journal is left untouched (see JournalMode for the rule and why).
func (p *Pager) recoverJournal() error {
	ok, err := p.vfs.Exists(p.journalName())
	if err != nil || !ok {
		return err
	}
	jf, err := p.vfs.Open(p.journalName(), false)
	if err != nil {
		return err
	}
	defer jf.Close()
	var hdr [journalHdrSize]byte
	n, err := jf.ReadAt(hdr[:], 0)
	if err != nil {
		return err // unreadable is not cold: the database may be mid-transaction
	}
	if n < len(hdr) || [8]byte(hdr[:8]) != journalMagic {
		return nil
	}
	origNPages := binary.BigEndian.Uint32(hdr[8:12])
	size, err := jf.Size()
	if err != nil {
		return err
	}
	// The journal is truncated when a transaction ends, so its size counts
	// the records of the interrupted transaction and no other.
	entries := (size - journalHdrSize) / journalRecSize
	if entries < 1 {
		return nil
	}
	buf := make([]byte, journalRecSize)
	for i := int64(0); i < entries; i++ {
		off := journalHdrSize + i*journalRecSize
		if n, err := jf.ReadAt(buf, off); err != nil || n < len(buf) {
			break // torn tail: restore what we have
		}
		no := binary.BigEndian.Uint32(buf[:4])
		if _, err := p.file.WriteAt(buf[4:], int64(no-1)*PageSize); err != nil {
			return err
		}
	}
	if err := p.file.Truncate(int64(origNPages) * PageSize); err != nil {
		return err
	}
	if err := p.file.Sync(); err != nil {
		return err
	}
	return p.vfs.Delete(p.journalName())
}

// Close flushes (committing is the caller's job), closes and deletes the
// journal this pager opened, if any, and closes the file.
func (p *Pager) Close() error {
	if p.inTxn {
		if err := p.Rollback(); err != nil {
			return err
		}
	}
	if err := p.flushAll(); err != nil {
		return err
	}
	if p.jFile != nil {
		if err := p.jFile.Close(); err != nil {
			return err
		}
		p.jFile = nil
		if err := p.vfs.Delete(p.journalName()); err != nil {
			return err
		}
	}
	return p.file.Close()
}

func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
