package litedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// recVFS is a MemVFS that logs every mutating call it receives, as
// "<file> <op> [<offset> <length>]", so tests can count and order what a
// commit sends down.
type recVFS struct {
	*MemVFS
	log []string
}

func newRecVFS() *recVFS { return &recVFS{MemVFS: NewMemVFS()} }

func (v *recVFS) Open(name string, create bool) (DBFile, error) {
	f, err := v.MemVFS.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &recFile{DBFile: f, v: v, name: name}, nil
}

func (v *recVFS) Delete(name string) error {
	v.log = append(v.log, name+" delete")
	return v.MemVFS.Delete(name)
}

type recFile struct {
	DBFile
	v    *recVFS
	name string
}

func (f *recFile) WriteAt(p []byte, off int64) (int, error) {
	f.v.log = append(f.v.log, fmt.Sprintf("%s write %d %d", f.name, off, len(p)))
	return f.DBFile.WriteAt(p, off)
}

func (f *recFile) Truncate(size int64) error {
	f.v.log = append(f.v.log, fmt.Sprintf("%s truncate %d", f.name, size))
	return f.DBFile.Truncate(size)
}

func (f *recFile) Sync() error {
	f.v.log = append(f.v.log, f.name+" sync")
	return f.DBFile.Sync()
}

func (f *recFile) Close() error {
	f.v.log = append(f.v.log, f.name+" close")
	return f.DBFile.Close()
}

// pageWrites returns the page numbers of the writes to database file
// name in log.
func pageWrites(t *testing.T, log []string, name string) []uint32 {
	t.Helper()
	var nos []uint32
	for _, l := range log {
		var off, n int64
		if _, err := fmt.Sscanf(l, name+" write %d %d", &off, &n); err != nil {
			continue
		}
		if n != PageSize || off%PageSize != 0 {
			t.Fatalf("database write is not one page: %q", l)
		}
		nos = append(nos, uint32(off/PageSize)+1)
	}
	return nos
}

// fileBytes copies a MemVFS file's contents.
func fileBytes(t *testing.T, vfs VFS, name string) []byte {
	t.Helper()
	f, err := vfs.Open(name, false)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	size, _ := f.Size()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return buf
}

// touchPage rewrites one byte of page no inside the open transaction.
func touchPage(t *testing.T, p *Pager, no uint32, b byte) {
	t.Helper()
	pg, err := p.Get(no)
	if err != nil {
		t.Fatalf("Get(%d): %v", no, err)
	}
	if err := p.Write(pg); err != nil {
		t.Fatalf("Write(%d): %v", no, err)
	}
	pg.data[9] = b
	p.Unpin(pg)
}

// growTo commits fresh pages until the database has n.
func growTo(t *testing.T, p *Pager, n uint32) {
	t.Helper()
	mustBegin(t, p)
	for p.NPages() < n {
		pg, err := p.Alloc()
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		pg.data[9] = 1
		p.Unpin(pg)
	}
	mustCommit(t, p)
}

// TestDirtyListInvariants drives the ways a page enters and leaves the
// dirty list inside one transaction and checks what the end of that
// transaction writes: every page still dirty exactly once, in ascending
// page order, and nothing else.
func TestDirtyListInvariants(t *testing.T) {
	const cachePages = 16
	cases := []struct {
		name     string
		txn      func(t *testing.T, p *Pager)
		rollback bool
		// want, where the case is simple enough to state it, is the exact
		// page sequence of the commit's flush.
		want []uint32
		// state maps page number to the byte expected at offset 9 afterwards.
		state map[uint32]byte
	}{
		{
			name: "two pages, touched in descending order",
			txn: func(t *testing.T, p *Pager) {
				touchPage(t, p, 30, 7)
				touchPage(t, p, 4, 7)
				touchPage(t, p, 30, 8) // already dirty: listed once
			},
			want:  []uint32{4, 30},
			state: map[uint32]byte{4: 7, 30: 8},
		},
		{
			name: "spill then commit",
			txn: func(t *testing.T, p *Pager) {
				// 39 dirty pages through a 16-page cache: the early ones
				// are spilled by evictOne and must not be written again.
				for no := uint32(40); no >= 2; no-- {
					touchPage(t, p, no, 7)
				}
				if len(p.dirty) <= cachePages {
					t.Fatal("nothing was spilled; the case tests nothing")
				}
			},
			state: map[uint32]byte{2: 7, 16: 7, 17: 7, 40: 7},
		},
		{
			name: "spilled, re-fetched and dirtied again",
			txn: func(t *testing.T, p *Pager) {
				touchPage(t, p, 40, 7)
				for no := uint32(2); no <= 20; no++ { // pushes 40 out
					touchPage(t, p, no, 7)
				}
				if _, cached := p.cache[40]; cached {
					t.Fatal("page 40 was not spilled; the case tests nothing")
				}
				touchPage(t, p, 40, 9) // a second *Page for the same number
			},
			state: map[uint32]byte{2: 7, 20: 7, 40: 9},
		},
		{
			name: "fresh pages from Alloc",
			txn: func(t *testing.T, p *Pager) {
				for i := 0; i < 3; i++ {
					pg, err := p.Alloc()
					if err != nil {
						t.Fatalf("Alloc: %v", err)
					}
					pg.data[9] = 5
					p.Unpin(pg)
				}
			},
			want:  []uint32{1, 41, 42, 43}, // page 1 carries the page count
			state: map[uint32]byte{41: 5, 43: 5},
		},
		{
			name: "spill then rollback",
			txn: func(t *testing.T, p *Pager) {
				for no := uint32(40); no >= 2; no-- {
					touchPage(t, p, no, 7)
				}
				pg, err := p.Alloc()
				if err != nil {
					t.Fatalf("Alloc: %v", err)
				}
				p.Unpin(pg)
			},
			rollback: true,
			state:    map[uint32]byte{2: 1, 17: 1, 40: 1},
		},
		{
			name: "grow past the cache then rollback",
			txn: func(t *testing.T, p *Pager) {
				// 24 fresh pages through a 16-page cache: the early ones are
				// spilled past the size the rollback restores, the late ones
				// are still cached when it starts.
				for i := 0; i < 24; i++ {
					pg, err := p.Alloc()
					if err != nil {
						t.Fatalf("Alloc: %v", err)
					}
					pg.data[9] = 5
					p.Unpin(pg)
				}
				if _, cached := p.cache[41]; cached {
					t.Fatal("page 41 was not spilled; the case tests nothing")
				}
				if _, cached := p.cache[64]; !cached {
					t.Fatal("page 64 is not cached; the case tests nothing")
				}
			},
			rollback: true,
			state:    map[uint32]byte{2: 1, 40: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vfs := newRecVFS()
			p, err := OpenPager(vfs, "db", PagerOptions{CachePages: cachePages})
			if err != nil {
				t.Fatalf("OpenPager: %v", err)
			}
			growTo(t, p, 40)

			mustBegin(t, p)
			tc.txn(t, p)
			// The model is the flush this list replaced: every cached page
			// with its dirty bit set.
			var model []uint32
			for no, pg := range p.cache {
				if pg.dirty {
					model = append(model, no)
				}
			}
			slices.Sort(model)
			vfs.log = nil
			if tc.rollback {
				// Restoring through a full cache spills as it goes, so only
				// the outcome is checked.
				if err := p.Rollback(); err != nil {
					t.Fatalf("Rollback: %v", err)
				}
				if p.NPages() != 40 {
					t.Fatalf("rollback left %d pages, want 40", p.NPages())
				}
			} else {
				mustCommit(t, p)
				got := pageWrites(t, vfs.log, "db")
				if !slices.Equal(got, model) {
					t.Errorf("commit wrote pages %v, the dirty cached pages are %v", got, model)
				}
				if tc.want != nil && !slices.Equal(got, tc.want) {
					t.Errorf("commit wrote pages %v, want %v", got, tc.want)
				}
			}
			if len(p.dirty) != 0 {
				t.Errorf("%d entries left on the dirty list", len(p.dirty))
			}
			// The list is empty, so the model must be too, and nothing
			// cached may lie past the end of the file.
			for no, pg := range p.cache {
				if pg.dirty {
					t.Errorf("page %d is cached dirty and not on the dirty list", no)
				}
				if no > p.NPages() {
					t.Errorf("page %d is cached past the %d pages of the file", no, p.NPages())
				}
			}

			// An empty transaction now writes nothing at all.
			vfs.log = nil
			mustBegin(t, p)
			mustCommit(t, p)
			if len(vfs.log) != 0 {
				t.Errorf("empty commit issued %v", vfs.log)
			}

			if err := p.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			p2, err := OpenPager(vfs, "db", PagerOptions{CachePages: cachePages})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer p2.Close()
			for no, want := range tc.state {
				pg, err := p2.Get(no)
				if err != nil {
					t.Fatalf("Get(%d): %v", no, err)
				}
				if pg.data[9] != want {
					t.Errorf("page %d holds %d, want %d", no, pg.data[9], want)
				}
				p2.Unpin(pg)
			}
		})
	}
}

// TestJournalWrites pins the journal's bytes on the wire and its life:
// one 16-byte header and one 4 100-byte write per journaled page from
// offset 0 in every transaction, a truncate at its end, no open, close or
// delete until the pager closes.
func TestJournalWrites(t *testing.T) {
	vfs := newRecVFS()
	p, err := OpenPager(vfs, "db", PagerOptions{CachePages: 16})
	if err != nil {
		t.Fatalf("OpenPager: %v", err)
	}
	growTo(t, p, 8)
	for round := 0; round < 3; round++ {
		vfs.log = nil
		mustBegin(t, p)
		touchPage(t, p, 5, byte(round))
		touchPage(t, p, 3, byte(round))
		mustCommit(t, p)
		want := []string{
			"db-journal write 0 16",
			"db-journal write 16 4100",
			"db-journal write 4116 4100",
			"db write 8192 4096",
			"db write 16384 4096",
			"db-journal truncate 0",
		}
		if !slices.Equal(vfs.log, want) {
			t.Fatalf("round %d: commit issued\n%s\nwant\n%s", round,
				strings.Join(vfs.log, "\n"), strings.Join(want, "\n"))
		}
	}
	if ok, _ := vfs.Exists("db-journal"); !ok {
		t.Fatal("the journal does not outlive its transaction")
	}
	vfs.log = nil
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if want := []string{"db-journal close", "db-journal delete", "db close"}; !slices.Equal(vfs.log, want) {
		t.Errorf("Close issued %v, want %v", vfs.log, want)
	}
	if ok, _ := vfs.Exists("db-journal"); ok {
		t.Error("a clean shutdown left a journal behind")
	}
}

// TestJournalSyncOrder asserts the durability protocol under
// synchronous=normal and full: the journal is synced before the first
// page overwrites its original, the database before the journal is
// emptied, and the emptied journal before Commit returns.
func TestJournalSyncOrder(t *testing.T) {
	for _, mode := range []SyncMode{SyncNormal, SyncFull} {
		vfs := newRecVFS()
		p, err := OpenPager(vfs, "db", PagerOptions{CachePages: 16, Sync: mode})
		if err != nil {
			t.Fatalf("OpenPager: %v", err)
		}
		growTo(t, p, 8)
		vfs.log = nil
		mustBegin(t, p)
		touchPage(t, p, 6, 3)
		touchPage(t, p, 2, 3)
		mustCommit(t, p)
		want := []string{
			"db-journal write 0 16",
			"db-journal write 16 4100",
			"db-journal write 4116 4100",
			"db-journal sync",
			"db write 4096 4096",
			"db write 20480 4096",
			"db sync",
			"db-journal truncate 0",
			"db-journal sync",
		}
		if !slices.Equal(vfs.log, want) {
			t.Errorf("sync mode %d: commit issued\n%s\nwant\n%s", mode,
				strings.Join(vfs.log, "\n"), strings.Join(want, "\n"))
		}
		p.Close()
	}
}

// TestColdJournalLeftInPlace: a journal that is not hot belongs, for all
// the opener knows, to a live pager on the same file; OpenPager must not
// replay it, rewrite it or delete it.
func TestColdJournalLeftInPlace(t *testing.T) {
	header := func(magic string) []byte {
		h := make([]byte, journalHdrSize)
		copy(h, magic)
		binary.BigEndian.PutUint32(h[8:], 1)
		return h
	}
	shortOfOneRecord := append(header(string(journalMagic[:])), make([]byte, journalRecSize-1)...)
	badMagic := append(header("NOTAJRNL"), make([]byte, 2*journalRecSize)...)
	cases := map[string][]byte{
		"zero length":             {},
		"shorter than a header":   []byte("LDBJ"),
		"header only":             header(string(journalMagic[:])),
		"header, torn record":     shortOfOneRecord,
		"bad magic, full records": badMagic,
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			vfs := NewMemVFS()
			p, err := OpenPager(vfs, "db", PagerOptions{CachePages: 16})
			if err != nil {
				t.Fatalf("OpenPager: %v", err)
			}
			growTo(t, p, 4)
			p.Close()
			before := fileBytes(t, vfs, "db")

			jf, _ := vfs.Open("db-journal", true)
			jf.WriteAt(content, 0)

			p2, err := OpenPager(vfs, "db", PagerOptions{CachePages: 16})
			if err != nil {
				t.Fatalf("open over a cold journal: %v", err)
			}
			if ok, _ := vfs.Exists("db-journal"); !ok {
				t.Fatal("a cold journal was deleted")
			}
			if got := fileBytes(t, vfs, "db-journal"); !bytes.Equal(got, content) {
				t.Errorf("a cold journal was rewritten: %d bytes, had %d", len(got), len(content))
			}
			if got := fileBytes(t, vfs, "db"); !bytes.Equal(got, before) {
				t.Error("a cold journal changed the database")
			}
			// A reader that never journals leaves it alone at Close too.
			if err := p2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if ok, _ := vfs.Exists("db-journal"); !ok {
				t.Fatal("a pager that opened no journal deleted one at Close")
			}

			// A writer takes the path over: whatever the cold file held
			// must not survive into its first transaction's journal.
			p3, err := OpenPager(vfs, "db", PagerOptions{CachePages: 16})
			if err != nil {
				t.Fatalf("OpenPager: %v", err)
			}
			mustBegin(t, p3)
			touchPage(t, p3, 2, 77)
			if got := len(fileBytes(t, vfs, "db-journal")); got != journalHdrSize+journalRecSize {
				t.Errorf("journal holds %d bytes after one record, want %d", got, journalHdrSize+journalRecSize)
			}
			mustCommit(t, p3)
			if err := p3.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if ok, _ := vfs.Exists("db-journal"); ok {
				t.Error("the owner's Close left the journal behind")
			}
		})
	}
}

// TestRecoveryIgnoresStaleJournalTail: a large transaction leaves 40
// records' worth of bytes behind it; the next, small one crashes with a
// single record. Recovery must replay that record alone, so the reopened
// database is the state between the two, page for page. (An
// implementation that only invalidated the header at commit would replay
// 39 stale images over committed pages.)
func TestRecoveryIgnoresStaleJournalTail(t *testing.T) {
	vfs := NewMemVFS()
	opt := PagerOptions{CachePages: 64}
	p, err := OpenPager(vfs, "db", opt)
	if err != nil {
		t.Fatalf("OpenPager: %v", err)
	}
	growTo(t, p, 48)

	mustBegin(t, p)
	for no := uint32(2); no <= 45; no++ {
		touchPage(t, p, no, 200)
	}
	if p.jCount < 40 {
		t.Fatalf("the large transaction journaled %d pages, want >= 40", p.jCount)
	}
	mustCommit(t, p)
	want := fileBytes(t, vfs, "db")

	mustBegin(t, p)
	touchPage(t, p, 7, 13)
	if p.jCount != 1 {
		t.Fatalf("the small transaction journaled %d pages, want 1", p.jCount)
	}
	// The power cut finds Commit half done: records in the journal, dirty
	// pages in the database file, the journal not yet truncated.
	if err := p.flushAll(); err != nil {
		t.Fatalf("flushAll: %v", err)
	}
	if bytes.Equal(fileBytes(t, vfs, "db"), want) {
		t.Fatal("the crashed transaction never reached the file; the test tests nothing")
	}
	// Crash: the pager is abandoned.

	p2, err := OpenPager(vfs, "db", opt)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer p2.Close()
	got := fileBytes(t, vfs, "db")
	if len(got) != len(want) {
		t.Fatalf("recovered database is %d bytes, want %d", len(got), len(want))
	}
	for no := 0; no*PageSize < len(want); no++ {
		if !bytes.Equal(got[no*PageSize:(no+1)*PageSize], want[no*PageSize:(no+1)*PageSize]) {
			t.Errorf("page %d differs from the state before the crashed transaction", no+1)
		}
	}
	if ok, _ := vfs.Exists("db-journal"); ok {
		t.Error("hot journal not removed after recovery")
	}
}

// TestRecoversJournalOfEarlierFormat replays a journal built byte by byte
// the way every earlier commit of this repository wrote one, so a
// database that crashed under the old create/delete lifecycle still
// recovers: "LDBJRNL1", the original page count, four zero bytes, then
// (page number, 4 096-byte image) records.
func TestRecoversJournalOfEarlierFormat(t *testing.T) {
	vfs := NewMemVFS()
	p, err := OpenPager(vfs, "db", PagerOptions{CachePages: 16})
	if err != nil {
		t.Fatalf("OpenPager: %v", err)
	}
	growTo(t, p, 4)
	p.Close()
	want := fileBytes(t, vfs, "db")

	// The crashed transaction had overwritten pages 2 and 3 and grown the
	// file to 6 pages.
	db, _ := vfs.Open("db", false)
	junk := bytes.Repeat([]byte{0xEE}, 4096)
	db.WriteAt(junk, 1*4096)
	db.WriteAt(junk, 2*4096)
	db.WriteAt(junk, 5*4096)

	j := []byte("LDBJRNL1")
	j = binary.BigEndian.AppendUint32(j, 4)
	j = append(j, 0, 0, 0, 0)
	for _, no := range []uint32{3, 2} {
		j = binary.BigEndian.AppendUint32(j, no)
		j = append(j, want[(no-1)*4096:no*4096]...)
	}
	j = append(j, 0, 0, 0, 9, 1, 2, 3) // a torn third record
	jf, _ := vfs.Open("db-journal", true)
	jf.WriteAt(j, 0)

	p2, err := OpenPager(vfs, "db", PagerOptions{CachePages: 16})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer p2.Close()
	if got := fileBytes(t, vfs, "db"); !bytes.Equal(got, want) {
		t.Error("the recovered database differs from the pre-transaction bytes")
	}
	if ok, _ := vfs.Exists("db-journal"); ok {
		t.Error("hot journal not removed after recovery")
	}
}

// TestCommitAllocatesNoJournalGarbage: record buffers come from the
// pager's free list, the journaled map is reused, the header and the
// record each leave from a buffer the pager already owns.
func TestCommitAllocatesNoJournalGarbage(t *testing.T) {
	p, err := OpenPager(NewMemVFS(), "db", PagerOptions{CachePages: 16})
	if err != nil {
		t.Fatalf("OpenPager: %v", err)
	}
	defer p.Close()
	growTo(t, p, 8)
	var b byte
	txn := func() {
		b++
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		for _, no := range []uint32{6, 3} {
			pg, err := p.Get(no)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Write(pg); err != nil {
				t.Fatal(err)
			}
			pg.data[9] = b
			p.Unpin(pg)
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	txn() // opens the journal, fills the free list
	// Unpin pushes an lru element per page: that is the cache's, not the
	// transaction's, and it is the same with or without a journal.
	const lruElems = 2
	if got := testing.AllocsPerRun(50, txn); got > lruElems {
		t.Errorf("a two-page transaction allocates %.0f objects, want <= %d", got, lruElems)
	}
}

// TestCommitCostIndependentOfCacheSize: with the cache warm, a one-page
// commit costs the same whether 16 or 2 048 pages are cached. Before the
// dirty list, flushAll ranged over the whole cache map (about 30 us at
// 2 048 entries against a 2 us commit).
func TestCommitCostIndependentOfCacheSize(t *testing.T) {
	best := func(cachePages int) time.Duration {
		p, err := OpenPager(NewMemVFS(), "db", PagerOptions{CachePages: cachePages})
		if err != nil {
			t.Fatalf("OpenPager: %v", err)
		}
		defer p.Close()
		growTo(t, p, uint32(cachePages))
		for no := uint32(1); no <= uint32(cachePages); no++ { // warm every slot
			pg, err := p.Get(no)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			p.Unpin(pg)
		}
		if len(p.cache) != cachePages {
			t.Fatalf("cache holds %d pages, want %d", len(p.cache), cachePages)
		}
		const rounds, perRound = 20, 200
		min := time.Duration(1 << 62)
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			for i := 0; i < perRound; i++ {
				mustBegin(t, p)
				touchPage(t, p, 2, byte(i))
				mustCommit(t, p)
			}
			if d := time.Since(t0) / perRound; d < min {
				min = d
			}
		}
		return min
	}
	small, large := best(16), best(DefaultCachePages)
	t.Logf("one-page commit: %v on a 16-page cache, %v on a %d-page cache", small, large, DefaultCachePages)
	if large > 2*small && !raceEnabled {
		t.Errorf("one-page commit takes %v on a warm %d-page cache, %v on a 16-page one: more than 2x",
			large, DefaultCachePages, small)
	}
}
