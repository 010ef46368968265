package litedb

import (
	"errors"
	"slices"
	"testing"

	"twine/internal/ipfs"
)

// spanVFS is a MemVFS whose files answer Refresh with whatever the test
// scripted: the spans a protected file would have worked out, or an error.
type spanVFS struct {
	*MemVFS
	spans []ipfs.Span
	err   error
	calls int
}

func (v *spanVFS) Open(name string, create bool) (DBFile, error) {
	f, err := v.MemVFS.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &spanFile{DBFile: f, v: v}, nil
}

type spanFile struct {
	DBFile
	v *spanVFS
}

func (f *spanFile) Refresh() ([]ipfs.Span, error) {
	f.v.calls++
	return f.v.spans, f.v.err
}

func pageSpan(first, last uint32) ipfs.Span {
	return ipfs.Span{Off: int64(first-1) * PageSize, Len: int64(last-first+1) * PageSize}
}

func cachedPages(p *Pager) []uint32 {
	var nos []uint32
	for no := range p.cache {
		nos = append(nos, no)
	}
	slices.Sort(nos)
	return nos
}

// TestPagerRefreshDropsWhatChanged: two pagers share one file. After the
// writer commits, the reader's Refresh drops exactly the cached pages the
// file reports, keeps the rest, re-reads the header, and serves the new
// images; a failed refresh drops everything.
func TestPagerRefreshDropsWhatChanged(t *testing.T) {
	mem := NewMemVFS()
	w, err := OpenPager(mem, "t.db", PagerOptions{CachePages: 64, Journal: JournalMemory})
	if err != nil {
		t.Fatalf("OpenPager (writer): %v", err)
	}
	defer w.Close()
	stamp := func(no uint32, b byte) {
		t.Helper()
		pg, err := w.Get(no)
		if err != nil {
			t.Fatalf("Get(%d): %v", no, err)
		}
		if err := w.Write(pg); err != nil {
			t.Fatalf("Write(%d): %v", no, err)
		}
		pg.data[100] = b
		w.Unpin(pg)
	}
	mustBegin(t, w)
	for i := 0; i < 11; i++ {
		pg, err := w.Alloc()
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		pg.data[100] = 1
		w.Unpin(pg)
	}
	mustCommit(t, w) // pages 2..12 hold 1

	vfs := &spanVFS{MemVFS: mem}
	r, err := OpenPager(vfs, "t.db", PagerOptions{CachePages: 64, Journal: JournalMemory})
	if err != nil {
		t.Fatalf("OpenPager (reader): %v", err)
	}
	defer r.Close()
	read := func(no uint32) byte {
		t.Helper()
		pg, err := r.Get(no)
		if err != nil {
			t.Fatalf("reader Get(%d): %v", no, err)
		}
		defer r.Unpin(pg)
		return pg.data[100]
	}
	for no := uint32(2); no <= 10; no++ {
		read(no)
	}

	mustBegin(t, w)
	stamp(3, 2)
	stamp(7, 2)
	stamp(11, 2) // not cached by the reader
	pg, err := w.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	w.Unpin(pg)
	mustCommit(t, w) // 13 pages now: the header changed too

	vfs.spans = []ipfs.Span{pageSpan(1, 1), pageSpan(3, 3), pageSpan(7, 7), pageSpan(11, 11), pageSpan(13, 13)}
	if err := r.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if got, want := cachedPages(r), []uint32{1, 2, 4, 5, 6, 8, 9, 10}; !slices.Equal(got, want) {
		t.Errorf("after Refresh the reader caches pages %v, want %v (header re-read, changed pages gone)", got, want)
	}
	if r.NPages() != 13 {
		t.Errorf("reader sees %d pages, want 13", r.NPages())
	}
	for no, want := range map[uint32]byte{2: 1, 3: 2, 7: 2, 10: 1, 11: 2, 12: 1} {
		if got := read(no); got != want {
			t.Errorf("page %d reads %d after Refresh, want %d", no, got, want)
		}
	}

	// A span longer than the cache takes the other loop.
	vfs.spans = []ipfs.Span{{Off: 5 * PageSize, Len: 1 << 40}}
	if err := r.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if got, want := cachedPages(r), []uint32{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("after a long span the reader caches pages %v, want %v", got, want)
	}

	// Refused while a page is pinned or a transaction is open, before the
	// file is even asked.
	calls := vfs.calls
	held, err := r.Get(2)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if err := r.Refresh(); !errors.Is(err, ErrTxn) {
		t.Errorf("Refresh with a page pinned = %v, want ErrTxn", err)
	}
	r.Unpin(held)
	mustBegin(t, r)
	if err := r.Refresh(); !errors.Is(err, ErrTxn) {
		t.Errorf("Refresh inside a transaction = %v, want ErrTxn", err)
	}
	if err := r.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if vfs.calls != calls {
		t.Errorf("a refused Refresh reached the file")
	}

	vfs.spans, vfs.err = nil, errors.New("host lied")
	if err := r.Refresh(); !errors.Is(err, vfs.err) {
		t.Errorf("Refresh = %v, want the file's error", err)
	}
	if got := cachedPages(r); len(got) != 0 {
		t.Errorf("a failed Refresh left pages %v cached", got)
	}

	if err := w.Refresh(); !errors.Is(err, ErrNoRefresh) {
		t.Errorf("Refresh over a plain file = %v, want ErrNoRefresh", err)
	}
}

// TestDBRefreshFollowsAnotherHandle: two handles take turns on one file,
// each refreshed before its turn. A handle sees the other's rows and DDL,
// reloads its catalog (and forgets parsed statements) only when the
// schema cookie moved, and never reuses a rowid the other assigned.
func TestDBRefreshFollowsAnotherHandle(t *testing.T) {
	// Every refresh reports the whole file: what is under test here is the
	// catalog, not the page arithmetic.
	vfs := &spanVFS{MemVFS: NewMemVFS(), spans: []ipfs.Span{{Off: 0, Len: 1 << 40}}}
	open := func() *DB {
		t.Helper()
		db, err := Open(vfs, "t.db", Options{CachePages: 64, Journal: JournalMemory})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	refresh := func(db *DB) {
		t.Helper()
		if err := db.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
	}
	parsed := func(db *DB, sql string) bool {
		return slices.ContainsFunc(db.parsed[:], func(e parsedSQL) bool { return e.sql == sql })
	}
	const sel = `SELECT v FROM t ORDER BY id`

	a := open()
	mustExec(t, a, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, a, `INSERT INTO t (v) VALUES ('a1'), ('a2')`)
	b := open()
	if got := rowsAsText(mustQuery(t, b, sel)); !slices.Equal(got, []string{"a1", "a2"}) {
		t.Fatalf("b sees %v", got)
	}
	mustExec(t, b, `INSERT INTO t (v) VALUES ('b3')`) // b now believes the last rowid is 3

	refresh(a)
	mustExec(t, a, `INSERT INTO t (v) VALUES ('a4'), ('a5')`)

	schema := b.tables["t"]
	refresh(b)
	if !parsed(b, sel) || b.tables["t"] != schema {
		t.Error("a data-only commit made b reload its catalog")
	}
	if got := rowsAsText(mustQuery(t, b, sel)); !slices.Equal(got, []string{"a1", "a2", "b3", "a4", "a5"}) {
		t.Errorf("after Refresh b sees %v", got)
	}
	mustExec(t, b, `INSERT INTO t (v) VALUES ('b6')`)
	if got := rowsAsText(mustQuery(t, b, `SELECT id FROM t WHERE v = 'b6'`)); !slices.Equal(got, []string{"6"}) {
		t.Errorf("b's next automatic rowid is %v, want 6", got)
	}

	refresh(a)
	mustExec(t, a, `CREATE TABLE u (k INTEGER PRIMARY KEY)`)
	mustExec(t, a, `INSERT INTO u (k) VALUES (9)`)
	mustExec(t, a, `DROP TABLE t`)
	refresh(b)
	if parsed(b, sel) {
		t.Error("DDL on another handle left b's parsed statements in place")
	}
	if got := rowsAsText(mustQuery(t, b, `SELECT k FROM u`)); !slices.Equal(got, []string{"9"}) {
		t.Errorf("after DDL b sees u = %v", got)
	}
	if _, err := b.Query(sel); err == nil {
		t.Error("a table another handle dropped is still selectable")
	}
	if got := integrity(t, b); !slices.Equal(got, []string{"ok"}) {
		t.Errorf("integrity_check on the refreshed handle: %v", got)
	}
}
