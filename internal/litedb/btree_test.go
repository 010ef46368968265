package litedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func newTestPager(t *testing.T) *Pager {
	t.Helper()
	p, err := OpenPager(NewMemVFS(), "test.db", PagerOptions{CachePages: 64})
	if err != nil {
		t.Fatalf("OpenPager: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func mustBegin(t *testing.T, p *Pager) {
	t.Helper()
	if err := p.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
}

func mustCommit(t *testing.T, p *Pager) {
	t.Helper()
	if err := p.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestPagerInitAndReopen(t *testing.T) {
	vfs := NewMemVFS()
	p, err := OpenPager(vfs, "db", PagerOptions{CachePages: 32})
	if err != nil {
		t.Fatalf("OpenPager: %v", err)
	}
	if p.NPages() != 1 {
		t.Errorf("fresh db has %d pages", p.NPages())
	}
	mustBegin(t, p)
	pg, err := p.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	pg.data[100] = 0xAB
	no := pg.no
	p.Unpin(pg)
	mustCommit(t, p)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2, err := OpenPager(vfs, "db", PagerOptions{CachePages: 32})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.Close()
	pg2, err := p2.Get(no)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if pg2.data[100] != 0xAB {
		t.Errorf("persisted byte = %#x", pg2.data[100])
	}
	p2.Unpin(pg2)
}

func TestPagerRollback(t *testing.T) {
	p := newTestPager(t)
	mustBegin(t, p)
	pg, _ := p.Alloc()
	no := pg.no
	pg.data[0] = 1
	p.Unpin(pg)
	mustCommit(t, p)

	mustBegin(t, p)
	pg, err := p.Get(no)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if err := p.Write(pg); err != nil {
		t.Fatalf("Write: %v", err)
	}
	pg.data[0] = 99
	p.Unpin(pg)
	if err := p.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}

	pg, _ = p.Get(no)
	if pg.data[0] != 1 {
		t.Errorf("byte after rollback = %d, want 1", pg.data[0])
	}
	p.Unpin(pg)
}

func TestPagerCrashRecovery(t *testing.T) {
	// Simulate a crash: journal written, DB pages partially updated,
	// process dies (we just abandon the pager), then reopen.
	vfs := NewMemVFS()
	p, _ := OpenPager(vfs, "db", PagerOptions{CachePages: 32})
	mustBegin(t, p)
	pg, _ := p.Alloc()
	no := pg.no
	pg.data[7] = 42
	p.Unpin(pg)
	mustCommit(t, p)

	// New transaction modifies the page, journals it, flushes the dirty
	// page to the DB file, but never commits.
	mustBegin(t, p)
	pg, _ = p.Get(no)
	p.Write(pg)
	pg.data[7] = 250
	p.Unpin(pg)
	if err := p.flushAll(); err != nil {
		t.Fatalf("flushAll: %v", err)
	}
	// Crash: do NOT commit, do NOT rollback, just drop the pager.

	p2, err := OpenPager(vfs, "db", PagerOptions{CachePages: 32})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer p2.Close()
	pg2, _ := p2.Get(no)
	if pg2.data[7] != 42 {
		t.Errorf("byte after crash recovery = %d, want 42 (original)", pg2.data[7])
	}
	p2.Unpin(pg2)
	if ok, _ := vfs.Exists("db-journal"); ok {
		t.Error("hot journal not removed after recovery")
	}
}

func TestPagerFreelistReuse(t *testing.T) {
	p := newTestPager(t)
	mustBegin(t, p)
	pg, _ := p.Alloc()
	no := pg.no
	p.Unpin(pg)
	if err := p.Free(no); err != nil {
		t.Fatalf("Free: %v", err)
	}
	pg2, _ := p.Alloc()
	if pg2.no != no {
		t.Errorf("freed page not reused: got %d, want %d", pg2.no, no)
	}
	p.Unpin(pg2)
	mustCommit(t, p)
}

func TestBtreeInsertGet(t *testing.T) {
	p := newTestPager(t)
	mustBegin(t, p)
	tree, err := CreateTree(p, false)
	if err != nil {
		t.Fatalf("CreateTree: %v", err)
	}
	for i := int64(1); i <= 100; i++ {
		payload := []byte(fmt.Sprintf("row-%d", i))
		if err := tree.Insert(i, payload); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	mustCommit(t, p)
	for i := int64(1); i <= 100; i++ {
		got, ok, err := tree.Get(i)
		if err != nil || !ok {
			t.Fatalf("Get(%d) = %v, %v", i, ok, err)
		}
		if string(got) != fmt.Sprintf("row-%d", i) {
			t.Errorf("Get(%d) = %q", i, got)
		}
	}
	if _, ok, _ := tree.Get(999); ok {
		t.Error("Get(999) found a ghost row")
	}
}

func TestBtreeSplitsManyRows(t *testing.T) {
	p, err := OpenPager(NewMemVFS(), "big.db", PagerOptions{CachePages: 256})
	if err != nil {
		t.Fatalf("OpenPager: %v", err)
	}
	defer p.Close()
	mustBegin(t, p)
	tree, _ := CreateTree(p, false)
	payload := bytes.Repeat([]byte{0xCD}, 200)
	const n = 5000
	for i := int64(1); i <= n; i++ {
		payload[0] = byte(i)
		if err := tree.Insert(i, payload); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	mustCommit(t, p)

	// Full scan sees everything in order.
	var count int64
	last := int64(0)
	err = tree.Scan(-1<<63, func(r int64, pl []byte) (bool, error) {
		if r <= last {
			t.Fatalf("out of order: %d after %d", r, last)
		}
		if pl[0] != byte(r) || len(pl) != 200 {
			t.Fatalf("row %d payload corrupt", r)
		}
		last = r
		count++
		return true, nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if count != n {
		t.Errorf("scanned %d rows, want %d", count, n)
	}
	if max, _ := tree.MaxRowid(); max != n {
		t.Errorf("MaxRowid = %d", max)
	}
}

func TestBtreeRandomOrderInsert(t *testing.T) {
	p := newTestPager(t)
	mustBegin(t, p)
	tree, _ := CreateTree(p, false)
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(2000)
	for _, i := range perm {
		if err := tree.Insert(int64(i+1), []byte(fmt.Sprintf("v%d", i+1))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	mustCommit(t, p)
	for i := 1; i <= 2000; i++ {
		got, ok, err := tree.Get(int64(i))
		if err != nil || !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%d) = %q, %v, %v", i, got, ok, err)
		}
	}
}

func TestBtreeReplace(t *testing.T) {
	p := newTestPager(t)
	mustBegin(t, p)
	tree, _ := CreateTree(p, false)
	tree.Insert(5, []byte("old"))
	tree.Insert(5, []byte("new-value"))
	mustCommit(t, p)
	got, ok, _ := tree.Get(5)
	if !ok || string(got) != "new-value" {
		t.Errorf("replaced value = %q, %v", got, ok)
	}
	// Still exactly one row.
	if n := len(scanRowids(t, tree, -1<<63)); n != 1 {
		t.Errorf("row count after replace = %d", n)
	}
}

func TestBtreeDelete(t *testing.T) {
	p := newTestPager(t)
	mustBegin(t, p)
	tree, _ := CreateTree(p, false)
	for i := int64(1); i <= 500; i++ {
		tree.Insert(i, []byte{byte(i)})
	}
	// Delete evens.
	for i := int64(2); i <= 500; i += 2 {
		ok, err := tree.Delete(i)
		if err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
	}
	if ok, _ := tree.Delete(1000); ok {
		t.Error("deleted a ghost row")
	}
	mustCommit(t, p)
	for _, r := range scanRowids(t, tree, -1<<63) {
		if r%2 == 0 {
			t.Fatalf("even rowid %d survived delete", r)
		}
	}
	for i := int64(1); i <= 500; i += 2 {
		if _, ok, _ := tree.Get(i); !ok {
			t.Fatalf("odd rowid %d lost", i)
		}
	}
}

func TestBtreeOverflowPayload(t *testing.T) {
	p := newTestPager(t)
	mustBegin(t, p)
	tree, _ := CreateTree(p, false)
	big := make([]byte, 20000)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := tree.Insert(1, big); err != nil {
		t.Fatalf("Insert big: %v", err)
	}
	small := []byte("small")
	tree.Insert(2, small)
	mustCommit(t, p)

	got, ok, err := tree.Get(1)
	if err != nil || !ok {
		t.Fatalf("Get big: %v %v", ok, err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("overflow payload corrupted")
	}
	// Replacing the big row frees its overflow chain.
	mustBegin(t, p)
	free0 := freeCount(t, p)
	tree.Insert(1, []byte("tiny"))
	mustCommit(t, p)
	if freeCount(t, p) <= free0 {
		t.Error("overflow pages not freed on replace")
	}
}

func freeCount(t *testing.T, p *Pager) uint32 {
	t.Helper()
	hdr, err := p.Get(1)
	if err != nil {
		t.Fatalf("Get header: %v", err)
	}
	defer p.Unpin(hdr)
	return uint32(hdr.data[hdrFreeCountOff])<<24 | uint32(hdr.data[hdrFreeCountOff+1])<<16 |
		uint32(hdr.data[hdrFreeCountOff+2])<<8 | uint32(hdr.data[hdrFreeCountOff+3])
}

func TestBtreeCursorSeek(t *testing.T) {
	p := newTestPager(t)
	mustBegin(t, p)
	tree, _ := CreateTree(p, false)
	for i := int64(10); i <= 1000; i += 10 {
		tree.Insert(i, []byte{1})
	}
	mustCommit(t, p)
	if got := scanRowids(t, tree, 95); len(got) == 0 || got[0] != 100 {
		t.Errorf("seek(95) landed on %v, want 100", got)
	}
	if got := scanRowids(t, tree, 100); len(got) == 0 || got[0] != 100 {
		t.Errorf("seek(100) landed on %v", got)
	}
	if got := scanRowids(t, tree, 1001); len(got) != 0 {
		t.Errorf("seek past end found %v", got)
	}
}

// scanRowids returns the rowids of a table tree from start on, in scan
// order.
func scanRowids(t *testing.T, tree *Tree, start int64) []int64 {
	t.Helper()
	var out []int64
	err := tree.Scan(start, func(r int64, _ []byte) (bool, error) {
		out = append(out, r)
		return true, nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

func TestIndexTree(t *testing.T) {
	p := newTestPager(t)
	mustBegin(t, p)
	tree, err := CreateTree(p, true)
	if err != nil {
		t.Fatalf("CreateTree: %v", err)
	}
	// Keys: (text value, rowid) records.
	mk := func(s string, rowid int64) []byte {
		return EncodeRecord(nil, []Value{TextVal(s), IntVal(rowid)})
	}
	words := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, w := range words {
		if err := tree.InsertKey(mk(w, int64(i+1))); err != nil {
			t.Fatalf("InsertKey: %v", err)
		}
	}
	mustCommit(t, p)

	// In-order scan yields sorted keys.
	cur, _ := tree.Cursor()
	var got []string
	for cur.Valid() {
		k, _ := cur.Key()
		row, err := DecodeRecord(k)
		if err != nil {
			t.Fatalf("DecodeRecord: %v", err)
		}
		got = append(got, row[0].Text())
		cur.Next()
	}
	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index order = %v", got)
		}
	}

	// Seek.
	cur, _ = tree.CursorKeyGE(EncodeRecord(nil, []Value{TextVal("c")}))
	k, _ := cur.Key()
	row, _ := DecodeRecord(k)
	if row[0].Text() != "charlie" {
		t.Errorf("seek('c') = %s", row[0].Text())
	}

	// Membership and delete.
	if ok, _ := tree.HasKey(mk("delta", 1)); !ok {
		t.Error("HasKey(delta,1) = false")
	}
	mustBegin(t, p)
	if ok, _ := tree.DeleteKey(mk("delta", 1)); !ok {
		t.Error("DeleteKey failed")
	}
	mustCommit(t, p)
	if ok, _ := tree.HasKey(mk("delta", 1)); ok {
		t.Error("deleted key still present")
	}
}

func TestIndexKeyTooLarge(t *testing.T) {
	p := newTestPager(t)
	mustBegin(t, p)
	tree, _ := CreateTree(p, true)
	defer mustCommit(t, p)
	if err := tree.InsertKey(make([]byte, maxIndexKey+1)); err != ErrKeyTooLarge {
		t.Errorf("oversized key: %v", err)
	}
}

// TestBtreeMatchesModel drives a tree with random operations and checks
// against a map-based model.
func TestBtreeMatchesModel(t *testing.T) {
	type op struct {
		Kind  uint8
		Rowid uint16
		Data  []byte
	}
	check := func(ops []op) bool {
		p, err := OpenPager(NewMemVFS(), "q.db", PagerOptions{CachePages: 32})
		if err != nil {
			return false
		}
		defer p.Close()
		if p.Begin() != nil {
			return false
		}
		tree, err := CreateTree(p, false)
		if err != nil {
			return false
		}
		model := map[int64][]byte{}
		for _, o := range ops {
			rowid := int64(o.Rowid%512) + 1
			switch o.Kind % 3 {
			case 0, 1: // insert/replace
				data := append([]byte(nil), o.Data...)
				if tree.Insert(rowid, data) != nil {
					return false
				}
				model[rowid] = data
			case 2:
				ok, err := tree.Delete(rowid)
				if err != nil {
					return false
				}
				_, inModel := model[rowid]
				if ok != inModel {
					return false
				}
				delete(model, rowid)
			}
		}
		if p.Commit() != nil {
			return false
		}
		return matchesModel(tree, model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// matchesModel reports whether a table tree holds exactly the model's rows:
// every row by point lookup, and the model's keys in order by a scan.
func matchesModel(tree *Tree, model map[int64][]byte) bool {
	for rowid, want := range model {
		got, ok, err := tree.Get(rowid)
		if err != nil || !ok || !bytes.Equal(got, want) {
			return false
		}
	}
	var keys []int64
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var got []int64
	err := tree.Scan(-1<<63, func(r int64, _ []byte) (bool, error) {
		got = append(got, r)
		return true, nil
	})
	return err == nil && slices.Equal(got, keys)
}

// auditTree runs PRAGMA integrity_check's walk over a pager that holds one
// tree (page kinds, key order within and across pages and against every
// separator, the leaf chain, overflow chains, the freelist, every page
// used once) and returns the tree's entry count.
func auditTree(t *testing.T, p *Pager, tree *Tree) int64 {
	t.Helper()
	c := &checker{p: p, used: make([]bool, p.NPages()+1)}
	c.used[1] = true // header
	if err := c.freelist(); err != nil {
		t.Fatalf("freelist: %v", err)
	}
	entries, err := c.tree(tree, "tree")
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	for no := uint32(2); no <= p.NPages(); no++ {
		if !c.used[no] {
			c.failf("page %d is never used", no)
		}
	}
	if len(c.problems) > 0 {
		t.Fatalf("integrity: %v", c.problems)
	}
	return entries
}

// leafPages returns copies of a tree's leaves in key order: down the
// leftmost path, then along the next-leaf chain.
func leafPages(t *testing.T, tree *Tree) [][]byte {
	t.Helper()
	var leaves [][]byte
	no := tree.root
	for no != 0 {
		pg, err := tree.pg.Get(no)
		if err != nil {
			t.Fatalf("Get(%d): %v", no, err)
		}
		d := append([]byte(nil), pg.data...)
		tree.pg.Unpin(pg)
		switch {
		case isLeaf(d):
			leaves = append(leaves, d)
			no = rightPtr(d)
		case cellCount(d) == 0:
			no = rightPtr(d)
		default:
			no = binary.BigEndian.Uint32(cellBytes(d, 0)) // first child
		}
	}
	return leaves
}

// TestAppendFillsLeaves pins the quick-balance split: inserting the largest
// key of a tree fills its leaf before it opens the next one, so an
// ascending load leaves every leaf but the last with no room for another
// cell of the same size, and the file holds about a third fewer pages than
// 50/50 splits would leave (1 507 and 301 pages).
func TestAppendFillsLeaves(t *testing.T) {
	full := func(t *testing.T, tree *Tree) {
		t.Helper()
		leaves := leafPages(t, tree)
		cellLen := tree.leafCellLen()
		for i, d := range leaves[:len(leaves)-1] {
			last := cellLen(cellBytes(d, cellCount(d)-1))
			if free := tree.fragmentedSpace(d, cellLen); free >= last+2 {
				t.Fatalf("leaf %d of %d: %d cells, %d bytes free for a %d-byte cell", i, len(leaves), cellCount(d), free, last)
			}
		}
	}
	for _, c := range []struct {
		payload  int
		maxPages uint32
	}{{1024, 1010}, {200, 165}} {
		t.Run(fmt.Sprintf("table/%dB", c.payload), func(t *testing.T) {
			p := newTestPager(t)
			mustBegin(t, p)
			tree, _ := CreateTree(p, false)
			payload := bytes.Repeat([]byte{0x5A}, c.payload)
			for i := int64(1); i <= 3000; i++ {
				if err := tree.Insert(i, payload); err != nil {
					t.Fatalf("Insert(%d): %v", i, err)
				}
			}
			mustCommit(t, p)
			if got := p.NPages(); got > c.maxPages {
				t.Errorf("3000 ascending %d-byte rows take %d pages, want <= %d", c.payload, got, c.maxPages)
			}
			full(t, tree)
			if n := auditTree(t, p, tree); n != 3000 {
				t.Errorf("audit counted %d rows", n)
			}
		})
	}
	t.Run("index", func(t *testing.T) {
		p := newTestPager(t)
		mustBegin(t, p)
		tree, _ := CreateTree(p, true)
		for i := int64(1000); i < 4000; i++ {
			key := EncodeRecord(nil, []Value{TextVal(fmt.Sprintf("key-%06d-%080d", i, 0)), IntVal(i)})
			if err := tree.InsertKey(key); err != nil {
				t.Fatalf("InsertKey(%d): %v", i, err)
			}
		}
		mustCommit(t, p)
		full(t, tree)
		if n := auditTree(t, p, tree); n != 3000 {
			t.Errorf("audit counted %d keys", n)
		}
	})
}

// TestSplitHistoriesStayConsistent drives a table tree through ascending,
// descending and random-order loads, each followed by random middle
// inserts, deletes, and replaces of the last row with a same-size, a
// larger and an overflowing payload. After every phase the integrity walk
// is clean and the tree matches a map model.
func TestSplitHistoriesStayConsistent(t *testing.T) {
	const n = 1500
	rng := rand.New(rand.NewSource(11))
	ascending := make([]int64, n)
	for i := range ascending {
		ascending[i] = int64(2 * (i + 1)) // even rowids; odd ones go in the middle later
	}
	descending := make([]int64, n)
	for i, r := range ascending {
		descending[n-1-i] = r
	}
	random := make([]int64, n)
	for i, j := range rng.Perm(n) {
		random[i] = ascending[j]
	}
	for _, h := range []struct {
		name  string
		order []int64
	}{{"ascending", ascending}, {"descending", descending}, {"random", random}} {
		t.Run(h.name, func(t *testing.T) {
			p := newTestPager(t)
			mustBegin(t, p)
			tree, _ := CreateTree(p, false)
			model := map[int64][]byte{}
			put := func(rowid int64, size int) {
				t.Helper()
				data := bytes.Repeat([]byte{byte(rowid), byte(size)}, size/2)
				if err := tree.Insert(rowid, data); err != nil {
					t.Fatalf("Insert(%d, %d bytes): %v", rowid, len(data), err)
				}
				model[rowid] = data
			}
			phase := func(name string) {
				t.Helper()
				mustCommit(t, p)
				if got := auditTree(t, p, tree); got != int64(len(model)) {
					t.Fatalf("after %s: audit counted %d rows, model holds %d", name, got, len(model))
				}
				if !matchesModel(tree, model) {
					t.Fatalf("after %s: tree differs from the model", name)
				}
				mustBegin(t, p)
			}
			for _, r := range h.order {
				put(r, 100+int(r%7)*60)
			}
			phase("load")
			for i := 0; i < 300; i++ {
				put(int64(2*rng.Intn(n)+1), 40+rng.Intn(400))
			}
			phase("middle inserts")
			for i := 0; i < 300; i++ {
				r := int64(rng.Intn(2*n) + 1)
				if _, err := tree.Delete(r); err != nil {
					t.Fatalf("Delete(%d): %v", r, err)
				}
				delete(model, r)
			}
			phase("deletes")
			last, err := tree.MaxRowid()
			if err != nil {
				t.Fatalf("MaxRowid: %v", err)
			}
			for _, size := range []int{len(model[last]), len(model[last]) + 300, 1400, 6000} {
				put(last, size)
				phase(fmt.Sprintf("replacing the last row with %d bytes", size))
			}
			for r := last + 1; r <= last+40; r++ {
				put(r, 700)
			}
			phase("appends after the replaces")
			mustCommit(t, p)
		})
	}
}

func TestRecordRoundTrip(t *testing.T) {
	rows := [][]Value{
		{},
		{NullVal()},
		{IntVal(0), IntVal(1), IntVal(-1), IntVal(127), IntVal(-128)},
		{IntVal(32767), IntVal(-32768), IntVal(1 << 22), IntVal(-(1 << 22))},
		{IntVal(1 << 40), IntVal(-(1 << 40)), IntVal(1<<62 + 5)},
		{RealVal(3.14159), RealVal(-0.0), RealVal(1e300)},
		{TextVal(""), TextVal("hello"), TextVal("ünïcødé")},
		{BlobVal(nil), BlobVal([]byte{0, 1, 2, 255})},
		{NullVal(), IntVal(42), RealVal(2.5), TextVal("mix"), BlobVal([]byte("b"))},
	}
	for i, row := range rows {
		enc := EncodeRecord(nil, row)
		dec, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("row %d: decode: %v", i, err)
		}
		if len(dec) != len(row) {
			t.Fatalf("row %d: %d cols, want %d", i, len(dec), len(row))
		}
		for j := range row {
			if Compare(dec[j], row[j]) != 0 {
				t.Errorf("row %d col %d: %v != %v", i, j, dec[j], row[j])
			}
		}
	}
}

// TestRecordPropertyRoundTrip is the testing/quick record-codec property.
func TestRecordPropertyRoundTrip(t *testing.T) {
	check := func(i int64, f float64, s string, b []byte, useNull bool) bool {
		row := []Value{IntVal(i), RealVal(f), TextVal(s), BlobVal(b)}
		if useNull {
			row = append(row, NullVal())
		}
		dec, err := DecodeRecord(EncodeRecord(nil, row))
		if err != nil || len(dec) != len(row) {
			return false
		}
		for j := range row {
			if row[j].typ == Real {
				// NaN compares equal to itself under Compare's total order.
				if Compare(dec[j], row[j]) != 0 {
					return false
				}
				continue
			}
			if Compare(dec[j], row[j]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRecordRejectsHugeSerialType: a serial type whose body size does not
// fit an int is a corrupt record, reported as an error by both decoders,
// not a slice-bounds panic.
func TestRecordRejectsHugeSerialType(t *testing.T) {
	hdr := binary.AppendUvarint(nil, ^uint64(0)-1)
	rec := append([]byte{byte(len(hdr) + 1)}, hdr...)
	if _, err := DecodeRecord(rec); err == nil {
		t.Error("DecodeRecord accepted a serial type of 2^64-2")
	}
	ts := &TableSchema{Cols: []ColumnDef{{Name: "a"}}, RowidPK: -1}
	for _, need := range [][]bool{nil, {false}} {
		if err := ts.decodeRow(make([]Value, 1), 1, rec, need); err == nil {
			t.Errorf("decodeRow(need %v) accepted a serial type of 2^64-2", need)
		}
	}
}

// TestValueCompareTotalOrder checks Compare is a valid total order on a
// random sample (antisymmetry + transitivity on triples).
func TestValueCompareTotalOrder(t *testing.T) {
	vals := []Value{
		NullVal(), IntVal(-5), IntVal(0), IntVal(7), RealVal(-5.5), RealVal(0),
		RealVal(6.9), RealVal(7), TextVal(""), TextVal("a"), TextVal("b"),
		BlobVal(nil), BlobVal([]byte{0}), BlobVal([]byte{1, 2}),
	}
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("antisymmetry failed: %v vs %v", a, b)
			}
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Errorf("transitivity failed: %v <= %v <= %v but a > c", a, b, c)
				}
			}
		}
	}
	// Cross-class ordering.
	if Compare(IntVal(7), RealVal(6.9)) <= 0 {
		t.Error("7 <= 6.9")
	}
	if Compare(IntVal(7), RealVal(7)) != 0 {
		t.Error("int 7 != real 7.0")
	}
	if Compare(NullVal(), IntVal(-999)) >= 0 {
		t.Error("NULL not smallest")
	}
	if Compare(TextVal("zzz"), BlobVal([]byte{0})) >= 0 {
		t.Error("TEXT not before BLOB")
	}
}
