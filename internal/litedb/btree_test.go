package litedb

import (
	"bytes"
	"fmt"
	"math/rand"
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
	cur, err := tree.Cursor()
	if err != nil {
		t.Fatalf("Cursor: %v", err)
	}
	var count int64
	last := int64(0)
	for cur.Valid() {
		r := cur.Rowid()
		if r <= last {
			t.Fatalf("out of order: %d after %d", r, last)
		}
		pl, err := cur.Payload()
		if err != nil {
			t.Fatalf("Payload: %v", err)
		}
		if pl[0] != byte(r) || len(pl) != 200 {
			t.Fatalf("row %d payload corrupt", r)
		}
		last = r
		count++
		cur.Next()
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
	cur, _ := tree.Cursor()
	n := 0
	for cur.Valid() {
		n++
		cur.Next()
	}
	if n != 1 {
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
	cur, _ := tree.Cursor()
	for cur.Valid() {
		if cur.Rowid()%2 == 0 {
			t.Fatalf("even rowid %d survived delete", cur.Rowid())
		}
		cur.Next()
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
	cur, err := tree.CursorGE(95)
	if err != nil {
		t.Fatalf("CursorGE: %v", err)
	}
	if !cur.Valid() || cur.Rowid() != 100 {
		t.Errorf("seek(95) landed on %d, want 100", cur.Rowid())
	}
	cur, _ = tree.CursorGE(100)
	if cur.Rowid() != 100 {
		t.Errorf("seek(100) landed on %d", cur.Rowid())
	}
	cur, _ = tree.CursorGE(1001)
	if cur.Valid() {
		t.Error("seek past end still valid")
	}
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
		// Verify via point lookups.
		for rowid, want := range model {
			got, ok, err := tree.Get(rowid)
			if err != nil || !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		// Verify via scan: exactly the model's keys in order.
		var keys []int64
		for k := range model {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		cur, err := tree.Cursor()
		if err != nil {
			return false
		}
		for _, k := range keys {
			if !cur.Valid() || cur.Rowid() != k {
				return false
			}
			cur.Next()
		}
		return !cur.Valid()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
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
