package litedb

import (
	"fmt"
	"slices"
	"testing"
)

// readLogVFS is a MemVFS that records, for every database-page read, the
// page number read (1-based).
type readLogVFS struct {
	*MemVFS
	reads []uint32
}

func (v *readLogVFS) Open(name string, create bool) (DBFile, error) {
	f, err := v.MemVFS.Open(name, create)
	if err != nil {
		return nil, err
	}
	return &readLogFile{DBFile: f, v: v}, nil
}

type readLogFile struct {
	DBFile
	v *readLogVFS
}

func (f *readLogFile) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == PageSize {
		f.v.reads = append(f.v.reads, uint32(off/PageSize)+1)
	}
	return f.DBFile.ReadAt(p, off)
}

// TestPagerEvictionOrder replays a fixed script of Get, Unpin and Write
// calls over a 16-page cache and checks which pages the pager had to read
// back from the file, and in what order. That sequence is fixed by the
// victim order (least recently unpinned clean page first, then least
// recently unpinned dirty page), so any change to the LRU that changes
// the order of evictions changes it.
func TestPagerEvictionOrder(t *testing.T) {
	v := &readLogVFS{MemVFS: NewMemVFS()}
	p, err := OpenPager(v, "t.db", PagerOptions{CachePages: 16, Journal: JournalMemory})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// 48 pages past the header, all written and committed.
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		pg, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[100] = byte(i)
		p.Unpin(pg)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	v.reads = nil

	// A fixed pseudo-random walk: pages held across later Gets, repeated
	// hits, and writes inside a transaction so that eviction must spill
	// dirty pages.
	var held []*Page
	x := uint32(12345)
	next := func(n uint32) uint32 {
		x = x*1103515245 + 12345
		return (x >> 16) % n
	}
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 400; step++ {
		no := 2 + next(48)
		if step%7 < 3 {
			no = 2 + next(8) // a hot set that stays cached
		}
		pg, err := p.Get(no)
		if err != nil {
			t.Fatalf("step %d: Get(%d): %v", step, no, err)
		}
		if pg.Data()[100] != byte(no-2) {
			t.Fatalf("step %d: page %d holds %d", step, no, pg.Data()[100])
		}
		if step%11 == 0 {
			if err := p.Write(pg); err != nil {
				t.Fatal(err)
			}
		}
		if step%5 == 0 && len(held) < 4 {
			held = append(held, pg)
			continue
		}
		p.Unpin(pg)
		if step%9 == 0 && len(held) > 0 {
			p.Unpin(held[0])
			held = held[1:]
		}
		if step == 200 {
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := p.Begin(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, pg := range held {
		p.Unpin(pg)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	// Recorded from the container/list LRU this intrusive list replaced.
	want := []uint32{
		6, 4, 7, 12, 5, 9, 2, 11, 30, 34, 3, 14, 31, 36, 8, 49, 17, 48, 9, 29, 42,
		23, 7, 24, 20, 16, 26, 12, 27, 9, 21, 28, 31, 46, 7, 34, 40, 4, 14, 43, 12,
		3, 37, 40, 38, 4, 9, 39, 44, 28, 2, 16, 48, 29, 42, 33, 28, 9, 45, 25, 2,
		31, 8, 4, 35, 3, 11, 32, 44, 22, 2, 3, 45, 27, 39, 12, 11, 26, 2, 17, 29,
		3, 48, 42, 28, 8, 13, 44, 45, 47, 17, 20, 25, 2, 49, 3, 48, 11, 15, 42, 47,
		36, 21, 22, 33, 8, 42, 19, 2, 32, 28, 34, 45, 34, 39, 25, 11, 10, 25, 24,
		2, 15, 43, 28, 3, 36, 2, 33, 30, 31, 24, 26, 19, 25, 47, 38, 12, 16, 24,
		41, 22, 29, 10, 48, 20, 18, 33, 39, 28, 20, 41, 49, 27, 10, 47, 42, 47, 27,
		12, 35, 19, 42, 21, 47, 39, 14, 44, 39, 33, 24, 20, 44, 38, 28, 48, 37, 32,
		29, 12, 21, 25, 12, 33, 30, 43, 46, 33, 24, 16, 22,
	}
	if !slices.Equal(v.reads, want) {
		t.Fatalf("pages read %d times, want %d\ngot  %s\nwant %s", len(v.reads), len(want), fmt.Sprint(v.reads), fmt.Sprint(want))
	}
}
