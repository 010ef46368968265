package sgx

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAllocFreeRoundTrip(t *testing.T) {
	e := newTestEnclave(t)
	a := e.Allocator()
	off, err := a.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := e.Memory().Write(off, make([]byte, 100)); err != nil {
		t.Fatalf("Write into allocation: %v", err)
	}
	if err := a.Free(off); err != nil {
		t.Fatalf("Free: %v", err)
	}
	allocs, frees, inUse := a.Stats()
	if allocs != 1 || frees != 1 || inUse != 0 {
		t.Errorf("stats = (%d,%d,%d), want (1,1,0)", allocs, frees, inUse)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	e := newTestEnclave(t)
	a := e.Allocator()
	off, _ := a.Alloc(64)
	if err := a.Free(off); err != nil {
		t.Fatalf("first Free: %v", err)
	}
	if err := a.Free(off); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free = %v, want ErrBadFree", err)
	}
}

func TestBadFreeDetected(t *testing.T) {
	e := newTestEnclave(t)
	a := e.Allocator()
	if err := a.Free(a.Base() + 12345); !errors.Is(err, ErrBadFree) {
		t.Errorf("bad free = %v, want ErrBadFree", err)
	}
	if err := a.Free(-5); !errors.Is(err, ErrBadFree) {
		t.Errorf("negative free = %v, want ErrBadFree", err)
	}
}

func TestFreeListReuse(t *testing.T) {
	e := newTestEnclave(t)
	a := e.Allocator()
	off1, _ := a.Alloc(256)
	if err := a.Free(off1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	off2, err := a.Alloc(256)
	if err != nil {
		t.Fatalf("Alloc after free: %v", err)
	}
	if off1 != off2 {
		t.Errorf("freed block not reused: %d then %d", off1, off2)
	}
}

// TestFreeListReusesLowestBlock: which freed block an Alloc takes decides
// which EPC pages the new arena lands on, so it must not depend on the
// iteration order of the free map.
func TestFreeListReusesLowestBlock(t *testing.T) {
	for rep := 0; rep < 100; rep++ {
		e := newTestEnclave(t)
		a := e.Allocator()
		var offs [3]int64
		for i := range offs {
			offs[i], _ = a.Alloc(2 * PageSize)
		}
		for _, i := range []int{2, 0, 1} {
			if err := a.Free(offs[i]); err != nil {
				t.Fatalf("Free: %v", err)
			}
		}
		got, err := a.Alloc(2 * PageSize)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if got != offs[0] {
			t.Fatalf("repetition %d: Alloc reused the block at %d, want the lowest of %v", rep, got, offs)
		}
	}
}

func TestAllocExhaustion(t *testing.T) {
	cfg := TestConfig()
	cfg.HeapSize = 64 << 10
	cfg.ReservedSize = 4 << 10
	e, err := NewPlatform("x").NewEnclave(cfg, nil)
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	a := e.Allocator()
	var offs []int64
	for {
		off, err := a.Alloc(4 << 10)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("Alloc failed with %v, want ErrOutOfMemory", err)
			}
			break
		}
		offs = append(offs, off)
	}
	if len(offs) == 0 {
		t.Fatal("no allocation succeeded")
	}
	// Free everything; allocation must succeed again.
	for _, off := range offs {
		if err := a.Free(off); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}
	if _, err := a.Alloc(4 << 10); err != nil {
		t.Errorf("Alloc after mass free: %v", err)
	}
}

func TestAllocRejectsNonPositive(t *testing.T) {
	e := newTestEnclave(t)
	if _, err := e.Allocator().Alloc(0); err == nil {
		t.Error("Alloc(0) succeeded")
	}
	if _, err := e.Allocator().Alloc(-8); err == nil {
		t.Error("Alloc(-8) succeeded")
	}
}

func TestSystemHeapCommitsLazily(t *testing.T) {
	cfg := TestConfig()
	cfg.HeapMode = HeapSystem
	e, err := NewPlatform("sys").NewEnclave(cfg, nil)
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	a := e.Allocator()
	if got := a.CommittedPages(); got != 0 {
		t.Fatalf("system heap pre-committed %d pages", got)
	}
	if _, err := a.Alloc(3 * PageSize); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if got := a.CommittedPages(); got < 3 {
		t.Errorf("committed pages = %d, want >= 3", got)
	}
}

func TestPoolHeapPrecommits(t *testing.T) {
	e := newTestEnclave(t) // TestConfig uses HeapPool
	a := e.Allocator()
	if got, want := a.CommittedPages(), (a.end-a.base)/PageSize; got != want {
		t.Errorf("pool committed %d pages, want %d", got, want)
	}
}

// TestAllocatorNeverOverlaps is the property-based allocator invariant:
// for any sequence of allocation sizes, live blocks never overlap and all
// stay within the heap.
func TestAllocatorNeverOverlaps(t *testing.T) {
	check := func(sizes []uint16) bool {
		e, err := NewPlatform("q").NewEnclave(TestConfig(), nil)
		if err != nil {
			return false
		}
		a := e.Allocator()
		type block struct{ off, size int64 }
		var live []block
		for i, s := range sizes {
			n := int64(s%2048) + 1
			off, err := a.Alloc(n)
			if err != nil {
				break
			}
			for _, b := range live {
				if off < b.off+b.size && b.off < off+n {
					t.Logf("overlap: [%d,%d) with [%d,%d)", off, off+n, b.off, b.off+b.size)
					return false
				}
			}
			if off < a.Base() || off+n > e.Memory().Size() {
				return false
			}
			live = append(live, block{off, n})
			// Free every third block to exercise reuse.
			if i%3 == 2 && len(live) > 0 {
				victim := live[0]
				live = live[1:]
				if err := a.Free(victim.off); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
