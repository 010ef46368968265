package sgx

import (
	"bytes"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// rssMiB reads the process's resident set from /proc/self/statm.
func rssMiB(t *testing.T) float64 {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatalf("statm: %v", err)
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		t.Fatalf("statm: %q", raw)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		t.Fatalf("statm: %q", raw)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// firstNonZero is the "cold boot" view of a backing array: the index of the
// first byte that is not zero, or -1.
func firstNonZero(b []byte) int {
	for i, v := range b {
		if v != 0 {
			return i
		}
	}
	return -1
}

// writtenPages counts the pages Write, Zero and Slice have marked.
func (m *Memory) writtenPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.written {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestEnclaveHostCostFollowsWrites pins the host-memory rule: an enclave
// costs the host what it wrote. The DefaultConfig arena is 272 MiB; with
// the arena a zeroed Go slice the launch assertion read >= 256 MiB. No
// wall-clock assertion: the launch is the model's paging sweep either way.
// Deliberately not parallel (RSS is the process's), and it is the first
// test of the package to launch a DefaultConfig enclave.
func TestEnclaveHostCostFollowsWrites(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/statm")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow of the Go heap is resident too")
	}
	launch := func() *Enclave {
		e, err := NewPlatform("rss").NewEnclave(DefaultConfig(), []byte("enclave-code"))
		if err != nil {
			t.Fatalf("NewEnclave: %v", err)
		}
		return e
	}
	runtime.GC()
	start := rssMiB(t)

	e := launch()
	launched := rssMiB(t)
	if grew := launched - start; grew >= 16 {
		t.Errorf("launch grew RSS by %.1f MiB, want < 16 (the arena is %d MiB)", grew, e.Memory().Size()>>20)
	}
	if got := e.Memory().writtenPages(); got != 0 {
		t.Errorf("launch wrote %d pages, want 0", got)
	}

	// 1 MiB of code is 256 pages at the bottom of the reserved region; each
	// of the 100 blocks is one page long with its 16-byte header, the only
	// bytes the allocator stores, at the page's start: 256 + 100 pages.
	if _, err := e.Reserved().Load(bytes.Repeat([]byte{0xC3}, 1<<20)); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for i := 0; i < 100; i++ {
		if _, err := e.Allocator().Alloc(PageSize - allocHeaderSize); err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
	}
	if got := e.Memory().writtenPages(); got != 356 {
		t.Errorf("written set holds %d pages, want 356", got)
	}
	if grew := rssMiB(t) - launched; grew >= 4 {
		t.Errorf("1 MiB of code and 100 allocations grew RSS by %.1f MiB, want < 4", grew)
	}
	e.Destroy()
	if got := e.Memory().writtenPages(); got != 0 {
		t.Errorf("written set holds %d pages after Destroy, want 0", got)
	}

	before := rssMiB(t)
	for i := 0; i < 8; i++ {
		launch().Destroy()
	}
	if grew := rssMiB(t) - before; grew >= 32 {
		t.Errorf("8 launch+Destroy in a row grew RSS by %.1f MiB, want < 32", grew)
	}
}

// TestLaunchSweepCounts holds what the host-memory rule must not move: the
// HeapPool commit is one fault per heap page and one eviction per page past
// the usable EPC, and HeapSystem commits, and zeroes, only on demand.
func TestLaunchSweepCounts(t *testing.T) {
	for _, tc := range []struct {
		name                                   string
		cfg                                    Config
		faults, evictions, resident, committed int64
	}{
		{"default", DefaultConfig(), 65536, 41728, 23808, 65536}, // 23 808 = EPCUsable / 4 KiB
		{"test", TestConfig(), 1024, 832, 192, 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewPlatform("sweep").NewEnclave(tc.cfg, nil)
			if err != nil {
				t.Fatalf("NewEnclave: %v", err)
			}
			defer e.Destroy()
			m := e.Memory()
			if m.Faults() != tc.faults || m.Evictions() != tc.evictions {
				t.Errorf("launch = %d faults, %d evictions, want %d, %d", m.Faults(), m.Evictions(), tc.faults, tc.evictions)
			}
			if got := int64(m.Resident()); got != tc.resident {
				t.Errorf("Resident() = %d, want %d", got, tc.resident)
			}
			if got := e.Allocator().CommittedPages(); got != tc.committed {
				t.Errorf("CommittedPages() = %d, want %d", got, tc.committed)
			}
		})
	}
	t.Run("system", func(t *testing.T) {
		e := newTestEnclave(t, func(c *Config) { c.HeapMode = HeapSystem })
		defer e.Destroy()
		m, a := e.Memory(), e.Allocator()
		if m.Faults() != 0 || a.CommittedPages() != 0 {
			t.Fatalf("launch = %d faults, %d committed pages, want 0, 0", m.Faults(), a.CommittedPages())
		}
		// Stale bytes on an uncommitted page: the commit must clear them.
		if err := m.Write(a.Base()+allocHeaderSize, bytes.Repeat([]byte{0xFF}, 64)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		off, err := a.Alloc(64)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		got := make([]byte, 64)
		if err := m.Read(off, got); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, make([]byte, 64)) {
			t.Errorf("HeapSystem commit left stale bytes: % x", got[:8])
		}
		if a.CommittedPages() != 1 || m.Faults() != 1 {
			t.Errorf("one small Alloc = %d committed pages, %d faults, want 1, 1", a.CommittedPages(), m.Faults())
		}
	})
}

// TestDestroyScrubsConcurrentWriters: goroutines write disjoint bytes of
// overlapping pages through Write and Slice while others Touch the same
// pages; after Destroy the whole arena reads zero. Run with -race -count=10.
func TestDestroyScrubsConcurrentWriters(t *testing.T) {
	e := newTestEnclave(t)
	m := e.Memory()
	base := e.Allocator().Base()
	const workers, span = 6, 8 * PageSize
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Worker g owns bytes g, g+workers, g+2*workers, ... of every
			// 64-byte stripe it visits, so pages are shared and bytes are not.
			for off := int64(g); off < span; off += 64 {
				switch g % 3 {
				case 0:
					if err := m.Write(base+off, []byte{0xA5}); err != nil {
						t.Errorf("Write: %v", err)
					}
				case 1:
					s, err := m.Slice(base+off, 1)
					if err != nil {
						t.Errorf("Slice: %v", err)
						continue
					}
					s[0] = 0x5A
				default:
					if err := m.Touch(base+off, PageSize); err != nil {
						t.Errorf("Touch: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.writtenPages(); got != span/PageSize {
		t.Errorf("written set holds %d pages, want %d", got, span/PageSize)
	}
	e.Destroy()
	if i := firstNonZero(m.data); i >= 0 {
		t.Errorf("byte %d survived Destroy", i)
	}
}
