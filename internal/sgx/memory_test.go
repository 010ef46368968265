package sgx

import (
	"bytes"
	"errors"
	"testing"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	e := newTestEnclave(t)
	m := e.Memory()
	base := e.Allocator().Base()
	want := []byte("the quick brown fox")
	if err := m.Write(base, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, len(want))
	if err := m.Read(base, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Read = %q, want %q", got, want)
	}
}

func TestMemoryBounds(t *testing.T) {
	e := newTestEnclave(t)
	m := e.Memory()
	if err := m.Touch(-1, 4); !errors.Is(err, ErrBounds) {
		t.Errorf("negative offset: %v, want ErrBounds", err)
	}
	if err := m.Touch(m.Size()-2, 4); !errors.Is(err, ErrBounds) {
		t.Errorf("overrun: %v, want ErrBounds", err)
	}
	if err := m.Touch(0, 0); err != nil {
		t.Errorf("zero-length touch: %v, want nil", err)
	}
	if _, err := m.Slice(m.Size(), 1); !errors.Is(err, ErrBounds) {
		t.Errorf("slice overrun: %v, want ErrBounds", err)
	}
}

func TestSliceAliasesMemory(t *testing.T) {
	e := newTestEnclave(t)
	m := e.Memory()
	base := e.Allocator().Base()
	s, err := m.Slice(base, 8)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	copy(s, "abcdefgh")
	got := make([]byte, 8)
	_ = m.Read(base, got)
	if string(got) != "abcdefgh" {
		t.Errorf("write through slice not visible: %q", got)
	}
}

func TestZeroClears(t *testing.T) {
	e := newTestEnclave(t)
	m := e.Memory()
	base := e.Allocator().Base()
	_ = m.Write(base, bytes.Repeat([]byte{0xFF}, 64))
	if err := m.Zero(base, 64); err != nil {
		t.Fatalf("Zero: %v", err)
	}
	got := make([]byte, 64)
	_ = m.Read(base, got)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x after Zero", i, b)
		}
	}
}

// TestEPCPagingKicksInPastLimit is the EPC-cliff sanity check: touching a
// working set larger than the usable EPC must cause evictions, while a
// small working set must not.
func TestEPCPagingKicksInPastLimit(t *testing.T) {
	// 256 KiB usable EPC = 64 resident pages, 4 MiB heap. HeapSystem so
	// construction does not pre-touch the pool and skew the counters.
	cfg := TestConfig()
	cfg.EPCUsable = 256 << 10
	cfg.EPCSize = 512 << 10
	cfg.HeapMode = HeapSystem
	e, err := NewPlatform("epc").NewEnclave(cfg, nil)
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	m := e.Memory()

	// Working set of 32 pages: fits, so repeated touching never evicts.
	for round := 0; round < 4; round++ {
		for p := int64(0); p < 32; p++ {
			if err := m.Touch(p*PageSize, 1); err != nil {
				t.Fatalf("Touch: %v", err)
			}
		}
	}
	if ev := m.Evictions(); ev != 0 {
		t.Fatalf("evictions = %d for an EPC-resident working set, want 0", ev)
	}
	small := m.Faults()

	// Working set of 128 pages: twice the EPC, must page.
	for round := 0; round < 4; round++ {
		for p := int64(0); p < 128; p++ {
			if err := m.Touch(p*PageSize, 1); err != nil {
				t.Fatalf("Touch: %v", err)
			}
		}
	}
	if ev := m.Evictions(); ev == 0 {
		t.Error("no evictions with a working set 2x the EPC")
	}
	if f := m.Faults(); f <= small {
		t.Errorf("faults did not grow past EPC limit: %d <= %d", f, small)
	}
	if r := m.Resident(); r > 64 {
		t.Errorf("resident pages %d exceed EPC capacity 64", r)
	}
}

func TestSimulationModeStillTracksResidency(t *testing.T) {
	cfg := TestConfig()
	cfg.Mode = ModeSimulation
	e, err := NewPlatform("sw").NewEnclave(cfg, nil)
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	m := e.Memory()
	if err := m.Touch(0, PageSize*3); err != nil {
		t.Fatalf("Touch: %v", err)
	}
	if m.Faults() == 0 {
		t.Error("simulation mode should still count faults (it only skips the crypto cost)")
	}
}

func TestTouchSpansPages(t *testing.T) {
	e := newTestEnclave(t)
	m := e.Memory()
	before := m.Faults()
	// Crossing a page boundary with a 2-byte touch must fault both pages.
	if err := m.Touch(PageSize-1, 2); err != nil {
		t.Fatalf("Touch: %v", err)
	}
	if got := m.Faults() - before; got != 2 {
		t.Errorf("faults = %d, want 2 for boundary-crossing touch", got)
	}
}

// TestDestroyScrubsMemory puts bytes into the arena every way there is and
// asserts that the whole of it reads zero after Destroy.
func TestDestroyScrubsMemory(t *testing.T) {
	for _, mode := range []HeapMode{HeapPool, HeapSystem} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newTestEnclave(t, func(c *Config) { c.HeapMode = mode })
			m, a := e.Memory(), e.Allocator()
			secret := []byte("secret")
			// A raw write with no Alloc behind it, at the top of the heap
			// where no block below will reach.
			if err := m.Write(m.Size()-PageSize, secret); err != nil {
				t.Fatalf("Write: %v", err)
			}
			// Loaded code, and a write through the view of it.
			off, err := e.Reserved().Load(bytes.Repeat(secret, 1000))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			code, err := e.Reserved().Bytes(off, 6000)
			if err != nil {
				t.Fatalf("Bytes: %v", err)
			}
			copy(code, "SECRET")
			// Allocator headers, live and freed (HeapSystem commits, and
			// zeroes, the pages under them), and a payload written through
			// Slice several pages into a block.
			live, err := a.Alloc(3 * PageSize)
			if err != nil {
				t.Fatalf("Alloc: %v", err)
			}
			freed, err := a.Alloc(64)
			if err != nil {
				t.Fatalf("Alloc: %v", err)
			}
			if err := a.Free(freed); err != nil {
				t.Fatalf("Free: %v", err)
			}
			s, err := m.Slice(live+2*PageSize, int64(len(secret)))
			if err != nil {
				t.Fatalf("Slice: %v", err)
			}
			copy(s, secret)
			if n := bytes.Count(m.data, secret); n != 1001 || !bytes.HasPrefix(m.data, []byte("SECRET")) {
				t.Fatalf("arena holds %d copies of the secret before Destroy, want 999 loaded + 2 written", n)
			}

			e.Destroy()
			// Direct inspection of the backing array (the "cold boot" view).
			if i := firstNonZero(m.data); i >= 0 {
				t.Errorf("byte %d of the arena survived Destroy", i)
			}
		})
	}
}
