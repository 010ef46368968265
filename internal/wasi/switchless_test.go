package wasi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"twine/internal/hostfs"
	"twine/internal/sgx"
)

// switchlessEnclave returns a test enclave with a live ring (free costs,
// long idle so the worker stays warm for the whole test).
func switchlessEnclave(t *testing.T) *sgx.Enclave {
	t.Helper()
	e, err := sgx.NewPlatform("wasi-sl").NewEnclave(sgx.TestConfig(), []byte("twine"))
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	e.EnableSwitchless(sgx.SwitchlessConfig{
		Slots:      8,
		MaxPayload: 32 << 10,
		WorkerIdle: time.Second,
	})
	return e
}

// crossings counts boundary-work requests of any kind.
func crossings(e *sgx.Enclave) int64 {
	st := e.Stats()
	return st.OCalls + st.SwitchlessCalls
}

// TestSmallWritesCrossOnceEach pins the host boundary's rule: a host call
// is one crossing. With the ring live, N small writes (the SQLite journal
// pattern) take exactly N crossings, an oversized one takes one classic
// OCALL, and every byte is on the untrusted store when its write returns.
func TestSmallWritesCrossOnceEach(t *testing.T) {
	fs := hostfs.NewMemFS()
	e := switchlessEnclave(t)
	be := NewHostBackend(fs, e)

	var want bytes.Buffer
	err := e.ECall("main", func() error {
		h, err := be.Open("journal", hostfs.OCreate|hostfs.ORead|hostfs.OWrite, true)
		if err != nil {
			return err
		}
		base := crossings(e)
		const n = 100
		for i := 0; i < n; i++ {
			rec := bytes.Repeat([]byte{byte(i)}, 32)
			want.Write(rec)
			if _, err := h.Write(rec); err != nil {
				return err
			}
			if got := hostBytes(t, fs, "journal"); !bytes.Equal(got, want.Bytes()) {
				return fmt.Errorf("after write %d the host holds %d bytes, want %d", i, len(got), want.Len())
			}
		}
		if got := crossings(e) - base; got != n {
			t.Errorf("%d small writes took %d crossings, want %d", n, got, n)
		}
		big := bytes.Repeat([]byte{0xee}, 64<<10)
		want.Write(big)
		ocalls := e.Stats().OCalls
		if _, err := h.Write(big); err != nil {
			return err
		}
		if got := e.Stats().OCalls - ocalls; got != 1 {
			t.Errorf("oversized write took %d classic OCALLs, want 1", got)
		}
		if got := crossings(e) - base; got != n+1 {
			t.Errorf("%d writes took %d crossings, want %d", n+1, got, n+1)
		}
		return h.Close()
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if got := hostBytes(t, fs, "journal"); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("file = %d bytes, want %d byte-identical", len(got), want.Len())
	}
}

// hostBytes reads a whole file straight from the untrusted store, with no
// boundary crossing.
func hostBytes(t *testing.T, fs hostfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.OpenFile(name, hostfs.ORead)
	if err != nil {
		t.Fatalf("host open %s: %v", name, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		t.Fatalf("host stat %s: %v", name, err)
	}
	buf := make([]byte, info.Size)
	if n, err := f.ReadAt(buf, 0); n != len(buf) {
		t.Fatalf("host read %s: %d of %d bytes, %v", name, n, len(buf), err)
	}
	return buf
}

// TestBatchFlushesBeforeRead: the ring path reads back what it wrote.
func TestBatchFlushesBeforeRead(t *testing.T) {
	fs := hostfs.NewMemFS()
	e := switchlessEnclave(t)
	be := NewHostBackend(fs, e)
	err := e.ECall("main", func() error {
		h, err := be.Open("f", hostfs.OCreate|hostfs.ORead|hostfs.OWrite, true)
		if err != nil {
			return err
		}
		if _, err := h.Write([]byte("pending-data")); err != nil {
			return err
		}
		if _, err := h.Seek(0, 0); err != nil {
			return err
		}
		buf := make([]byte, 12)
		n, err := h.Read(buf)
		if err != nil || string(buf[:n]) != "pending-data" {
			t.Errorf("read after write = %q, %v", buf[:n], err)
		}
		return h.Close()
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
}

// TestBatchFlushesBeforeSizeAndStat: a handle's size and a path stat on
// the ring path see every byte written before them.
func TestBatchFlushesBeforeSizeAndStat(t *testing.T) {
	fs := hostfs.NewMemFS()
	e := switchlessEnclave(t)
	be := NewHostBackend(fs, e)
	err := e.ECall("main", func() error {
		h, err := be.Open("f", hostfs.OCreate|hostfs.ORead|hostfs.OWrite, true)
		if err != nil {
			return err
		}
		if _, err := h.Write(make([]byte, 300)); err != nil {
			return err
		}
		if size, err := h.Size(); err != nil || size != 300 {
			t.Errorf("Size() = %d, %v, want 300", size, err)
		}
		// Backend-level stat must also observe the write.
		info, err := be.Stat("f", true)
		if err != nil || info.Size != 300 {
			t.Errorf("Stat = %d, %v, want 300", info.Size, err)
		}
		return h.Close()
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
}

// TestNonAdjacentWriteBreaksBatch: a write after a seek past the end lands
// at the sought offset, leaving the earlier write in place.
func TestNonAdjacentWriteBreaksBatch(t *testing.T) {
	fs := hostfs.NewMemFS()
	e := switchlessEnclave(t)
	be := NewHostBackend(fs, e)
	err := e.ECall("main", func() error {
		h, err := be.Open("f", hostfs.OCreate|hostfs.ORead|hostfs.OWrite, true)
		if err != nil {
			return err
		}
		if _, err := h.Write([]byte("head")); err != nil {
			return err
		}
		if _, err := h.Seek(100, 0); err != nil {
			return err
		}
		if _, err := h.Write([]byte("tail")); err != nil {
			return err
		}
		return h.Close()
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	f, _ := fs.OpenFile("f", hostfs.ORead)
	defer f.Close()
	head, tail := make([]byte, 4), make([]byte, 4)
	f.ReadAt(head, 0)
	f.ReadAt(tail, 100)
	if string(head) != "head" || string(tail) != "tail" {
		t.Errorf("regions = %q / %q, want head / tail", head, tail)
	}
}

// TestLargeWriteBypassesBatch: a write above the ring's MaxPayload is one
// crossing, a classic OCALL.
func TestLargeWriteBypassesBatch(t *testing.T) {
	fs := hostfs.NewMemFS()
	e := switchlessEnclave(t)
	be := NewHostBackend(fs, e)
	err := e.ECall("main", func() error {
		h, err := be.Open("f", hostfs.OCreate|hostfs.ORead|hostfs.OWrite, true)
		if err != nil {
			return err
		}
		base, fallbacks := crossings(e), e.Stats().FallbackOCalls
		if _, err := h.Write(make([]byte, 32<<10+1)); err != nil {
			return err
		}
		if got := crossings(e) - base; got != 1 {
			t.Errorf("large write took %d crossings, want 1", got)
		}
		if got := e.Stats().FallbackOCalls - fallbacks; got != 1 {
			t.Errorf("large write took %d classic OCALLs, want 1", got)
		}
		return h.Close()
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
}

// TestNoBatchingWithoutRing: with switchless absent, every write is one
// classic OCALL (the switchless-off fidelity rule, at the backend level).
func TestNoBatchingWithoutRing(t *testing.T) {
	fs := hostfs.NewMemFS()
	e, err := sgx.NewPlatform("wasi-off").NewEnclave(sgx.TestConfig(), []byte("twine"))
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	be := NewHostBackend(fs, e)
	err = e.ECall("main", func() error {
		h, err := be.Open("f", hostfs.OCreate|hostfs.ORead|hostfs.OWrite, true)
		if err != nil {
			return err
		}
		base := e.Stats().OCalls
		for i := 0; i < 10; i++ {
			if _, err := h.Write([]byte("x")); err != nil {
				return err
			}
		}
		if got := e.Stats().OCalls - base; got != 10 {
			t.Errorf("10 writes took %d OCalls, want 10", got)
		}
		return h.Close()
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if st := e.Stats(); st.SwitchlessCalls != 0 || st.FallbackOCalls != 0 {
		t.Errorf("ring counters moved without a ring: %+v", st)
	}
}

// TestBatchedContentsByteIdentical runs the same mixed operation sequence
// against a ring-backed and a no-enclave backend and requires
// byte-identical untrusted state and identical per-op results
// (FuzzHostBackendRing generalises it).
func TestBatchedContentsByteIdentical(t *testing.T) {
	type opResult struct {
		n    int
		err  error
		data string
	}
	run := func(fs hostfs.FS, be *HostBackend, e *sgx.Enclave) []opResult {
		var results []opResult
		body := func() error {
			h, err := be.Open("db-journal", hostfs.OCreate|hostfs.ORead|hostfs.OWrite, true)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			for i := 0; i < 30; i++ {
				n, err := h.Write(bytes.Repeat([]byte{byte(i + 1)}, 100))
				results = append(results, opResult{n: n, err: err})
			}
			// Rewind, read some back mid-stream.
			h.Seek(500, 0)
			buf := make([]byte, 200)
			n, err := h.Read(buf)
			results = append(results, opResult{n: n, err: err, data: string(buf[:n])})
			// Overwrite a hole region and extend.
			h.Seek(5000, 0)
			n, err = h.Write([]byte("sparse-tail"))
			results = append(results, opResult{n: n, err: err})
			size, err := h.Size()
			results = append(results, opResult{n: int(size), err: err})
			if err := h.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			return nil
		}
		if e != nil {
			if err := e.ECall("main", body); err != nil {
				t.Fatalf("ECall: %v", err)
			}
		} else {
			body()
		}
		return results
	}

	plainFS := hostfs.NewMemFS()
	plainRes := run(plainFS, NewHostBackend(plainFS, nil), nil)

	ringFS := hostfs.NewMemFS()
	e := switchlessEnclave(t)
	ringRes := run(ringFS, NewHostBackend(ringFS, e), e)

	if len(plainRes) != len(ringRes) {
		t.Fatalf("result counts differ: %d vs %d", len(plainRes), len(ringRes))
	}
	for i := range plainRes {
		if plainRes[i] != ringRes[i] {
			t.Errorf("op %d: plain=%+v ring=%+v", i, plainRes[i], ringRes[i])
		}
	}
	read := func(fs hostfs.FS) []byte {
		f, err := fs.OpenFile("db-journal", hostfs.ORead)
		if err != nil {
			t.Fatalf("host open: %v", err)
		}
		defer f.Close()
		info, _ := f.Stat()
		buf := make([]byte, info.Size)
		f.ReadAt(buf, 0)
		return buf
	}
	if !bytes.Equal(read(plainFS), read(ringFS)) {
		t.Error("untrusted file contents differ between ring and no-enclave runs")
	}
}

// TestInterleavedHandlesPreserveWriteOrder: two handles on the same file
// write overlapping regions through the ring, and the last program-order
// write must win exactly as it does with no enclave.
func TestInterleavedHandlesPreserveWriteOrder(t *testing.T) {
	fs := hostfs.NewMemFS()
	e := switchlessEnclave(t)
	be := NewHostBackend(fs, e)
	err := e.ECall("main", func() error {
		a, err := be.Open("f", hostfs.OCreate|hostfs.ORead|hostfs.OWrite, true)
		if err != nil {
			return err
		}
		b, err := be.Open("f", hostfs.OCreate|hostfs.ORead|hostfs.OWrite, true)
		if err != nil {
			return err
		}
		// a writes [0,100), b writes [100,150), then a continues into
		// [100,150): a's bytes are written last and must win.
		if _, err := a.Write(bytes.Repeat([]byte{'A'}, 100)); err != nil {
			return err
		}
		if _, err := b.Seek(100, 0); err != nil {
			return err
		}
		if _, err := b.Write(bytes.Repeat([]byte{'B'}, 50)); err != nil {
			return err
		}
		if _, err := a.Write(bytes.Repeat([]byte{'a'}, 50)); err != nil {
			return err
		}
		if err := a.Close(); err != nil {
			return err
		}
		return b.Close()
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	f, _ := fs.OpenFile("f", hostfs.ORead)
	defer f.Close()
	got := make([]byte, 150)
	f.ReadAt(got, 0)
	want := append(bytes.Repeat([]byte{'A'}, 100), bytes.Repeat([]byte{'a'}, 50)...)
	if !bytes.Equal(got, want) {
		t.Errorf("file = %q, want %q (program order violated)", got, want)
	}
}

// TestUnclosedWritesOnHostBeforeECallReturns: a guest that writes and
// never closes its descriptor has its bytes on the untrusted store as soon
// as the write returns, inside the ECALL, with no exit-time flush.
func TestUnclosedWritesOnHostBeforeECallReturns(t *testing.T) {
	fs := hostfs.NewMemFS()
	e := switchlessEnclave(t)
	be := NewHostBackend(fs, e)
	err := e.ECall("main", func() error {
		h, err := be.Open("orphan", hostfs.OCreate|hostfs.ORead|hostfs.OWrite, true)
		if err != nil {
			return err
		}
		if _, err := h.Write([]byte("never-closed")); err != nil {
			return err
		}
		if got := hostBytes(t, fs, "orphan"); string(got) != "never-closed" {
			t.Errorf("host file inside the ECALL = %q, want the written bytes", got)
		}
		return nil // no Close: the guest exits
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if got := hostBytes(t, fs, "orphan"); string(got) != "never-closed" {
		t.Errorf("host file after the ECALL = %q, want the written bytes", got)
	}
}
