package ipfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"twine/internal/chaos"
	"twine/internal/hostfs"
	"twine/internal/sgx"
)

// eachMode runs a subtest under both IPFS modes; the optimized variant
// must be behaviourally identical to the standard one.
func eachMode(t *testing.T, name string, fn func(t *testing.T, fs *FS, backing *hostfs.MemFS)) {
	t.Helper()
	for _, mode := range []Mode{ModeStandard, ModeOptimized} {
		t.Run(name+"/"+mode.String(), func(t *testing.T) {
			backing := hostfs.NewMemFS()
			fn(t, New(nil, backing, Options{Mode: mode}), backing)
		})
	}
}

func TestLayoutMath(t *testing.T) {
	// Intel's interleaving: meta(0), MHT0(1), data 0..95 at 2..97,
	// MHT1(98), data 96..191 at 99..194, ...
	tests := []struct{ d, phys int64 }{
		{0, 2}, {1, 3}, {95, 97}, {96, 99}, {191, 194}, {192, 196},
	}
	for _, tc := range tests {
		if got := dataPhys(tc.d); got != tc.phys {
			t.Errorf("dataPhys(%d) = %d, want %d", tc.d, got, tc.phys)
		}
	}
	if got := mhtPhys(0); got != 1 {
		t.Errorf("mhtPhys(0) = %d, want 1", got)
	}
	if got := mhtPhys(1); got != 98 {
		t.Errorf("mhtPhys(1) = %d, want 98", got)
	}
	// Parent relations.
	if m, s := dataParent(100); m != 1 || s != 4 {
		t.Errorf("dataParent(100) = (%d,%d), want (1,4)", m, s)
	}
	if p, s := mhtParent(1); p != 0 || s != dataPerMHT {
		t.Errorf("mhtParent(1) = (%d,%d), want (0,%d)", p, s, dataPerMHT)
	}
	if p, s := mhtParent(33); p != 1 || s != dataPerMHT {
		t.Errorf("mhtParent(33) = (%d,%d), want (1,%d)", p, s, dataPerMHT)
	}
	// No two distinct nodes may share a physical index.
	seen := map[int64]string{}
	for d := int64(0); d < 1000; d++ {
		p := dataPhys(d)
		if prev, ok := seen[p]; ok {
			t.Fatalf("phys %d used by data %d and %s", p, d, prev)
		}
		seen[p] = "data"
	}
	for k := int64(0); k < 12; k++ {
		p := mhtPhys(k)
		if prev, ok := seen[p]; ok {
			t.Fatalf("phys %d used by mht %d and %s", p, k, prev)
		}
		seen[p] = "mht"
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	eachMode(t, "roundtrip", func(t *testing.T, fs *FS, _ *hostfs.MemFS) {
		f, err := fs.Open("db", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		payload := bytes.Repeat([]byte("0123456789abcdef"), 1000) // 16,000 B, ~4 nodes
		if _, err := f.Write(payload); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if _, err := f.Seek(0, SeekStart); err != nil {
			t.Fatalf("Seek: %v", err)
		}
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(readerOf(f), got); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("read-back mismatch")
		}
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

type fileReader struct{ f *File }

func (r fileReader) Read(p []byte) (int, error) { return r.f.Read(p) }
func readerOf(f *File) io.Reader                { return fileReader{f} }

func TestPersistenceAcrossReopen(t *testing.T) {
	eachMode(t, "reopen", func(t *testing.T, fs *FS, _ *hostfs.MemFS) {
		f, _ := fs.Open("p", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
		payload := bytes.Repeat([]byte{0x5A}, 3*NodeSize+123)
		f.Write(payload)
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		g, err := fs.Open("p", hostfs.ORead)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer g.Close()
		if g.Size() != int64(len(payload)) {
			t.Fatalf("size after reopen = %d, want %d", g.Size(), len(payload))
		}
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(readerOf(g), got); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("persisted data mismatch")
		}
	})
}

func TestCiphertextOnDisk(t *testing.T) {
	eachMode(t, "ciphertext", func(t *testing.T, fs *FS, backing *hostfs.MemFS) {
		f, _ := fs.Open("secret.db", hostfs.OCreate|hostfs.OWrite)
		secret := bytes.Repeat([]byte("TOP-SECRET-ROW!!"), 600)
		f.Write(secret)
		f.Close()
		raw, err := backing.OpenFile("secret.db", hostfs.ORead)
		if err != nil {
			t.Fatalf("raw open: %v", err)
		}
		defer raw.Close()
		info, _ := raw.Stat()
		disk := make([]byte, info.Size)
		raw.ReadAt(disk, 0)
		if bytes.Contains(disk, []byte("TOP-SECRET-ROW!!")) {
			t.Fatal("plaintext leaked to untrusted storage")
		}
	})
}

func TestTamperDetection(t *testing.T) {
	eachMode(t, "tamper", func(t *testing.T, fs *FS, backing *hostfs.MemFS) {
		f, _ := fs.Open("t", hostfs.OCreate|hostfs.OWrite)
		f.Write(bytes.Repeat([]byte{7}, 2*NodeSize))
		f.Close()

		// Flip one byte in the first data node's ciphertext.
		raw, _ := backing.OpenFile("t", hostfs.ORead|hostfs.OWrite)
		var b [1]byte
		off := dataPhys(0)*NodeSize + 100
		raw.ReadAt(b[:], off)
		b[0] ^= 0xFF
		raw.WriteAt(b[:], off)
		raw.Close()

		g, err := fs.Open("t", hostfs.ORead)
		if err != nil {
			t.Fatalf("open after tamper: %v (meta untouched, open must succeed)", err)
		}
		defer g.Close()
		buf := make([]byte, NodeSize)
		if _, err := g.Read(buf); !errors.Is(err, ErrIntegrity) {
			t.Errorf("read of tampered node = %v, want ErrIntegrity", err)
		}
	})
}

func TestMHTTamperDetection(t *testing.T) {
	eachMode(t, "tamper-mht", func(t *testing.T, fs *FS, backing *hostfs.MemFS) {
		f, _ := fs.Open("t", hostfs.OCreate|hostfs.OWrite)
		f.Write(bytes.Repeat([]byte{9}, NodeSize))
		f.Close()

		raw, _ := backing.OpenFile("t", hostfs.ORead|hostfs.OWrite)
		var b [1]byte
		off := mhtPhys(0)*NodeSize + 5
		raw.ReadAt(b[:], off)
		b[0] ^= 0x01
		raw.WriteAt(b[:], off)
		raw.Close()

		g, err := fs.Open("t", hostfs.ORead)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer g.Close()
		buf := make([]byte, 16)
		if _, err := g.Read(buf); !errors.Is(err, ErrIntegrity) {
			t.Errorf("read under tampered MHT = %v, want ErrIntegrity", err)
		}
	})
}

func TestWrongKeyRejected(t *testing.T) {
	backing := hostfs.NewMemFS()
	fs := New(nil, backing, Options{})
	key1 := [16]byte{1}
	key2 := [16]byte{2}
	f, err := fs.OpenWithKey("k", hostfs.OCreate|hostfs.OWrite, key1)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	f.Write([]byte("data"))
	f.Close()
	if _, err := fs.OpenWithKey("k", hostfs.ORead, key2); !errors.Is(err, ErrBadName) {
		t.Errorf("open with wrong key = %v, want ErrBadName", err)
	}
}

func TestRenamedFileRejected(t *testing.T) {
	// The file name participates in metadata authentication, so renaming
	// a protected file on the untrusted FS breaks its binding (as Intel's
	// "file name mismatch" check does).
	backing := hostfs.NewMemFS()
	fs := New(nil, backing, Options{})
	f, _ := fs.Open("orig", hostfs.OCreate|hostfs.OWrite)
	f.Write([]byte("bound"))
	f.Close()
	if err := backing.Rename("orig", "moved"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if _, err := fs.Open("moved", hostfs.ORead); !errors.Is(err, ErrBadName) {
		t.Errorf("open of renamed file = %v, want ErrBadName", err)
	}
}

func TestRollbackNotDetected(t *testing.T) {
	// Documented limitation (paper §IV-D): swapping the whole file with
	// an older snapshot is NOT detected.
	backing := hostfs.NewMemFS()
	fs := New(nil, backing, Options{})
	f, _ := fs.Open("r", hostfs.OCreate|hostfs.OWrite)
	f.Write([]byte("version-1"))
	f.Close()

	// Snapshot the untrusted bytes.
	raw, _ := backing.OpenFile("r", hostfs.ORead)
	info, _ := raw.Stat()
	snap := make([]byte, info.Size)
	raw.ReadAt(snap, 0)
	raw.Close()

	f2, _ := fs.Open("r", hostfs.OWrite|hostfs.ORead)
	f2.Seek(0, SeekStart)
	f2.Write([]byte("version-2"))
	f2.Close()

	// Roll back.
	raw2, _ := backing.OpenFile("r", hostfs.OWrite|hostfs.OTrunc)
	raw2.WriteAt(snap, 0)
	raw2.Close()

	g, err := fs.Open("r", hostfs.ORead)
	if err != nil {
		t.Fatalf("open after rollback: %v (rollback must go undetected)", err)
	}
	defer g.Close()
	buf := make([]byte, 9)
	g.Read(buf)
	if string(buf) != "version-1" {
		t.Errorf("rolled-back content = %q, want version-1", buf)
	}
}

func TestSeekSemantics(t *testing.T) {
	eachMode(t, "seek", func(t *testing.T, fs *FS, _ *hostfs.MemFS) {
		f, _ := fs.Open("s", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
		defer f.Close()
		f.Write(make([]byte, 100))

		if pos, err := f.Seek(50, SeekStart); err != nil || pos != 50 {
			t.Errorf("SeekStart = %d, %v", pos, err)
		}
		if pos, err := f.Seek(10, SeekCurrent); err != nil || pos != 60 {
			t.Errorf("SeekCurrent = %d, %v", pos, err)
		}
		if pos, err := f.Seek(-10, SeekEnd); err != nil || pos != 90 {
			t.Errorf("SeekEnd = %d, %v", pos, err)
		}
		// Intel semantics: no seeking beyond the end.
		if _, err := f.Seek(101, SeekStart); !errors.Is(err, ErrSeekPastEnd) {
			t.Errorf("seek past end = %v, want ErrSeekPastEnd", err)
		}
		if _, err := f.Seek(-1, SeekStart); err == nil {
			t.Error("negative seek accepted")
		}
		if _, err := f.Seek(0, 99); err == nil {
			t.Error("bad whence accepted")
		}
	})
}

func TestExtendToWritesNulls(t *testing.T) {
	eachMode(t, "extend", func(t *testing.T, fs *FS, _ *hostfs.MemFS) {
		f, _ := fs.Open("e", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
		defer f.Close()
		f.Write([]byte("abc"))
		if err := f.ExtendTo(NodeSize + 10); err != nil {
			t.Fatalf("ExtendTo: %v", err)
		}
		if f.Size() != NodeSize+10 {
			t.Fatalf("size = %d", f.Size())
		}
		// Now the SQLite pattern works: seek to former past-EOF and write.
		if _, err := f.Seek(NodeSize, SeekStart); err != nil {
			t.Fatalf("seek into extension: %v", err)
		}
		f.Write([]byte("xyz"))
		f.Seek(0, SeekStart)
		got := make([]byte, NodeSize+10)
		io.ReadFull(readerOf(f), got)
		if string(got[:3]) != "abc" || got[3] != 0 || string(got[NodeSize:NodeSize+3]) != "xyz" {
			t.Error("extension content wrong")
		}
	})
}

func TestTruncate(t *testing.T) {
	eachMode(t, "truncate", func(t *testing.T, fs *FS, _ *hostfs.MemFS) {
		f, _ := fs.Open("tr", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
		defer f.Close()
		f.Write(bytes.Repeat([]byte{1}, 2*NodeSize))
		if err := f.Truncate(100); err != nil {
			t.Fatalf("Truncate: %v", err)
		}
		if f.Size() != 100 {
			t.Errorf("size = %d", f.Size())
		}
		if f.Tell() != 100 {
			t.Errorf("cursor = %d, want clamped to 100", f.Tell())
		}
		if err := f.Truncate(200); err != nil {
			t.Fatalf("grow: %v", err)
		}
		f.Seek(100, SeekStart)
		buf := make([]byte, 100)
		io.ReadFull(readerOf(f), buf)
		if !bytes.Equal(buf, make([]byte, 100)) {
			t.Error("grown region not zeroed")
		}
	})
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	backing := hostfs.NewMemFS()
	fs := New(nil, backing, Options{})
	f, _ := fs.Open("ro", hostfs.OCreate|hostfs.OWrite)
	f.Write([]byte("x"))
	f.Close()
	g, _ := fs.Open("ro", hostfs.ORead)
	defer g.Close()
	if _, err := g.Write([]byte("y")); !errors.Is(err, ErrReadOnly) {
		t.Errorf("write on read-only = %v, want ErrReadOnly", err)
	}
	if err := g.Truncate(0); !errors.Is(err, ErrReadOnly) {
		t.Errorf("truncate on read-only = %v, want ErrReadOnly", err)
	}
}

func TestCacheEviction(t *testing.T) {
	eachMode(t, "eviction", func(t *testing.T, fs *FS, _ *hostfs.MemFS) {
		f, _ := fs.Open("big", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
		defer f.Close()
		// Write far more nodes than the cache holds (default floor 8).
		payload := make([]byte, 64*NodeSize)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		f.Write(payload)
		if got := f.CachedNodes(); got > fs.opt.CacheNodes+8 {
			t.Errorf("cache grew to %d nodes, cap %d", got, fs.opt.CacheNodes)
		}
		f.Seek(0, SeekStart)
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(readerOf(f), got); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("data corrupted across evictions")
		}
	})
}

func TestSmallCacheLargeFile(t *testing.T) {
	backing := hostfs.NewMemFS()
	fs := New(nil, backing, Options{CacheNodes: 1}) // floored to 8
	f, _ := fs.Open("s", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
	payload := make([]byte, 200*NodeSize) // spans multiple MHT nodes
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if _, err := f.Write(payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	g, err := fs.Open("s", hostfs.ORead)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g.Close()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(readerOf(g), got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-MHT file corrupted")
	}
}

func TestModesProduceIdenticalPlaintext(t *testing.T) {
	// The §V-F optimisation must not change observable behaviour.
	write := func(mode Mode) []byte {
		backing := hostfs.NewMemFS()
		fs := New(nil, backing, Options{Mode: mode})
		f, _ := fs.Open("x", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
		for i := 0; i < 10; i++ {
			f.Write(bytes.Repeat([]byte{byte(i)}, 1000))
		}
		f.Seek(500, SeekStart)
		f.Write([]byte("patch"))
		f.Close()
		g, _ := fs.Open("x", hostfs.ORead)
		defer g.Close()
		out := make([]byte, g.Size())
		io.ReadFull(readerOf(g), out)
		return out
	}
	if !bytes.Equal(write(ModeStandard), write(ModeOptimized)) {
		t.Fatal("modes disagree on plaintext")
	}
}

func TestOptimizedModeSkipsMemset(t *testing.T) {
	run := func(mode Mode) int64 {
		backing := hostfs.NewMemFS()
		var tm Timings
		fs := New(nil, backing, Options{Mode: mode, Timings: &tm})
		f, _ := fs.Open("m", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
		f.Write(make([]byte, 40*NodeSize))
		f.Seek(0, SeekStart)
		io.ReadFull(readerOf(f), make([]byte, 40*NodeSize))
		f.Close()
		return tm.Memset.Load()
	}
	if std := run(ModeStandard); std == 0 {
		t.Error("standard mode recorded no memset time")
	}
	if opt := run(ModeOptimized); opt != 0 {
		t.Errorf("optimized mode recorded %d memset time, want 0", opt)
	}
}

func TestEnclaveDerivedKeys(t *testing.T) {
	platform := sgx.NewPlatform("fs-test")
	enclave, err := platform.NewEnclave(sgx.TestConfig(), []byte("twine"))
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	backing := hostfs.NewMemFS()
	fs := New(enclave, backing, Options{})

	err = enclave.ECall("main", func() error {
		f, err := fs.Open("sealed", hostfs.OCreate|hostfs.OWrite)
		if err != nil {
			return err
		}
		f.Write([]byte("enclave data"))
		return f.Close()
	})
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if enclave.Stats().OCalls == 0 {
		t.Error("no OCALLs recorded for protected-file I/O from the enclave")
	}

	// The same enclave code on the same platform can reopen it.
	enclave2, _ := platform.NewEnclave(sgx.TestConfig(), []byte("twine"))
	fs2 := New(enclave2, backing, Options{})
	err = enclave2.ECall("main", func() error {
		f, err := fs2.Open("sealed", hostfs.ORead)
		if err != nil {
			return err
		}
		defer f.Close()
		buf := make([]byte, 12)
		f.Read(buf)
		if string(buf) != "enclave data" {
			t.Errorf("read = %q", buf)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reopen in second enclave: %v", err)
	}

	// A different platform cannot derive the key.
	other, _ := sgx.NewPlatform("other-cpu").NewEnclave(sgx.TestConfig(), []byte("twine"))
	fs3 := New(other, backing, Options{})
	err = other.ECall("main", func() error {
		_, err := fs3.Open("sealed", hostfs.ORead)
		return err
	})
	if !errors.Is(err, ErrBadName) {
		t.Errorf("foreign platform open = %v, want ErrBadName", err)
	}
}

func TestBackingFailurePropagates(t *testing.T) {
	bang := errors.New("injected")
	// write opens and fills a file on a host that follows plan, stopping
	// short of the flush.
	write := func(plan chaos.Plan) (*File, *chaos.Injector) {
		inj := chaos.New(plan)
		fs := New(nil, chaos.WrapFS(hostfs.NewMemFS(), inj), Options{})
		f, err := fs.Open("ff", hostfs.OCreate|hostfs.OWrite)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		f.Write(make([]byte, 4*NodeSize))
		return f, inj
	}
	// Count the host operations of a clean run up to the flush, then fail
	// everything from there.
	clean, inj := write(chaos.Plan{})
	n := inj.Stats().Ops
	if err := clean.Flush(); err != nil {
		t.Fatalf("Flush on a healthy host: %v", err)
	}
	f, _ := write(chaos.Plan{At: n + 1, Window: 1 << 40, Err: bang})
	if err := f.Flush(); !errors.Is(err, bang) {
		t.Errorf("Flush with failing backing = %v, want injected error", err)
	}
}

func TestRemoveAndExists(t *testing.T) {
	backing := hostfs.NewMemFS()
	fs := New(nil, backing, Options{})
	f, _ := fs.Open("gone", hostfs.OCreate|hostfs.OWrite)
	f.Write([]byte("x"))
	f.Close()
	if !fs.Exists("gone") {
		t.Error("Exists = false for existing file")
	}
	if err := fs.Remove("gone"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if fs.Exists("gone") {
		t.Error("Exists = true after Remove")
	}
}

func TestClosedFileRejectsOps(t *testing.T) {
	backing := hostfs.NewMemFS()
	fs := New(nil, backing, Options{})
	f, _ := fs.Open("c", hostfs.OCreate|hostfs.OWrite)
	f.Close()
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after close = %v", err)
	}
	if _, err := f.Write([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Write after close = %v", err)
	}
	if _, err := f.Seek(0, SeekStart); !errors.Is(err, ErrClosed) {
		t.Errorf("Seek after close = %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close = %v", err)
	}
}

// TestRandomOpsMatchModel drives a protected file with random
// write/seek/read sequences and cross-checks against an in-memory model.
func TestRandomOpsMatchModel(t *testing.T) {
	type op struct {
		Kind byte
		Off  uint16
		Data []byte
	}
	for _, mode := range []Mode{ModeStandard, ModeOptimized} {
		mode := mode
		check := func(ops []op) bool {
			backing := hostfs.NewMemFS()
			fs := New(nil, backing, Options{Mode: mode, CacheNodes: 8})
			f, err := fs.Open("model", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
			if err != nil {
				return false
			}
			var model []byte
			for _, o := range ops {
				switch o.Kind % 2 {
				case 0: // seek (clamped) + write
					off := int64(o.Off) % (int64(len(model)) + 1)
					if _, err := f.Seek(off, SeekStart); err != nil {
						return false
					}
					if len(o.Data) > 0 {
						if _, err := f.Write(o.Data); err != nil {
							return false
						}
						if need := off + int64(len(o.Data)); need > int64(len(model)) {
							grown := make([]byte, need)
							copy(grown, model)
							model = grown
						}
						copy(model[off:], o.Data)
					}
				case 1: // seek + read
					off := int64(o.Off) % (int64(len(model)) + 1)
					if _, err := f.Seek(off, SeekStart); err != nil {
						return false
					}
					want := len(model) - int(off)
					if want > 64 {
						want = 64
					}
					buf := make([]byte, 64)
					n, err := f.Read(buf)
					if err != nil && err != io.EOF {
						return false
					}
					if n != want && !(want > 0 && n > 0 && n <= want) {
						// Read may return fewer bytes only at node
						// boundaries; tolerate short reads but never
						// wrong bytes.
						return false
					}
					if !bytes.Equal(buf[:n], model[off:int(off)+n]) {
						return false
					}
				}
			}
			if err := f.Close(); err != nil {
				return false
			}
			// Reopen and verify the whole content.
			g, err := fs.Open("model", hostfs.ORead)
			if err != nil {
				return false
			}
			defer g.Close()
			if g.Size() != int64(len(model)) {
				return false
			}
			got := make([]byte, len(model))
			if len(model) > 0 {
				if _, err := io.ReadFull(readerOf(g), got); err != nil {
					return false
				}
			}
			return bytes.Equal(got, model)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}
