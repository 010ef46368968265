package wasi

import (
	"bytes"
	"testing"
	"time"

	"twine/internal/hostfs"
	"twine/internal/sgx"
)

// ringOp is the observable outcome of one fuzzed handle operation.
type ringOp struct {
	kind byte
	val  int64
	err  string
	data string
}

// ringScript decodes a fuzz input into operations over two handles on one
// or two files ("a", "b") and runs them through be, returning each
// operation's outcome and the crossings the sequence must take: one per
// host call (Open, Close, Write, Read, Truncate, Size, and a Seek from the
// end, which asks for the size); none for a Seek from the start or the
// cursor, which moves only the enclave-side cursor.
func ringScript(t *testing.T, be *HostBackend, in []byte) (ops []ringOp, want int64) {
	t.Helper()
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	const flags = hostfs.OCreate | hostfs.ORead | hostfs.OWrite
	open := func(name string) FileHandle {
		h, err := be.Open(name, flags, true)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		want++
		return h
	}
	names := [2]string{"a", "a"}
	if next()%2 == 1 {
		names[1] = "b"
	}
	hs := [2]FileHandle{open(names[0]), open(names[1])}
	for i := 0; len(in) > 0 && i < 64; i++ {
		op := next()
		h := hs[op/6%2]
		rec := ringOp{kind: op % 6}
		var err error
		switch rec.kind {
		case 0: // reopen the handle, possibly on the other file
			err = h.Close()
			want++
			hs[op/6%2] = open(names[next()%2])
		case 1: // write; every eighth large enough to miss the ring
			n := int(next())
			if n%8 == 7 {
				n = 40 << 10
			}
			var w int
			w, err = h.Write(bytes.Repeat([]byte{byte(i + 1)}, n))
			rec.val = int64(w)
			want++
		case 2: // seek
			whence := int(next() % 3)
			off := int64(next())*3 - 96
			if whence == whenceEnd {
				want++
			}
			rec.val, err = h.Seek(off, whence)
		case 3: // read
			buf := make([]byte, int(next())*2)
			var n int
			n, err = h.Read(buf)
			rec.val, rec.data = int64(n), string(buf[:n])
			want++
		case 4: // truncate
			err = h.Truncate(int64(next()) * 5)
			want++
		case 5: // size
			rec.val, err = h.Size()
			want++
		}
		if err != nil {
			rec.err = err.Error()
		}
		ops = append(ops, rec)
	}
	for _, h := range hs {
		if err := h.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		want++
	}
	return ops, want
}

// FuzzHostBackendRing runs one operation sequence through a ring-backed
// HostBackend inside an ECALL and through one with no enclave. The host
// files must be byte-identical, every operation must return the same
// result, and the ring run must take exactly one crossing per host call.
// The seed corpus is testdata/fuzz/FuzzHostBackendRing.
func FuzzHostBackendRing(f *testing.F) {
	e, err := sgx.NewPlatform("wasi-fuzz").NewEnclave(sgx.TestConfig(), []byte("twine"))
	if err != nil {
		f.Fatalf("NewEnclave: %v", err)
	}
	f.Cleanup(e.Destroy)
	e.EnableSwitchless(sgx.SwitchlessConfig{Slots: 8, MaxPayload: 32 << 10, WorkerIdle: time.Second})

	f.Fuzz(func(t *testing.T, in []byte) {
		plainFS := hostfs.NewMemFS()
		plain, _ := ringScript(t, NewHostBackend(plainFS, nil), in)

		ringFS := hostfs.NewMemFS()
		var ring []ringOp
		var want int64
		base := crossings(e)
		if err := e.ECall("main", func() error {
			ring, want = ringScript(t, NewHostBackend(ringFS, e), in)
			return nil
		}); err != nil {
			t.Fatalf("ECall: %v", err)
		}
		if got := crossings(e) - base; got != want {
			t.Errorf("ring run took %d crossings for %d host calls", got, want)
		}
		if len(plain) != len(ring) {
			t.Fatalf("op counts differ: %d vs %d", len(plain), len(ring))
		}
		for i := range plain {
			if plain[i] != ring[i] {
				t.Errorf("op %d: plain=%+v ring=%+v", i, plain[i], ring[i])
			}
		}
		for _, name := range []string{"a", "b"} {
			p, r := fileOrNil(plainFS, name), fileOrNil(ringFS, name)
			if !bytes.Equal(p, r) {
				t.Errorf("%s: host bytes differ (%d vs %d bytes)", name, len(p), len(r))
			}
		}
	})
}

// fileOrNil reads a whole host file, or returns nil if it does not exist.
func fileOrNil(fs hostfs.FS, name string) []byte {
	f, err := fs.OpenFile(name, hostfs.ORead)
	if err != nil {
		return nil
	}
	defer f.Close()
	info, _ := f.Stat()
	buf := make([]byte, info.Size)
	n, _ := f.ReadAt(buf, 0)
	return buf[:n]
}
