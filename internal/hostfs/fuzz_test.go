package hostfs

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzFileContent sends one sequence of file operations to a MemFS file,
// a DirFS file and a byte-slice model. After each op all three must agree
// on the size and on every byte the op could have changed (for a write or
// an extending truncate, from the old end of file or the offset, whichever
// is lower, to the op's end), and after the last op on every byte. An op
// is four bytes, and at most 32 are read:
//
//	byte 0      kind (low 2 bits: write, truncate, read, stat) and the
//	            high 6 bits of a write's or read's length
//	bytes 1-2   offset (little endian, so up to 64 KiB: sixteen chunks)
//	byte 3      low 8 bits of the length
//
// A write of op i fills its bytes with i|0x80, so a byte that should be a
// hole and is not shows up as nonzero.
func FuzzFileContent(f *testing.F) {
	op := func(kind byte, off uint16, n int) []byte {
		b := []byte{kind | byte(n>>8)<<2, 0, 0, byte(n)}
		binary.LittleEndian.PutUint16(b[1:], off)
		return b
	}
	seq := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	// Write 100 bytes, truncate to 10, write one byte at 50: bytes 10..49
	// must read back as zeros.
	f.Add(seq(op(0, 0, 100), op(1, 10, 0), op(0, 50, 1), op(2, 0, 64)))
	f.Add(seq(op(0, 4090, 9000), op(1, 5000, 0), op(1, 30000, 0), op(0, 12000, 1), op(3, 0, 0)))
	f.Add(seq(op(0, 65000, 0), op(1, 8192, 0), op(2, 8000, 400), op(0, 0, 0)))

	// One directory for every input: a worker runs its inputs one at a
	// time, and OTrunc starts each from an empty file.
	dirFS, err := NewDirFS(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mem, err := NewMemFS().OpenFile("f", ORead|OWrite|OCreate)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := dirFS.OpenFile("f", ORead|OWrite|OCreate|OTrunc)
		if err != nil {
			t.Fatal(err)
		}
		defer dir.Close()
		files := []File{mem, dir}
		var model []byte
		for i := 0; i+4 <= len(data) && i < 4*32; i += 4 {
			b := data[i : i+4]
			off := int64(binary.LittleEndian.Uint16(b[1:]))
			n := int(b[0]>>2)<<8 | int(b[3])
			changed := min(off, int64(len(model)))
			switch b[0] & 3 {
			case 0:
				p := bytes.Repeat([]byte{byte(i/4) | 0x80}, n)
				for _, file := range files {
					if got, err := file.WriteAt(p, off); err != nil || got != n {
						t.Fatalf("op %d: WriteAt(%d bytes, %d) = %d, %v", i/4, n, off, got, err)
					}
				}
				model = writeModel(model, p, off)
			case 1:
				for _, file := range files {
					if err := file.Truncate(off); err != nil {
						t.Fatalf("op %d: Truncate(%d): %v", i/4, off, err)
					}
				}
				model = resizeModel(model, off)
			case 2:
				want := []byte{}
				if off < int64(len(model)) {
					want = model[off:min(int64(len(model)), off+int64(n))]
				}
				for _, file := range files {
					p := make([]byte, n)
					got, err := file.ReadAt(p, off)
					if err != nil || !bytes.Equal(p[:got], want) {
						t.Fatalf("op %d: ReadAt(%d bytes, %d) = %d, %v; want %d bytes", i/4, n, off, got, err, len(want))
					}
				}
			}
			end := min(int64(len(model)), max(changed, off+int64(n)))
			for _, file := range files {
				if !sameRange(file, model, changed, end) {
					t.Fatalf("op %d: %T disagrees with the model in [%d, %d) of %d bytes", i/4, file, changed, end, len(model))
				}
			}
		}
		for _, file := range files {
			if !sameContent(file, model) {
				t.Fatalf("%T disagrees with the model (%d bytes)", file, len(model))
			}
		}
	})
}

// sameRange reports whether f's size matches model and its bytes in
// [lo, hi) match model's.
func sameRange(f File, model []byte, lo, hi int64) bool {
	info, err := f.Stat()
	if err != nil || info.Size != int64(len(model)) {
		return false
	}
	got := make([]byte, hi-lo)
	n, err := f.ReadAt(got, lo)
	return err == nil && n == len(got) && bytes.Equal(got, model[lo:hi])
}
