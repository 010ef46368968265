package sgxlkl

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"twine/internal/hostfs"
	"twine/internal/litedb"
	"twine/internal/sgx"
)

func buildAndLaunch(t *testing.T, blocks int) (*Runtime, hostfs.FS) {
	t.Helper()
	fs := hostfs.NewMemFS()
	var key [16]byte
	if err := BuildImage(fs, "disk.img", ImageConfig{Blocks: blocks, Key: key}); err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	enclave, err := sgx.NewPlatform("lkl").NewEnclave(sgx.TestConfig(), []byte("sgx-lkl"))
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	rt, err := Launch(enclave, fs, "disk.img", key)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt, fs
}

func TestImageRoundTrip(t *testing.T) {
	rt, _ := buildAndLaunch(t, 64)
	vfs := rt.VFS()
	f, err := vfs.Open("test.db", true)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 3*BlockSize+17)
	if _, err := f.WriteAt(payload, 100); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	got := make([]byte, len(payload))
	n, err := f.ReadAt(got, 100)
	if err != nil || n != len(payload) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("image data corrupted")
	}
	size, _ := f.Size()
	if size != 100+int64(len(payload)) {
		t.Errorf("size = %d", size)
	}
}

func TestPersistenceAcrossRelaunch(t *testing.T) {
	fs := hostfs.NewMemFS()
	var key [16]byte
	if err := BuildImage(fs, "d.img", ImageConfig{Blocks: 32, Key: key}); err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	platform := sgx.NewPlatform("lkl2")
	enc1, _ := platform.NewEnclave(sgx.TestConfig(), []byte("lkl"))
	rt, err := Launch(enc1, fs, "d.img", key)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	f, _ := rt.VFS().Open("x.db", true)
	f.WriteAt([]byte("persisted data"), 0)
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	enc2, _ := platform.NewEnclave(sgx.TestConfig(), []byte("lkl"))
	rt2, err := Launch(enc2, fs, "d.img", key)
	if err != nil {
		t.Fatalf("relaunch: %v", err)
	}
	defer rt2.Close()
	f2, err := rt2.VFS().Open("x.db", false)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	buf := make([]byte, 14)
	f2.ReadAt(buf, 0)
	if string(buf) != "persisted data" {
		t.Errorf("relaunched content = %q", buf)
	}
}

func TestImageCiphertextOnHost(t *testing.T) {
	rt, fs := buildAndLaunch(t, 32)
	f, _ := rt.VFS().Open("s.db", true)
	f.WriteAt([]byte("LKL-SECRET-MARKER-0123456789"), 0)
	if err := rt.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	raw, _ := fs.OpenFile("disk.img", hostfs.ORead)
	defer raw.Close()
	info, _ := raw.Stat()
	disk := make([]byte, info.Size)
	raw.ReadAt(disk, 0)
	if bytes.Contains(disk, []byte("LKL-SECRET-MARKER-0123456789")) {
		t.Fatal("plaintext visible in image file")
	}
}

func TestImageTamperDetectedAtLaunch(t *testing.T) {
	fs := hostfs.NewMemFS()
	var key [16]byte
	BuildImage(fs, "t.img", ImageConfig{Blocks: 8, Key: key})
	raw, _ := fs.OpenFile("t.img", hostfs.ORead|hostfs.OWrite)
	var b [1]byte
	raw.ReadAt(b[:], blockOff(3)+5)
	b[0] ^= 1
	raw.WriteAt(b[:], blockOff(3)+5)
	raw.Close()
	enclave, _ := sgx.NewPlatform("x").NewEnclave(sgx.TestConfig(), []byte("lkl"))
	if _, err := Launch(enclave, fs, "t.img", key); !errors.Is(err, ErrBadImage) {
		t.Errorf("tampered launch = %v, want ErrBadImage", err)
	}
}

func TestJournalExtent(t *testing.T) {
	rt, _ := buildAndLaunch(t, 64)
	vfs := rt.VFS()
	if ok, _ := vfs.Exists("a.db-journal"); ok {
		t.Error("journal exists before creation")
	}
	j, err := vfs.Open("a.db-journal", true)
	if err != nil {
		t.Fatalf("journal open: %v", err)
	}
	j.WriteAt([]byte("journal entry"), 0)
	if ok, _ := vfs.Exists("a.db-journal"); !ok {
		t.Error("journal missing after write")
	}
	if err := vfs.Delete("a.db-journal"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if ok, _ := vfs.Exists("a.db-journal"); ok {
		t.Error("journal exists after delete")
	}
}

func TestExtentFull(t *testing.T) {
	rt, _ := buildAndLaunch(t, 16) // 12 db blocks, 4 journal
	f, _ := rt.VFS().Open("big.db", true)
	big := make([]byte, 13*BlockSize)
	if _, err := f.WriteAt(big, 0); !errors.Is(err, ErrImageFull) {
		t.Errorf("oversized write = %v, want ErrImageFull", err)
	}
}

func TestSQLOnLKLImage(t *testing.T) {
	rt, _ := buildAndLaunch(t, 256)
	db, err := litedb.Open(rt.VFS(), "app.db", litedb.Options{CachePages: 32})
	if err != nil {
		t.Fatalf("litedb.Open: %v", err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)`); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Exec(`INSERT INTO t (b) VALUES ('row')`); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	row, err := db.QueryRow(`SELECT COUNT(*) FROM t`)
	if err != nil || row[0].Int() != 50 {
		t.Fatalf("count = %v, %v", row, err)
	}
	// Transactions (journal extent) work.
	if _, err := db.Exec(`BEGIN; INSERT INTO t (b) VALUES ('x'); ROLLBACK`); err != nil {
		t.Fatalf("txn: %v", err)
	}
	row, _ = db.QueryRow(`SELECT COUNT(*) FROM t`)
	if row[0].Int() != 50 {
		t.Errorf("count after rollback = %v", row[0])
	}
}

func TestLaunchTouchesWholeImage(t *testing.T) {
	fs := hostfs.NewMemFS()
	var key [16]byte
	BuildImage(fs, "d.img", ImageConfig{Blocks: 64, Key: key})
	enclave, _ := sgx.NewPlatform("t").NewEnclave(sgx.TestConfig(), []byte("lkl"))
	before := enclave.Memory().Faults()
	rt, err := Launch(enclave, fs, "d.img", key)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer rt.Close()
	if got := enclave.Memory().Faults() - before; got < 64 {
		t.Errorf("launch faulted %d pages, want >= 64 (whole image mapped)", got)
	}
	if rt.ImageBytes() != 64*BlockSize {
		t.Errorf("ImageBytes = %d", rt.ImageBytes())
	}
}

func TestExtentNaming(t *testing.T) {
	v := &lklVFS{}
	if v.extentOf("foo.db") != extDB || v.extentOf("foo.db-journal") != extJournal {
		t.Error("extent mapping wrong")
	}
	if !strings.HasSuffix("x-journal", "-journal") {
		t.Error("sanity")
	}
}
