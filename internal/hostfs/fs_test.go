package hostfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

// eachFS runs a conformance subtest against both implementations.
func eachFS(t *testing.T, name string, fn func(t *testing.T, fsys FS)) {
	t.Helper()
	t.Run(name+"/mem", func(t *testing.T) { fn(t, NewMemFS()) })
	t.Run(name+"/dir", func(t *testing.T) {
		d, err := NewDirFS(t.TempDir())
		if err != nil {
			t.Fatalf("NewDirFS: %v", err)
		}
		fn(t, d)
	})
}

func TestCreateWriteRead(t *testing.T) {
	eachFS(t, "crud", func(t *testing.T, fsys FS) {
		f, err := fsys.OpenFile("a.txt", ORead|OWrite|OCreate)
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		if _, err := f.WriteAt([]byte("hello world"), 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		buf := make([]byte, 5)
		n, err := f.ReadAt(buf, 6)
		if err != nil || n != 5 || string(buf) != "world" {
			t.Fatalf("ReadAt = %d %q %v", n, buf, err)
		}
		info, err := f.Stat()
		if err != nil || info.Size != 11 {
			t.Fatalf("Stat = %+v, %v", info, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := f.Close(); err == nil && fsysIsMem(fsys) {
			t.Error("double close not detected")
		}
	})
}

func fsysIsMem(fsys FS) bool { _, ok := fsys.(*MemFS); return ok }

func TestOpenMissingFails(t *testing.T) {
	eachFS(t, "missing", func(t *testing.T, fsys FS) {
		if _, err := fsys.OpenFile("nope", ORead); !errors.Is(err, ErrNotExist) {
			t.Errorf("open missing = %v, want ErrNotExist", err)
		}
	})
}

func TestExclusiveCreate(t *testing.T) {
	eachFS(t, "excl", func(t *testing.T, fsys FS) {
		f, err := fsys.OpenFile("x", OWrite|OCreate|OExcl)
		if err != nil {
			t.Fatalf("first create: %v", err)
		}
		f.Close()
		if _, err := fsys.OpenFile("x", OWrite|OCreate|OExcl); !errors.Is(err, ErrExist) {
			t.Errorf("second excl create = %v, want ErrExist", err)
		}
	})
}

func TestTruncFlagEmptiesFile(t *testing.T) {
	eachFS(t, "trunc", func(t *testing.T, fsys FS) {
		f, _ := fsys.OpenFile("t", OWrite|OCreate)
		f.WriteAt([]byte("data"), 0)
		f.Close()
		f2, err := fsys.OpenFile("t", OWrite|OTrunc)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer f2.Close()
		info, _ := f2.Stat()
		if info.Size != 0 {
			t.Errorf("size after OTrunc = %d", info.Size)
		}
	})
}

func TestSparseWriteZeroFills(t *testing.T) {
	eachFS(t, "sparse", func(t *testing.T, fsys FS) {
		f, _ := fsys.OpenFile("s", ORead|OWrite|OCreate)
		defer f.Close()
		f.WriteAt([]byte{0xAA}, 100)
		buf := make([]byte, 101)
		n, err := f.ReadAt(buf, 0)
		if err != nil || n != 101 {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
		if !bytes.Equal(buf[:100], make([]byte, 100)) {
			t.Error("gap not zero-filled")
		}
		if buf[100] != 0xAA {
			t.Error("payload byte lost")
		}
	})
}

func TestTruncateGrowAndShrink(t *testing.T) {
	eachFS(t, "truncate", func(t *testing.T, fsys FS) {
		f, _ := fsys.OpenFile("g", ORead|OWrite|OCreate)
		defer f.Close()
		f.WriteAt([]byte("abcdef"), 0)
		if err := f.Truncate(3); err != nil {
			t.Fatalf("shrink: %v", err)
		}
		info, _ := f.Stat()
		if info.Size != 3 {
			t.Errorf("size after shrink = %d", info.Size)
		}
		if err := f.Truncate(8); err != nil {
			t.Fatalf("grow: %v", err)
		}
		buf := make([]byte, 8)
		f.ReadAt(buf, 0)
		if !bytes.Equal(buf, []byte{'a', 'b', 'c', 0, 0, 0, 0, 0}) {
			t.Errorf("grown content = %v", buf)
		}
	})
}

func TestMkdirRemoveReadDir(t *testing.T) {
	eachFS(t, "dirs", func(t *testing.T, fsys FS) {
		if err := fsys.Mkdir("d"); err != nil {
			t.Fatalf("Mkdir: %v", err)
		}
		if err := fsys.Mkdir("d"); !errors.Is(err, ErrExist) {
			t.Errorf("duplicate Mkdir = %v, want ErrExist", err)
		}
		for _, name := range []string{"d/b", "d/a", "d/c"} {
			f, err := fsys.OpenFile(name, OWrite|OCreate)
			if err != nil {
				t.Fatalf("create %s: %v", name, err)
			}
			f.Close()
		}
		entries, err := fsys.ReadDir("d")
		if err != nil {
			t.Fatalf("ReadDir: %v", err)
		}
		if len(entries) != 3 || entries[0].Name != "a" || entries[2].Name != "c" {
			t.Errorf("ReadDir = %+v, want a,b,c sorted", entries)
		}
		if err := fsys.Remove("d"); !errors.Is(err, ErrNotEmpty) {
			t.Errorf("Remove non-empty dir = %v, want ErrNotEmpty", err)
		}
		for _, name := range []string{"d/a", "d/b", "d/c"} {
			if err := fsys.Remove(name); err != nil {
				t.Fatalf("Remove %s: %v", name, err)
			}
		}
		if err := fsys.Remove("d"); err != nil {
			t.Errorf("Remove empty dir = %v", err)
		}
	})
}

func TestRename(t *testing.T) {
	eachFS(t, "rename", func(t *testing.T, fsys FS) {
		f, _ := fsys.OpenFile("old", OWrite|OCreate)
		f.WriteAt([]byte("v"), 0)
		f.Close()
		if err := fsys.Rename("old", "new"); err != nil {
			t.Fatalf("Rename: %v", err)
		}
		if _, err := fsys.Stat("old"); !errors.Is(err, ErrNotExist) {
			t.Errorf("old still present: %v", err)
		}
		if _, err := fsys.Stat("new"); err != nil {
			t.Errorf("new missing: %v", err)
		}
		if err := fsys.Rename("ghost", "x"); !errors.Is(err, ErrNotExist) {
			t.Errorf("rename of missing = %v", err)
		}
	})
}

func TestPathEscapeRejected(t *testing.T) {
	eachFS(t, "escape", func(t *testing.T, fsys FS) {
		if _, err := fsys.OpenFile("../../etc/passwd", ORead); !errors.Is(err, ErrPermission) {
			t.Errorf("escape = %v, want ErrPermission", err)
		}
		// Inner dot-dot that stays inside the root is fine.
		fsys.Mkdir("sub")
		f, err := fsys.OpenFile("sub/../ok", OWrite|OCreate)
		if err != nil {
			t.Errorf("inner ..: %v", err)
		} else {
			f.Close()
		}
	})
}

func TestSymlinks(t *testing.T) {
	eachFS(t, "symlink", func(t *testing.T, fsys FS) {
		f, _ := fsys.OpenFile("target", OWrite|OCreate)
		f.WriteAt([]byte("payload"), 0)
		f.Close()
		if err := fsys.Symlink("target", "ln"); err != nil {
			t.Fatalf("Symlink: %v", err)
		}
		got, err := fsys.Readlink("ln")
		if err != nil || got != "target" {
			t.Fatalf("Readlink = %q, %v", got, err)
		}
		info, err := fsys.Stat("ln") // follows
		if err != nil || info.Type != TypeRegular {
			t.Errorf("Stat through link = %+v, %v", info, err)
		}
		linfo, err := fsys.Lstat("ln") // does not follow
		if err != nil || linfo.Type != TypeSymlink {
			t.Errorf("Lstat of link = %+v, %v", linfo, err)
		}
		lf, err := fsys.OpenFile("ln", ORead)
		if err != nil {
			t.Fatalf("open via link: %v", err)
		}
		defer lf.Close()
		buf := make([]byte, 7)
		lf.ReadAt(buf, 0)
		if string(buf) != "payload" {
			t.Errorf("read via link = %q", buf)
		}
	})
}

func TestSymlinkLoopDetected(t *testing.T) {
	fsys := NewMemFS()
	fsys.Symlink("b", "a")
	fsys.Symlink("a", "b")
	if _, err := fsys.OpenFile("a", ORead); err == nil {
		t.Error("symlink loop not detected")
	}
}

func TestHardLinks(t *testing.T) {
	eachFS(t, "hardlink", func(t *testing.T, fsys FS) {
		f, _ := fsys.OpenFile("orig", ORead|OWrite|OCreate)
		f.WriteAt([]byte("shared"), 0)
		f.Close()
		if err := fsys.Link("orig", "alias"); err != nil {
			t.Fatalf("Link: %v", err)
		}
		// A write through one name is visible through the other.
		f2, _ := fsys.OpenFile("alias", ORead|OWrite)
		f2.WriteAt([]byte("SHARED"), 0)
		f2.Close()
		f3, _ := fsys.OpenFile("orig", ORead)
		defer f3.Close()
		buf := make([]byte, 6)
		f3.ReadAt(buf, 0)
		if string(buf) != "SHARED" {
			t.Errorf("through-link read = %q", buf)
		}
	})
}

func TestUTimes(t *testing.T) {
	eachFS(t, "utimes", func(t *testing.T, fsys FS) {
		f, _ := fsys.OpenFile("t", OWrite|OCreate)
		f.Close()
		want := time.Date(2020, 6, 1, 12, 0, 0, 0, time.UTC)
		if err := fsys.UTimes("t", want, want); err != nil {
			t.Fatalf("UTimes: %v", err)
		}
		info, _ := fsys.Stat("t")
		if !info.ModTime.Equal(want) {
			t.Errorf("mtime = %v, want %v", info.ModTime, want)
		}
	})
}

func TestReadOnlyHandleRejectsWrites(t *testing.T) {
	fsys := NewMemFS()
	f, _ := fsys.OpenFile("r", OWrite|OCreate)
	f.Close()
	ro, _ := fsys.OpenFile("r", ORead)
	defer ro.Close()
	if _, err := ro.WriteAt([]byte("x"), 0); !errors.Is(err, ErrPermission) {
		t.Errorf("write on read-only handle = %v, want ErrPermission", err)
	}
	if err := ro.Truncate(0); !errors.Is(err, ErrPermission) {
		t.Errorf("truncate on read-only handle = %v, want ErrPermission", err)
	}
}

// TestMemFSMatchesModel is the property test: a random sequence of
// positional writes against MemFS must read back identically to a plain
// byte-slice model.
func TestMemFSMatchesModel(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	check := func(ops []op) bool {
		fsys := NewMemFS()
		f, err := fsys.OpenFile("model", ORead|OWrite|OCreate)
		if err != nil {
			return false
		}
		defer f.Close()
		var model []byte
		for _, o := range ops {
			off := int64(o.Off % 8192)
			if _, err := f.WriteAt(o.Data, off); err != nil {
				return false
			}
			if need := off + int64(len(o.Data)); need > int64(len(model)) {
				grown := make([]byte, need)
				copy(grown, model)
				model = grown
			}
			copy(model[off:], o.Data)
		}
		info, err := f.Stat()
		if err != nil || info.Size != int64(len(model)) {
			return false
		}
		got := make([]byte, len(model))
		if len(model) > 0 {
			if _, err := f.ReadAt(got, 0); err != nil {
				return false
			}
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRealClockMonotonic(t *testing.T) {
	c := NewRealClock()
	a := c.Monotonic()
	b := c.Monotonic()
	if b < a {
		t.Errorf("monotonic went backwards: %d then %d", a, b)
	}
	if c.Resolution() <= 0 {
		t.Error("non-positive resolution")
	}
	if c.Now().IsZero() {
		t.Error("zero Now")
	}
}

func TestMemFSTotalBytes(t *testing.T) {
	fsys := NewMemFS()
	f, _ := fsys.OpenFile("a", OWrite|OCreate)
	f.WriteAt(make([]byte, 100), 0)
	f.Close()
	fsys.Mkdir("d")
	g, _ := fsys.OpenFile("d/b", OWrite|OCreate)
	g.WriteAt(make([]byte, 50), 0)
	g.Close()
	if got := fsys.TotalBytes(); got != 150 {
		t.Errorf("TotalBytes = %d, want 150", got)
	}
}
