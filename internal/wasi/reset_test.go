package wasi

import (
	"reflect"
	"testing"

	"twine/internal/wasm"
)

// TestResetRestoresTable pins System.Reset: whatever a guest did to its
// descriptor table — files opened and left open, a renumber, rights
// shrunk and flags set in place, a readdir snapshot, proc_exit — Reset
// closes the open files (so their writes reach the backend) and leaves the
// table NewSystem built for the same Config. An untouched table resets
// without allocating.
func TestResetRestoresTable(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *System, in *wasm.Instance) {
		want, err := NewSystem(s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fd := openFile(t, s, in, "kept.db", oflagCreat, rightsFile)
		writeGuestString(t, in, 4096, "hello")
		writeIovec(t, in, 8192, 4096, 5)
		if errno := s.fdWrite(in, []uint64{uint64(fd), 8192, 1, 300}); errno != ErrnoSuccess {
			t.Fatalf("fd_write = %v", errno)
		}
		if errno := s.fdRenumber(in, []uint64{uint64(fd), 17}); errno != ErrnoSuccess {
			t.Fatalf("fd_renumber = %v", errno)
		}
		openFile(t, s, in, "other.db", oflagCreat, rightsFile)
		if errno := s.fdReaddir(in, []uint64{3, 4096, 512, 0, 300}); errno != ErrnoSuccess {
			t.Fatalf("fd_readdir = %v", errno)
		}
		if errno := s.fdFdstatSetFlags(in, []uint64{3, fdflagAppend}); errno != ErrnoSuccess {
			t.Fatalf("fd_fdstat_set_flags = %v", errno)
		}
		for _, fd := range []uint64{1, 3} {
			if errno := s.fdFdstatSetRights(in, []uint64{fd, 0, 0}); errno != ErrnoSuccess {
				t.Fatalf("fd_fdstat_set_rights(%d) = %v", fd, errno)
			}
		}
		if _, err := s.procExit(in, []uint64{7}); err == nil {
			t.Fatal("proc_exit returned no exit error")
		}

		if err := s.Reset(); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		if !reflect.DeepEqual(s.fds, want.fds) || s.nextFD != want.nextFD {
			t.Errorf("table after Reset differs from a new System's (next fd %d, want %d)", s.nextFD, want.nextFD)
		}
		if exited, code := s.Exited(); exited || code != 0 {
			t.Errorf("exit state after Reset: exited=%v code=%d", exited, code)
		}

		// The write made through the descriptor left open is in the file.
		fd = openFile(t, s, in, "kept.db", 0, rightsFile)
		if errno := s.fdFilestatGet(in, []uint64{uint64(fd), 1000}); errno != ErrnoSuccess {
			t.Fatalf("fd_filestat_get = %v", errno)
		}
		if size, _ := in.Memory().ReadU64(1032); size != 5 {
			t.Errorf("kept.db holds %d bytes after Reset closed it, want 5", size)
		}
		if err := s.Reset(); err != nil {
			t.Fatalf("Reset: %v", err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = s.Reset() }); allocs != 0 {
			t.Errorf("Reset of an untouched table allocates %.1f objects", allocs)
		}
	})
}
