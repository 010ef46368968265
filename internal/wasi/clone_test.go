package wasi

import (
	"bytes"
	"testing"

	"twine/internal/hostfs"
	"twine/internal/ipfs"
)

// TestCloneIsolatesState: a cloned System gets its own descriptor table
// and stdio while sharing the file backend and the storage under it.
func TestCloneIsolatesState(t *testing.T) {
	host := hostfs.NewMemFS()
	var out1, out2 bytes.Buffer
	s1, err := NewSystem(Config{
		Args:     []string{"one"},
		Stdout:   &out1,
		FS:       NewHostBackend(host, nil),
		Preopens: map[string]string{"/": ""},
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	s2, err := s1.Clone(CloneOptions{Args: []string{"two"}, Stdout: &out2})
	if err != nil {
		t.Fatalf("Clone: %v", err)
	}

	if s1 == s2 {
		t.Fatal("Clone returned the same System")
	}
	if &s1.fds == &s2.fds || len(s2.fds) != len(s1.fds) {
		t.Errorf("clone fd table not fresh: %d entries vs %d", len(s2.fds), len(s1.fds))
	}
	if s1.cfg.FS != s2.cfg.FS {
		t.Error("clone got its own backend; the backend is stateless and shared")
	}
	if s1.cfg.Args[0] != "one" || s2.cfg.Args[0] != "two" {
		t.Errorf("args not per-clone: %v / %v", s1.cfg.Args, s2.cfg.Args)
	}

	// Mutating one table must not show in the other.
	s2.fds[99] = &fdEntry{kind: kindFile}
	if _, ok := s1.fds[99]; ok {
		t.Error("fd table shared between clones")
	}

	// The storage itself is shared: a file created through one System's
	// backend is visible through the other's.
	h1 := s1.cfg.FS.(*HostBackend)
	h2 := s2.cfg.FS.(*HostBackend)
	if h1.FS != h2.FS {
		t.Fatal("clones do not share the untrusted store")
	}
	f, err := h1.Open("shared.txt", hostfs.OCreate|hostfs.OWrite|hostfs.ORead, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := h2.Open("shared.txt", hostfs.ORead, false)
	if err != nil {
		t.Fatalf("clone backend cannot see shared file: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := g.Read(buf); err != nil || string(buf) != "hello" {
		t.Errorf("clone read %q (%v), want \"hello\"", buf, err)
	}
	_ = g.Close()
}

// TestCloneSharesEveryBackendKind pins the cloning rule, the same for every backend
// kind: System.Clone shares the backend value as-is (neither backend holds
// per-instance state; the protected FS keeps its mutable state in per-open
// file handles).
func TestCloneSharesEveryBackendKind(t *testing.T) {
	host := hostfs.NewMemFS()
	hb := NewHostBackend(host, nil)
	pfs := ipfs.New(nil, host, ipfs.Options{})
	for _, be := range []Backend{hb, NewIPFSBackend(pfs, hb)} {
		s1, err := NewSystem(Config{FS: be, Preopens: map[string]string{"/": ""}})
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		s2, err := s1.Clone(CloneOptions{})
		if err != nil {
			t.Fatalf("Clone: %v", err)
		}
		if s2.cfg.FS != be {
			t.Errorf("%T: clone got backend %p, want the shared %p", be, s2.cfg.FS, be)
		}
	}
}
