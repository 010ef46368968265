package litedb

import (
	"errors"
	"fmt"
	"sync"

	"twine/internal/hostfs"
	"twine/internal/ipfs"
)

// VFS is litedb's virtual file system, mirroring SQLite's VFS layer: the
// pager performs all storage I/O through it, so the same engine runs over
// plain memory, the host file system, WASI, or the Intel protected file
// system (see vfs_wasi.go and the twine core package).
type VFS interface {
	Open(name string, create bool) (DBFile, error)
	Delete(name string) error
	Exists(name string) (bool, error)
}

// DBFile is an open database or journal file.
type DBFile interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Size() (int64, error)
	Close() error
}

// Refresher is an optional DBFile capability: a file whose store another
// handle may have written revalidates itself in place and reports the
// byte spans that may have changed since this handle last looked (nil:
// none did). Pager.Refresh is built on it.
type Refresher interface {
	Refresh() ([]ipfs.Span, error)
}

// ErrNotFound is returned by VFS.Open(create=false) for missing files.
var ErrNotFound = errors.New("litedb: file not found")

// ErrNoRefresh is returned by Refresh on a database whose file is not a
// Refresher.
var ErrNoRefresh = errors.New("litedb: file cannot be refreshed in place")

// --- in-memory VFS ---

// MemVFS keeps files in memory. An optional Touch hook observes every
// byte-range access so enclave variants can charge EPC residency for the
// in-memory database (paper Figure 5's in-memory curves).
type MemVFS struct {
	mu    sync.Mutex
	files map[string]*memVFSFile
	// Touch, when set, is called with (offset, length) of every access.
	Touch func(off, n int64)
}

// NewMemVFS returns an empty in-memory VFS.
func NewMemVFS() *MemVFS {
	return &MemVFS{files: make(map[string]*memVFSFile)}
}

type memVFSFile struct {
	vfs  *MemVFS
	name string
	data []byte
}

// Open implements VFS.
func (v *MemVFS) Open(name string, create bool) (DBFile, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	f, ok := v.files[name]
	if !ok {
		if !create {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		f = &memVFSFile{vfs: v, name: name}
		v.files[name] = f
	}
	return f, nil
}

// Delete implements VFS.
func (v *MemVFS) Delete(name string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.files, name)
	return nil
}

// Exists implements VFS.
func (v *MemVFS) Exists(name string) (bool, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	_, ok := v.files[name]
	return ok, nil
}

// TotalBytes reports the memory footprint of all files.
func (v *MemVFS) TotalBytes() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var n int64
	for _, f := range v.files {
		n += int64(len(f.data))
	}
	return n
}

func (f *memVFSFile) ReadAt(p []byte, off int64) (int, error) {
	f.vfs.mu.Lock()
	defer f.vfs.mu.Unlock()
	if f.vfs.Touch != nil {
		f.vfs.Touch(off, int64(len(p)))
	}
	if off >= int64(len(f.data)) {
		return 0, nil
	}
	return copy(p, f.data[off:]), nil
}

func (f *memVFSFile) WriteAt(p []byte, off int64) (int, error) {
	f.vfs.mu.Lock()
	defer f.vfs.mu.Unlock()
	if f.vfs.Touch != nil {
		f.vfs.Touch(off, int64(len(p)))
	}
	if need := off + int64(len(p)); need > int64(len(f.data)) {
		if need <= int64(cap(f.data)) {
			f.data = f.data[:need]
		} else {
			newCap := int64(cap(f.data)) * 2
			if newCap < need {
				newCap = need
			}
			grown := make([]byte, need, newCap)
			copy(grown, f.data)
			f.data = grown
		}
	}
	copy(f.data[off:], p)
	return len(p), nil
}

func (f *memVFSFile) Truncate(size int64) error {
	f.vfs.mu.Lock()
	defer f.vfs.mu.Unlock()
	switch {
	case size <= int64(len(f.data)):
		f.data = f.data[:size]
	default:
		grown := make([]byte, size)
		copy(grown, f.data)
		f.data = grown
	}
	return nil
}

func (f *memVFSFile) Sync() error { return nil }

func (f *memVFSFile) Size() (int64, error) {
	f.vfs.mu.Lock()
	defer f.vfs.mu.Unlock()
	return int64(len(f.data)), nil
}

func (f *memVFSFile) Close() error { return nil }

// --- host-FS VFS ---

// HostVFS stores database files on a hostfs.FS (the untrusted host in the
// WAMR baseline configuration).
type HostVFS struct {
	FS hostfs.FS
}

// NewHostVFS wraps fs.
func NewHostVFS(fs hostfs.FS) *HostVFS { return &HostVFS{FS: fs} }

// Open implements VFS.
func (v *HostVFS) Open(name string, create bool) (DBFile, error) {
	flags := hostfs.ORead | hostfs.OWrite
	if create {
		flags |= hostfs.OCreate
	}
	f, err := v.FS.OpenFile(name, flags)
	if err != nil {
		if errors.Is(err, hostfs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return nil, err
	}
	return &hostVFSFile{f: f}, nil
}

// Delete implements VFS.
func (v *HostVFS) Delete(name string) error {
	err := v.FS.Remove(name)
	if errors.Is(err, hostfs.ErrNotExist) {
		return nil
	}
	return err
}

// Exists implements VFS.
func (v *HostVFS) Exists(name string) (bool, error) {
	_, err := v.FS.Stat(name)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, hostfs.ErrNotExist) {
		return false, nil
	}
	return false, err
}

type hostVFSFile struct{ f hostfs.File }

func (h *hostVFSFile) ReadAt(p []byte, off int64) (int, error)  { return h.f.ReadAt(p, off) }
func (h *hostVFSFile) WriteAt(p []byte, off int64) (int, error) { return h.f.WriteAt(p, off) }
func (h *hostVFSFile) Truncate(size int64) error                { return h.f.Truncate(size) }
func (h *hostVFSFile) Sync() error                              { return h.f.Sync() }
func (h *hostVFSFile) Close() error                             { return h.f.Close() }

func (h *hostVFSFile) Size() (int64, error) {
	info, err := h.f.Stat()
	return info.Size, err
}
