package wasi

import (
	"io"
	"time"

	"twine/internal/hostfs"
	"twine/internal/ipfs"
	"twine/internal/sgx"
)

// FileHandle is an open file as the WASI layer sees it: cursor-based, like
// both POSIX stdio and Intel's protected file API.
type FileHandle interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	// Seek moves the cursor. Implementations may extend the file when
	// seeking past the end on writable handles (the TWINE workaround for
	// IPFS's no-seek-past-end limitation, §IV-E).
	Seek(offset int64, whence int) (int64, error)
	Tell() int64
	Size() (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Refresher is an optional FileHandle capability: a handle over a store
// that another handle may have written can revalidate itself in place and
// say which byte spans may have changed (ipfs.File.Refresh has the
// contract). It is reached through System.RefreshFile, not through a WASI
// import: the embedder that owns the descriptor asks, never the guest.
type Refresher interface {
	Refresh() ([]ipfs.Span, error)
}

// Backend is the file-system surface the WASI layer routes path and fd
// operations to. TWINE wires an IPFS-backed implementation (trusted); the
// plain host backend reproduces WAMR's original forward-to-POSIX design.
type Backend interface {
	// Trusted reports whether this backend keeps data confidential and
	// integrity-protected (true for IPFS). DisableUntrustedPOSIX blocks
	// non-trusted backends.
	Trusted() bool
	Open(path string, flags int, writable bool) (FileHandle, error)
	Mkdir(path string) error
	RemoveFile(path string) error
	RemoveDir(path string) error
	Rename(oldPath, newPath string) error
	Stat(path string, followLinks bool) (hostfs.FileInfo, error)
	ReadDir(path string) ([]hostfs.FileInfo, error)
	Symlink(target, link string) error
	Readlink(path string) (string, error)
	Link(oldPath, newPath string) error
	UTimes(path string, atime, mtime time.Time) error
}

// --- host (untrusted POSIX) backend ---

// HostBackend forwards every operation to the untrusted host file system,
// crossing the enclave boundary each time. This reproduces WAMR's original
// WASI implementation, which "plainly routes most of the WASI functions to
// their POSIX equivalent using OCALLs" (§IV-C) — the baseline TWINE's
// trusted backend is measured against.
//
// Every operation is exactly one host call and one crossing: when the
// enclave has a switchless ring (sgx.Enclave.EnableSwitchless), small
// operations ride it instead of paying two enclave transitions; without
// one each is a classic OCALL. The backend holds no state beyond its
// configuration and retry counters, so every System cloned from one
// runtime shares it (System.Clone) and the store sees each write before
// the call that made it returns. Faults come only from the host: tests
// inject them by wrapping FS (chaos.WrapFS).
type HostBackend struct {
	FS      hostfs.FS
	Enclave *sgx.Enclave

	// Retry bounds transient-fault recovery at this boundary (see
	// RetryPolicy); the zero value surfaces every error immediately.
	Retry RetryPolicy

	// retryStats counts retry activity for every System sharing this
	// backend.
	retryStats retryCounters
}

// NewHostBackend wraps fs; enclave may be nil.
func NewHostBackend(fs hostfs.FS, enclave *sgx.Enclave) *HostBackend {
	return &HostBackend{FS: fs, Enclave: enclave}
}

// RetryCounters returns the retry activity of every System sharing this
// backend.
func (h *HostBackend) RetryCounters() RetryStats { return h.retryStats.snapshot() }

// Trusted implements Backend.
func (h *HostBackend) Trusted() bool { return false }

// call is the single host-call helper shared by the classic OCALL path
// and the switchless ring path (every Backend method and file handle
// funnels through it). payload is the byte count marshalled by the
// request; the enclave's adaptive policy sends small payloads through the
// ring and large ones through a classic OCall. A transiently failed
// crossing is re-issued within the retry budget, each attempt a full
// crossing with its own transition accounting.
func (h *HostBackend) call(name string, payload int, fn func() error) error {
	return h.Retry.retry(&h.retryStats, func() error { return h.cross(name, payload, fn) })
}

// cross is one physical boundary crossing.
func (h *HostBackend) cross(name string, payload int, fn func() error) error {
	if h.Enclave == nil || !h.Enclave.Inside() {
		return fn()
	}
	return h.Enclave.SwitchlessOCall(name, payload, fn)
}

// Open implements Backend.
func (h *HostBackend) Open(path string, flags int, writable bool) (FileHandle, error) {
	var f hostfs.File
	err := h.call("posix.open", 0, func() error {
		var oerr error
		f, oerr = h.FS.OpenFile(path, flags)
		return oerr
	})
	if err != nil {
		return nil, err
	}
	return &hostHandle{b: h, f: f}, nil
}

// Mkdir implements Backend.
func (h *HostBackend) Mkdir(path string) error {
	return h.call("posix.mkdir", 0, func() error { return h.FS.Mkdir(path) })
}

// RemoveFile implements Backend.
func (h *HostBackend) RemoveFile(path string) error {
	return h.call("posix.unlink", 0, func() error {
		info, err := h.FS.Lstat(path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return hostfs.ErrIsDir
		}
		return h.FS.Remove(path)
	})
}

// RemoveDir implements Backend.
func (h *HostBackend) RemoveDir(path string) error {
	return h.call("posix.rmdir", 0, func() error {
		info, err := h.FS.Lstat(path)
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return hostfs.ErrNotDir
		}
		return h.FS.Remove(path)
	})
}

// Rename implements Backend.
func (h *HostBackend) Rename(oldPath, newPath string) error {
	return h.call("posix.rename", 0, func() error { return h.FS.Rename(oldPath, newPath) })
}

// Stat implements Backend.
func (h *HostBackend) Stat(path string, followLinks bool) (hostfs.FileInfo, error) {
	var info hostfs.FileInfo
	err := h.call("posix.stat", 0, func() error {
		var serr error
		if followLinks {
			info, serr = h.FS.Stat(path)
		} else {
			info, serr = h.FS.Lstat(path)
		}
		return serr
	})
	return info, err
}

// ReadDir implements Backend.
func (h *HostBackend) ReadDir(path string) ([]hostfs.FileInfo, error) {
	var out []hostfs.FileInfo
	err := h.call("posix.readdir", 0, func() error {
		var rerr error
		out, rerr = h.FS.ReadDir(path)
		return rerr
	})
	return out, err
}

// Symlink implements Backend.
func (h *HostBackend) Symlink(target, link string) error {
	return h.call("posix.symlink", 0, func() error { return h.FS.Symlink(target, link) })
}

// Readlink implements Backend.
func (h *HostBackend) Readlink(path string) (string, error) {
	var out string
	err := h.call("posix.readlink", 0, func() error {
		var rerr error
		out, rerr = h.FS.Readlink(path)
		return rerr
	})
	return out, err
}

// Link implements Backend.
func (h *HostBackend) Link(oldPath, newPath string) error {
	return h.call("posix.link", 0, func() error { return h.FS.Link(oldPath, newPath) })
}

// UTimes implements Backend.
func (h *HostBackend) UTimes(path string, atime, mtime time.Time) error {
	return h.call("posix.utimes", 0, func() error { return h.FS.UTimes(path, atime, mtime) })
}

// hostHandle adapts a positional hostfs.File to the cursor-based
// FileHandle, performing one boundary crossing per operation. Seek moves
// only the enclave-side cursor, asking the host for the size when seeking
// from the end.
type hostHandle struct {
	b      *HostBackend
	f      hostfs.File
	offset int64
}

func (h *hostHandle) Read(p []byte) (int, error) {
	var n int
	err := h.b.call("posix.read", len(p), func() error {
		var rerr error
		n, rerr = h.f.ReadAt(p, h.offset)
		return rerr
	})
	h.offset += int64(n)
	if err == nil && n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, err
}

func (h *hostHandle) Write(p []byte) (int, error) {
	var n int
	err := h.b.call("posix.write", len(p), func() error {
		var werr error
		n, werr = h.f.WriteAt(p, h.offset)
		return werr
	})
	h.offset += int64(n)
	return n, err
}

func (h *hostHandle) Seek(offset int64, whence int) (int64, error) {
	var target int64
	switch whence {
	case whenceSet:
		target = offset
	case whenceCur:
		target = h.offset + offset
	case whenceEnd:
		size, err := h.Size()
		if err != nil {
			return 0, err
		}
		target = size + offset
	default:
		return 0, hostfs.ErrInvalid
	}
	if target < 0 {
		return 0, hostfs.ErrInvalid
	}
	// POSIX allows seeking past the end; the file extends on write.
	h.offset = target
	return target, nil
}

func (h *hostHandle) Tell() int64 { return h.offset }

func (h *hostHandle) Size() (int64, error) {
	var size int64
	err := h.b.call("posix.fstat", 0, func() error {
		info, serr := h.f.Stat()
		size = info.Size
		return serr
	})
	return size, err
}

func (h *hostHandle) Truncate(size int64) error {
	return h.b.call("posix.ftruncate", 0, func() error { return h.f.Truncate(size) })
}

func (h *hostHandle) Sync() error {
	return h.b.call("posix.fsync", 0, func() error { return h.f.Sync() })
}

func (h *hostHandle) Close() error {
	return h.b.call("posix.close", 0, func() error { return h.f.Close() })
}

// --- IPFS (trusted) backend ---

// IPFSBackend serves file contents from the Intel protected file system:
// data is encrypted and integrity-checked inside the enclave, and only
// ciphertext crosses to the host (§IV-D). Directory structure operations
// necessarily touch the untrusted host namespace (Intel's IPFS has the
// same property — file names and sizes are visible metadata).
type IPFSBackend struct {
	PFS  *ipfs.FS
	Host *HostBackend // namespace operations (mkdir/readdir/rename/...)
}

// NewIPFSBackend builds the trusted backend over a protected FS and the
// host namespace it stores ciphertext in.
func NewIPFSBackend(pfs *ipfs.FS, host *HostBackend) *IPFSBackend {
	return &IPFSBackend{PFS: pfs, Host: host}
}

// Trusted implements Backend.
func (b *IPFSBackend) Trusted() bool { return true }

// Open implements Backend.
func (b *IPFSBackend) Open(path string, flags int, writable bool) (FileHandle, error) {
	f, err := b.PFS.Open(path, flags)
	if err != nil {
		return nil, err
	}
	return &ipfsHandle{f: f, writable: writable}, nil
}

// Mkdir implements Backend.
func (b *IPFSBackend) Mkdir(path string) error { return b.Host.Mkdir(path) }

// RemoveFile implements Backend.
func (b *IPFSBackend) RemoveFile(path string) error { return b.Host.RemoveFile(path) }

// RemoveDir implements Backend.
func (b *IPFSBackend) RemoveDir(path string) error { return b.Host.RemoveDir(path) }

// Rename implements Backend. Renaming breaks the name binding of protected
// files (tested at the IPFS layer); WASI callers see the POSIX behaviour
// and the integrity failure on next open, like Intel's implementation.
func (b *IPFSBackend) Rename(oldPath, newPath string) error {
	return b.Host.Rename(oldPath, newPath)
}

// Stat implements Backend. Sizes reported for protected files are logical
// sizes read from the protected metadata.
func (b *IPFSBackend) Stat(path string, followLinks bool) (hostfs.FileInfo, error) {
	info, err := b.Host.Stat(path, followLinks)
	if err != nil {
		return info, err
	}
	if info.Type == hostfs.TypeRegular && b.PFS.Exists(path) {
		f, oerr := b.PFS.Open(path, hostfs.ORead)
		if oerr == nil {
			info.Size = f.Size()
			_ = f.Close()
		}
	}
	return info, nil
}

// ReadDir implements Backend.
func (b *IPFSBackend) ReadDir(path string) ([]hostfs.FileInfo, error) {
	return b.Host.ReadDir(path)
}

// Symlink implements Backend.
func (b *IPFSBackend) Symlink(target, link string) error { return b.Host.Symlink(target, link) }

// Readlink implements Backend.
func (b *IPFSBackend) Readlink(path string) (string, error) { return b.Host.Readlink(path) }

// Link implements Backend.
func (b *IPFSBackend) Link(oldPath, newPath string) error { return b.Host.Link(oldPath, newPath) }

// UTimes implements Backend.
func (b *IPFSBackend) UTimes(path string, atime, mtime time.Time) error {
	return b.Host.UTimes(path, atime, mtime)
}

// ipfsHandle adapts an ipfs.File. Seeking past the end on a writable
// handle extends the file with null bytes first (§IV-E).
type ipfsHandle struct {
	f        *ipfs.File
	writable bool
}

func (h *ipfsHandle) Read(p []byte) (int, error)  { return h.f.Read(p) }
func (h *ipfsHandle) Write(p []byte) (int, error) { return h.f.Write(p) }

func (h *ipfsHandle) Seek(offset int64, whence int) (int64, error) {
	pos, err := h.f.Seek(offset, whence)
	if err == nil {
		return pos, nil
	}
	if h.writable {
		// Compute the absolute target and extend with null bytes, the
		// SQLite write-past-EOF workaround.
		var target int64
		switch whence {
		case whenceSet:
			target = offset
		case whenceCur:
			target = h.f.Tell() + offset
		case whenceEnd:
			target = h.f.Size() + offset
		}
		if target > h.f.Size() {
			if exterr := h.f.ExtendTo(target); exterr != nil {
				return 0, exterr
			}
			return h.f.Seek(target, ipfs.SeekStart)
		}
	}
	return 0, err
}

func (h *ipfsHandle) Tell() int64          { return h.f.Tell() }
func (h *ipfsHandle) Size() (int64, error) { return h.f.Size(), nil }
func (h *ipfsHandle) Truncate(size int64) error {
	return h.f.Truncate(size)
}
func (h *ipfsHandle) Sync() error  { return h.f.Flush() }
func (h *ipfsHandle) Close() error { return h.f.Close() }

// Refresh implements Refresher.
func (h *ipfsHandle) Refresh() ([]ipfs.Span, error) { return h.f.Refresh() }
