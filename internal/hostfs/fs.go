// Package hostfs models the untrusted host environment outside the
// enclave: a POSIX-like file system surface, a wall clock and an entropy
// source. In TWINE's architecture these are the services the enclave can
// only reach through OCALLs; the WASI layer (internal/wasi) and the
// protected file system (internal/ipfs) wrap them with the appropriate
// enclave crossings and sanity checks.
//
// Two file system implementations are provided: DirFS, rooted at a real
// directory, and MemFS, an in-memory tree used by tests and benchmarks to
// remove disk variance. MemFS stores a regular file in 4 KiB chunks and
// leaves holes unallocated, so a file costs the host what it holds. Both
// agree byte for byte on every write, read and truncate (FuzzFileContent).
// Failure injection over either is chaos.WrapFS.
package hostfs

import (
	"errors"
	"io"
	"time"
)

// Open flags, a subset of POSIX semantics sufficient for WASI.
const (
	ORead   = 1 << iota // open for reading
	OWrite              // open for writing
	OCreate             // create if missing
	OTrunc              // truncate to zero length
	OExcl               // with OCreate: fail if it exists
)

// Package errors. They deliberately mirror the POSIX error conditions WASI
// maps to errno values.
var (
	ErrNotExist    = errors.New("hostfs: no such file or directory")
	ErrExist       = errors.New("hostfs: file exists")
	ErrIsDir       = errors.New("hostfs: is a directory")
	ErrNotDir      = errors.New("hostfs: not a directory")
	ErrNotEmpty    = errors.New("hostfs: directory not empty")
	ErrInvalid     = errors.New("hostfs: invalid argument")
	ErrPermission  = errors.New("hostfs: permission denied")
	ErrUnsupported = errors.New("hostfs: operation not supported")
	ErrClosed      = errors.New("hostfs: file already closed")
)

// FileType distinguishes the node kinds WASI cares about.
type FileType int

const (
	TypeRegular FileType = iota
	TypeDir
	TypeSymlink
)

// FileInfo describes a file system node.
type FileInfo struct {
	Name    string
	Size    int64
	Type    FileType
	ModTime time.Time
	AccTime time.Time
	Ino     uint64
}

// IsDir reports whether the node is a directory.
func (fi FileInfo) IsDir() bool { return fi.Type == TypeDir }

// File is an open file handle. Offsets are managed by the caller (the WASI
// layer keeps per-descriptor cursors), so reads and writes are positional.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Stat() (FileInfo, error)
	Close() error
}

// FS is the untrusted host file system surface.
type FS interface {
	// OpenFile opens name with the given flags.
	OpenFile(name string, flag int) (File, error)
	// Mkdir creates a directory.
	Mkdir(name string) error
	// Remove deletes a file or an empty directory.
	Remove(name string) error
	// Rename moves old to new, replacing a non-directory target.
	Rename(oldName, newName string) error
	// Stat follows symlinks; Lstat does not.
	Stat(name string) (FileInfo, error)
	Lstat(name string) (FileInfo, error)
	// ReadDir lists a directory in name order.
	ReadDir(name string) ([]FileInfo, error)
	// Symlink, Readlink and Link manage links.
	Symlink(target, link string) error
	Readlink(name string) (string, error)
	Link(oldName, newName string) error
	// UTimes sets access and modification times.
	UTimes(name string, atime, mtime time.Time) error
}

// Clock is the untrusted time source. Enclaves cannot read trusted time on
// SGX1; TWINE fetches it outside and enforces monotonicity on re-entry.
type Clock interface {
	// Now returns wall-clock time.
	Now() time.Time
	// Monotonic returns a monotonic reading in nanoseconds.
	Monotonic() int64
	// Resolution reports the clock granularity.
	Resolution() time.Duration
}

// RealClock reads the process clocks.
type RealClock struct{ base time.Time }

// NewRealClock returns a Clock backed by the Go runtime clocks.
func NewRealClock() *RealClock { return &RealClock{base: time.Now()} }

// Now implements Clock.
func (c *RealClock) Now() time.Time { return time.Now() }

// Monotonic implements Clock.
func (c *RealClock) Monotonic() int64 { return int64(time.Since(c.base)) }

// Resolution implements Clock.
func (c *RealClock) Resolution() time.Duration { return time.Nanosecond }
