package wasi

import (
	"errors"
	"fmt"
	"io"

	"twine/internal/hostfs"
	"twine/internal/ipfs"
	"twine/internal/sgx"
	"twine/internal/wasm"
)

// Errno is a WASI errno value.
type Errno uint16

// WASI errno values (snapshot_preview1 encodings).
const (
	ErrnoSuccess    Errno = 0
	ErrnoAcces      Errno = 2
	ErrnoBadf       Errno = 8
	ErrnoExist      Errno = 20
	ErrnoFault      Errno = 21
	ErrnoInval      Errno = 28
	ErrnoIo         Errno = 29
	ErrnoIsdir      Errno = 31
	ErrnoLoop       Errno = 32
	ErrnoNoent      Errno = 44
	ErrnoNosys      Errno = 52
	ErrnoNotdir     Errno = 54
	ErrnoNotempty   Errno = 55
	ErrnoNotsup     Errno = 58
	ErrnoPerm       Errno = 63
	ErrnoSpipe      Errno = 70
	ErrnoNotcapable Errno = 76
)

// Rights are WASI capability bits (snapshot_preview1 values).
type Rights uint64

// Rights bits.
const (
	RightFdDatasync Rights = 1 << iota
	RightFdRead
	RightFdSeek
	RightFdFdstatSetFlags
	RightFdSync
	RightFdTell
	RightFdWrite
	RightFdAdvise
	RightFdAllocate
	RightPathCreateDirectory
	RightPathCreateFile
	RightPathLinkSource
	RightPathLinkTarget
	RightPathOpen
	RightFdReaddir
	RightPathReadlink
	RightPathRenameSource
	RightPathRenameTarget
	RightPathFilestatGet
	RightPathFilestatSetSize
	RightPathFilestatSetTimes
	RightFdFilestatGet
	RightFdFilestatSetSize
	RightFdFilestatSetTimes
	RightPathSymlink
	RightPathRemoveDirectory
	RightPathUnlinkFile
	RightPollFdReadwrite
	RightSockShutdown
)

// RightsAll grants everything.
const RightsAll Rights = (1 << 29) - 1

// rightsDir / rightsFile are the default capability sets for preopened
// directories and regular files.
const (
	rightsFile = RightFdDatasync | RightFdRead | RightFdSeek | RightFdFdstatSetFlags |
		RightFdSync | RightFdTell | RightFdWrite | RightFdAdvise | RightFdAllocate |
		RightFdFilestatGet | RightFdFilestatSetSize | RightFdFilestatSetTimes |
		RightPollFdReadwrite
	rightsDir = RightsAll &^ (RightFdRead | RightFdWrite | RightFdSeek | RightFdTell)
)

// File types (WASI filetype encodings).
const (
	filetypeUnknown      = 0
	filetypeDir          = 3
	filetypeRegular      = 4
	filetypeSymlink      = 7
	filetypeCharacterDev = 2
)

// Open flags (WASI oflags).
const (
	oflagCreat     = 1 << 0
	oflagDirectory = 1 << 1
	oflagExcl      = 1 << 2
	oflagTrunc     = 1 << 3
)

// FD flags (WASI fdflags).
const (
	fdflagAppend   = 1 << 0
	fdflagDsync    = 1 << 1
	fdflagNonblock = 1 << 2
	fdflagRsync    = 1 << 3
	fdflagSync     = 1 << 4
)

// Whence values.
const (
	whenceSet = 0
	whenceCur = 1
	whenceEnd = 2
)

// Clock IDs.
const (
	clockRealtime  = 0
	clockMonotonic = 1
)

// Config assembles a System.
type Config struct {
	// Args and Env populate args_get / environ_get.
	Args []string
	Env  []string
	// Stdin, Stdout, Stderr are the stdio channels. Writes leave the
	// enclave (OCALL) when an enclave is attached.
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer
	// FS is the file backend serving preopened trees (IPFS-backed trusted
	// storage in TWINE's configuration, or the untrusted host layer).
	FS Backend
	// Preopens maps guest paths (e.g. "/data") to backend directories.
	// Iteration order is fixed by sorting the guest paths.
	Preopens map[string]string
	// Clock is the untrusted time source (nil = hostfs.RealClock).
	Clock hostfs.Clock
	// Enclave, when set, charges OCALL costs for every untrusted
	// interaction and supplies the trusted entropy source.
	Enclave *sgx.Enclave
	// DisableUntrustedPOSIX globally disables the generic untrusted layer
	// (§IV-C): host-backend file systems and the host clock return
	// ErrnoNotcapable / fall back to a logical clock.
	DisableUntrustedPOSIX bool
}

// System is one WASI instance: the descriptor table plus routing state.
// It is bound to a single Wasm instance and is not safe for concurrent use.
type System struct {
	cfg Config

	fds    map[int32]*fdEntry
	nextFD int32

	lastMono int64 // monotonic guard (§IV-C)
	logical  int64 // logical clock when the untrusted clock is disabled

	exited   bool
	exitCode uint32

	// out is the stdio write in flight and outFn its bound run method:
	// the host call crosses to the ring worker, so a per-call closure
	// would be heap-allocated per iovec. A System serves one guest entry
	// at a time, so one record is enough.
	out   stdioWrite
	outFn func() error
}

// stdioWrite carries one stdout/stderr write across the boundary.
type stdioWrite struct {
	w   io.Writer
	buf []byte
	n   int
}

func (c *stdioWrite) run() (err error) {
	c.n, err = c.w.Write(c.buf)
	return err
}

type fdKind int

const (
	kindStdin fdKind = iota
	kindStdout
	kindStderr
	kindDir
	kindFile
)

type fdEntry struct {
	kind    fdKind
	handle  FileHandle // kindFile
	path    string     // backend path (kindDir/kindFile)
	guest   string     // guest-visible path for preopens
	prestat bool

	rights     Rights
	inheriting Rights
	fdflags    uint16

	readdirNames []hostfs.FileInfo // snapshot for cookie-based readdir
}

// NewSystem builds a System from cfg.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Clock == nil {
		cfg.Clock = hostfs.NewRealClock()
	}
	s := &System{cfg: cfg, fds: make(map[int32]*fdEntry), nextFD: 3}
	s.outFn = s.out.run
	s.fds[0] = &fdEntry{kind: kindStdin, rights: RightFdRead}
	s.fds[1] = &fdEntry{kind: kindStdout, rights: RightFdWrite}
	s.fds[2] = &fdEntry{kind: kindStderr, rights: RightFdWrite}
	for _, guest := range sortedKeys(cfg.Preopens) {
		backendPath := cfg.Preopens[guest]
		fd := s.nextFD
		s.nextFD++
		s.fds[fd] = &fdEntry{
			kind: kindDir, path: backendPath, guest: guest, prestat: true,
			rights: rightsDir | RightFdReaddir, inheriting: RightsAll,
		}
	}
	return s, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}

// Exited reports whether proc_exit ran, and with which code.
func (s *System) Exited() (bool, uint32) { return s.exited, s.exitCode }

// FdFingerprint summarises the descriptor-table shape: the number of open
// descriptors and the next descriptor to be issued. The table starts at a
// fixed fingerprint (3 stdio fds + the preopens, nextFD past them) and
// nextFD is monotonic, so any open or close a guest performed — even a
// balanced open-then-close pair — moves the fingerprint. The serving
// pool's warm-reset path (PR 8) uses it as the cheap dirty check deciding
// whether per-request isolation requires a fresh WASI clone.
func (s *System) FdFingerprint() (open int, next int32) { return len(s.fds), s.nextFD }

// forInstance resolves the System serving a call from in: the instance's
// own System when one was bound through the wasm HostCtx, the registering
// System otherwise. This is what lets a single registered ImportObject
// back many concurrent instances with isolated WASI state.
func (s *System) forInstance(in *wasm.Instance) *System {
	if in != nil {
		if sys, ok := in.HostCtx().(*System); ok && sys != nil {
			return sys
		}
	}
	return s
}

// CloneOptions overrides per-instance state when cloning a System.
type CloneOptions struct {
	// Args, when non-nil, replaces the program arguments.
	Args []string
	// Env, when non-nil, replaces the environment.
	Env []string
	// Stdin/Stdout/Stderr, when non-nil, replace the stdio channels.
	Stdin  io.Reader
	Stdout io.Writer
	Stderr io.Writer
}

// Clone builds a sibling System for another instance of the same runtime:
// a fresh descriptor table, preopens re-established, its own clock guards
// and exit state — over the same storage, enclave and profiling registry.
// The file backend is cloned too (CloneBackend), so write-behind batching
// state is per-instance while the underlying store stays shared. This is
// the WASI half of multi-instance serving: state that POSIX scopes
// per-process is per-System, everything else is shared.
func (s *System) Clone(opt CloneOptions) (*System, error) {
	cfg := s.cfg
	cfg.FS = CloneBackend(cfg.FS)
	if opt.Args != nil {
		cfg.Args = opt.Args
	}
	if opt.Env != nil {
		cfg.Env = opt.Env
	}
	if opt.Stdin != nil {
		cfg.Stdin = opt.Stdin
	}
	if opt.Stdout != nil {
		cfg.Stdout = opt.Stdout
	}
	if opt.Stderr != nil {
		cfg.Stderr = opt.Stderr
	}
	return NewSystem(cfg)
}

// ocall crosses the enclave boundary for untrusted work through the
// classic two-transition path (used for blocking calls such as sleeps,
// which must not occupy the switchless worker).
func (s *System) ocall(name string, fn func() error) error {
	if s.cfg.Enclave == nil || !s.cfg.Enclave.Inside() {
		return fn()
	}
	return s.cfg.Enclave.OCall(name, fn)
}

// ocallN is the size-aware variant: hot, small calls (clock reads, stdio
// traffic) ride the switchless ring when the enclave has one, and fall
// back to a classic OCall otherwise.
func (s *System) ocallN(name string, payload int, fn func() error) error {
	if s.cfg.Enclave == nil || !s.cfg.Enclave.Inside() {
		return fn()
	}
	return s.cfg.Enclave.SwitchlessOCall(name, payload, fn)
}

// backendFlusher is implemented by backends that can hold write-behind
// state (the host backend's batched small writes).
type backendFlusher interface{ FlushPending() error }

// FlushFS submits any write-behind state the file backend holds, making
// every completed write visible on the untrusted store. It is called on
// proc_exit and by the runtime at the end of every guest entry, so
// batched writes can never outlive guest execution — the guarantee the
// switchless differential tests rely on.
func (s *System) FlushFS() error {
	if f, ok := s.cfg.FS.(backendFlusher); ok {
		return f.FlushPending()
	}
	return nil
}

// fsDenied reports whether the generic untrusted layer is disabled for
// this backend.
func (s *System) fsDenied() bool {
	return s.cfg.DisableUntrustedPOSIX && (s.cfg.FS == nil || !s.cfg.FS.Trusted())
}

func (s *System) get(fd int32) (*fdEntry, Errno) {
	e, ok := s.fds[fd]
	if !ok {
		return nil, ErrnoBadf
	}
	return e, ErrnoSuccess
}

func (s *System) getWithRights(fd int32, need Rights) (*fdEntry, Errno) {
	e, errno := s.get(fd)
	if errno != ErrnoSuccess {
		return nil, errno
	}
	if e.rights&need != need {
		return nil, ErrnoNotcapable
	}
	return e, ErrnoSuccess
}

// RefreshFile revalidates the open file fd names (see Refresher). A
// descriptor whose handle cannot do that reports ErrnoNotsup.
func (s *System) RefreshFile(fd int32) ([]ipfs.Span, error) {
	e, errno := s.get(fd)
	if errno != ErrnoSuccess {
		return nil, fmt.Errorf("wasi: refresh of fd %d: %v", fd, errno)
	}
	r, ok := e.handle.(Refresher)
	if !ok {
		return nil, fmt.Errorf("wasi: refresh of fd %d: %v", fd, ErrnoNotsup)
	}
	return r.Refresh()
}

// resolvePath joins a directory descriptor with a guest-relative path,
// confined to the preopened subtree (chroot-like, §IV "capabilities
// offered by chroot").
func (e *fdEntry) resolvePath(rel string) (string, Errno) {
	if e.kind != kindDir {
		return "", ErrnoNotdir
	}
	joined := e.path + "/" + rel
	// hostfs path cleaning rejects escapes; do a cheap pre-check here so
	// the error maps to the sandbox errno.
	depth := 0
	start := 0
	p := joined + "/"
	for i := 0; i < len(p); i++ {
		if p[i] != '/' {
			continue
		}
		seg := p[start:i]
		start = i + 1
		switch seg {
		case "", ".":
		case "..":
			depth--
			if depth < 0 {
				return "", ErrnoNotcapable
			}
		default:
			depth++
		}
	}
	return joined, ErrnoSuccess
}

// mapError converts backend errors to WASI errnos.
func mapError(err error) Errno {
	switch {
	case err == nil:
		return ErrnoSuccess
	case errors.Is(err, hostfs.ErrNotExist):
		return ErrnoNoent
	case errors.Is(err, hostfs.ErrExist):
		return ErrnoExist
	case errors.Is(err, hostfs.ErrIsDir):
		return ErrnoIsdir
	case errors.Is(err, hostfs.ErrNotDir):
		return ErrnoNotdir
	case errors.Is(err, hostfs.ErrNotEmpty):
		return ErrnoNotempty
	case errors.Is(err, hostfs.ErrPermission):
		return ErrnoAcces
	case errors.Is(err, hostfs.ErrInvalid):
		return ErrnoInval
	case errors.Is(err, hostfs.ErrUnsupported):
		return ErrnoNotsup
	case errors.Is(err, ipfs.ErrSeekPastEnd):
		return ErrnoInval
	case errors.Is(err, ipfs.ErrReadOnly):
		return ErrnoPerm
	case errors.Is(err, ipfs.ErrIntegrity), errors.Is(err, ipfs.ErrBadName):
		return ErrnoIo
	case errors.Is(err, io.EOF):
		return ErrnoSuccess
	default:
		return ErrnoIo
	}
}

// String renders an errno for diagnostics.
func (e Errno) String() string {
	names := map[Errno]string{
		ErrnoSuccess: "ESUCCESS", ErrnoBadf: "EBADF", ErrnoExist: "EEXIST",
		ErrnoInval: "EINVAL", ErrnoIo: "EIO", ErrnoIsdir: "EISDIR",
		ErrnoNoent: "ENOENT", ErrnoNosys: "ENOSYS", ErrnoNotdir: "ENOTDIR",
		ErrnoNotempty: "ENOTEMPTY", ErrnoPerm: "EPERM", ErrnoNotcapable: "ENOTCAPABLE",
		ErrnoAcces: "EACCES", ErrnoNotsup: "ENOTSUP", ErrnoFault: "EFAULT",
		ErrnoSpipe: "ESPIPE", ErrnoLoop: "ELOOP",
	}
	if n, ok := names[e]; ok {
		return n
	}
	return fmt.Sprintf("errno(%d)", uint16(e))
}
