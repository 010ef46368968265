package litedb

import (
	"fmt"

	"twine/internal/ipfs"
	"twine/internal/wasi"
	"twine/internal/wasm"
)

// WASIVFS routes database I/O through the WASI layer exactly as a Wasm
// guest would: paths and buffers are marshalled through the instance's
// linear memory and every operation enters the registered
// wasi_snapshot_preview1 host functions (fd_seek + fd_read + fd_write +
// fd_sync + ...). In TWINE's configuration those functions are backed by
// the Intel protected file system inside the enclave; in the WAMR baseline
// they forward to untrusted POSIX.
//
// This is the mechanism by which the reproduction imposes the syscall
// marshalling cost of "SQLite compiled to Wasm" on litedb (see the
// package comment in value.go).
type WASIVFS struct {
	imp *wasm.ImportObject
	in  *wasm.Instance

	// Scratch layout inside guest memory:
	//   base+0    iovec (8 B)
	//   base+16   result slots (u32/u64)
	//   base+128  path buffer (pathCap)
	//   base+4096 data window (dataCap)
	base    uint32
	pathCap uint32
	dataCap uint32

	dirFD uint32 // preopened directory descriptor (3)

	fns map[string]wasm.HostFunc
}

const (
	wvIovec  = 0
	wvResult = 16
	wvPath   = 128
	wvData   = 4096
)

// NewWASIVFS builds a VFS over the WASI host functions registered in imp,
// using [base, base+size) of the instance's linear memory as its marshal
// window. size must be at least 8 KiB; the data window is size-4096 bytes.
func NewWASIVFS(imp *wasm.ImportObject, in *wasm.Instance, base, size uint32) (*WASIVFS, error) {
	if size < 8192 {
		return nil, fmt.Errorf("litedb: WASI VFS scratch too small (%d)", size)
	}
	if err := in.Memory().Range(base, size); err != nil {
		return nil, fmt.Errorf("litedb: WASI VFS scratch out of bounds: %w", err)
	}
	v := &WASIVFS{
		imp: imp, in: in, base: base,
		pathCap: wvData - wvPath,
		dataCap: size - wvData,
		dirFD:   3,
		fns:     make(map[string]wasm.HostFunc),
	}
	for _, name := range []string{
		"path_open", "path_unlink_file", "path_filestat_get",
		"fd_read", "fd_write", "fd_seek", "fd_sync", "fd_close",
		"fd_filestat_get", "fd_filestat_set_size",
	} {
		fn, ok := imp.Func(wasi.ModuleName, name)
		if !ok {
			return nil, fmt.Errorf("litedb: WASI import %s not registered", name)
		}
		v.fns[name] = fn
	}
	return v, nil
}

// call invokes a registered WASI function and returns its errno.
func (v *WASIVFS) call(name string, args ...uint64) (wasi.Errno, error) {
	res, err := v.fns[name].Fn(v.in, args)
	if err != nil {
		return 0, err
	}
	if len(res) == 0 {
		return 0, nil
	}
	return wasi.Errno(uint16(res[0])), nil
}

func (v *WASIVFS) putPath(name string) (ptr, n uint32, err error) {
	if uint32(len(name)) > v.pathCap {
		return 0, 0, fmt.Errorf("litedb: path too long: %s", name)
	}
	buf, err := v.in.Memory().Bytes(v.base+wvPath, uint32(len(name)))
	if err != nil {
		return 0, 0, err
	}
	copy(buf, name)
	return v.base + wvPath, uint32(len(name)), nil
}

func wasiErr(op string, errno wasi.Errno) error {
	return fmt.Errorf("litedb: wasi %s: %v", op, errno)
}

// Open implements VFS.
func (v *WASIVFS) Open(name string, create bool) (DBFile, error) {
	ptr, n, err := v.putPath(name)
	if err != nil {
		return nil, err
	}
	var oflags uint64
	if create {
		oflags = 1 // O_CREAT
	}
	errno, err := v.call("path_open",
		uint64(v.dirFD), 0, uint64(ptr), uint64(n), oflags,
		uint64(wasi.RightsAll), uint64(wasi.RightsAll), 0,
		uint64(v.base+wvResult))
	if err != nil {
		return nil, err
	}
	if errno == wasi.ErrnoNoent && !create {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if errno != wasi.ErrnoSuccess {
		return nil, wasiErr("path_open", errno)
	}
	fd, err := v.in.Memory().ReadU32(v.base + wvResult)
	if err != nil {
		return nil, err
	}
	return &wasiDBFile{v: v, fd: fd}, nil
}

// Delete implements VFS.
func (v *WASIVFS) Delete(name string) error {
	ptr, n, err := v.putPath(name)
	if err != nil {
		return err
	}
	errno, err := v.call("path_unlink_file", uint64(v.dirFD), uint64(ptr), uint64(n))
	if err != nil {
		return err
	}
	if errno != wasi.ErrnoSuccess && errno != wasi.ErrnoNoent {
		return wasiErr("path_unlink_file", errno)
	}
	return nil
}

// Exists implements VFS.
func (v *WASIVFS) Exists(name string) (bool, error) {
	ptr, n, err := v.putPath(name)
	if err != nil {
		return false, err
	}
	errno, err := v.call("path_filestat_get",
		uint64(v.dirFD), 1, uint64(ptr), uint64(n), uint64(v.base+wvResult+64))
	if err != nil {
		return false, err
	}
	switch errno {
	case wasi.ErrnoSuccess:
		return true, nil
	case wasi.ErrnoNoent:
		return false, nil
	default:
		return false, wasiErr("path_filestat_get", errno)
	}
}

type wasiDBFile struct {
	v  *WASIVFS
	fd uint32
}

func (f *wasiDBFile) seek(off int64) error {
	errno, err := f.v.call("fd_seek", uint64(f.fd), uint64(off), 0, uint64(f.v.base+wvResult))
	if err != nil {
		return err
	}
	if errno != wasi.ErrnoSuccess {
		return wasiErr("fd_seek", errno)
	}
	return nil
}

// ReadAt implements DBFile, chunking through the guest data window.
func (f *wasiDBFile) ReadAt(p []byte, off int64) (int, error) {
	mem := f.v.in.Memory()
	var done int
	for done < len(p) {
		chunk := uint32(len(p) - done)
		if chunk > f.v.dataCap {
			chunk = f.v.dataCap
		}
		if err := f.seek(off + int64(done)); err != nil {
			return done, err
		}
		mem.WriteU32(f.v.base+wvIovec, f.v.base+wvData)
		mem.WriteU32(f.v.base+wvIovec+4, chunk)
		errno, err := f.v.call("fd_read",
			uint64(f.fd), uint64(f.v.base+wvIovec), 1, uint64(f.v.base+wvResult))
		if err != nil {
			return done, err
		}
		if errno != wasi.ErrnoSuccess {
			return done, wasiErr("fd_read", errno)
		}
		n, _ := mem.ReadU32(f.v.base + wvResult)
		if n == 0 {
			return done, nil // EOF: positional short read
		}
		src, err := mem.Bytes(f.v.base+wvData, n)
		if err != nil {
			return done, err
		}
		copy(p[done:], src)
		done += int(n)
		if n < chunk {
			return done, nil
		}
	}
	return done, nil
}

// WriteAt implements DBFile.
func (f *wasiDBFile) WriteAt(p []byte, off int64) (int, error) {
	mem := f.v.in.Memory()
	var done int
	for done < len(p) {
		chunk := uint32(len(p) - done)
		if chunk > f.v.dataCap {
			chunk = f.v.dataCap
		}
		dst, err := mem.Bytes(f.v.base+wvData, chunk)
		if err != nil {
			return done, err
		}
		copy(dst, p[done:done+int(chunk)])
		if err := f.seek(off + int64(done)); err != nil {
			return done, err
		}
		mem.WriteU32(f.v.base+wvIovec, f.v.base+wvData)
		mem.WriteU32(f.v.base+wvIovec+4, chunk)
		errno, err := f.v.call("fd_write",
			uint64(f.fd), uint64(f.v.base+wvIovec), 1, uint64(f.v.base+wvResult))
		if err != nil {
			return done, err
		}
		if errno != wasi.ErrnoSuccess {
			return done, wasiErr("fd_write", errno)
		}
		n, _ := mem.ReadU32(f.v.base + wvResult)
		done += int(n)
		if n < chunk {
			return done, fmt.Errorf("litedb: short wasi write (%d of %d)", n, chunk)
		}
	}
	return done, nil
}

// Truncate implements DBFile.
func (f *wasiDBFile) Truncate(size int64) error {
	errno, err := f.v.call("fd_filestat_set_size", uint64(f.fd), uint64(size))
	if err != nil {
		return err
	}
	if errno != wasi.ErrnoSuccess {
		return wasiErr("fd_filestat_set_size", errno)
	}
	return nil
}

// Sync implements DBFile.
func (f *wasiDBFile) Sync() error {
	errno, err := f.v.call("fd_sync", uint64(f.fd))
	if err != nil {
		return err
	}
	if errno != wasi.ErrnoSuccess {
		return wasiErr("fd_sync", errno)
	}
	return nil
}

// Size implements DBFile.
func (f *wasiDBFile) Size() (int64, error) {
	errno, err := f.v.call("fd_filestat_get", uint64(f.fd), uint64(f.v.base+wvResult+64))
	if err != nil {
		return 0, err
	}
	if errno != wasi.ErrnoSuccess {
		return 0, wasiErr("fd_filestat_get", errno)
	}
	// filestat.size is at offset 32.
	size, err := f.v.in.Memory().ReadU64(f.v.base + wvResult + 64 + 32)
	return int64(size), err
}

// Refresh implements Refresher through the descriptor's own handle: the
// System serving this instance revalidates whatever fd names.
func (f *wasiDBFile) Refresh() ([]ipfs.Span, error) {
	sys, ok := f.v.in.HostCtx().(*wasi.System)
	if !ok {
		return nil, ErrNoRefresh
	}
	return sys.RefreshFile(int32(f.fd))
}

// Close implements DBFile.
func (f *wasiDBFile) Close() error {
	errno, err := f.v.call("fd_close", uint64(f.fd))
	if err != nil {
		return err
	}
	if errno != wasi.ErrnoSuccess {
		return wasiErr("fd_close", errno)
	}
	return nil
}
