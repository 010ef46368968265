package wasi

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"time"

	"twine/internal/hostfs"
	"twine/internal/wasm"
)

// ModuleName is the import module WASI functions are registered under.
const ModuleName = "wasi_snapshot_preview1"

var (
	i32 = wasm.I32
	i64 = wasm.I64
)

// Register installs all 45 snapshot_preview1 functions into imp.
//
// Calls are dispatched per instance: when the calling wasm.Instance
// carries a *System in its HostCtx, that System serves the call (its own
// fd table, args, clocks); otherwise the registering System does. One
// ImportObject therefore backs any number of concurrently executing
// instances, each with isolated WASI state over the shared backend — the
// wiring the serving pool relies on.
func (s *System) Register(imp *wasm.ImportObject) {
	reg := func(name string, params []wasm.ValueType, results []wasm.ValueType,
		fn func(s *System, in *wasm.Instance, a []uint64) (Errno, error)) {
		imp.AddFunc(wasm.HostFunc{
			Module: ModuleName,
			Name:   name,
			Type:   wasm.FuncType{Params: params, Results: results},
			Fn: func(in *wasm.Instance, a []uint64) ([]uint64, error) {
				sys := s.forInstance(in)
				errno, err := fn(sys, in, a)
				if err != nil {
					return nil, err
				}
				if len(results) == 0 {
					return nil, nil
				}
				// The per-instance result buffer keeps the hot WASI path
				// allocation-free (one []uint64 per call adds up at
				// millions of host calls; see BenchmarkHostCallAllocs).
				return in.Ret1(uint64(errno)), nil
			},
		})
	}
	e := func(fn func(s *System, in *wasm.Instance, a []uint64) Errno) func(*System, *wasm.Instance, []uint64) (Errno, error) {
		return func(s *System, in *wasm.Instance, a []uint64) (Errno, error) { return fn(s, in, a), nil }
	}

	p := func(ts ...wasm.ValueType) []wasm.ValueType { return ts }
	r1 := p(i32)

	reg("args_get", p(i32, i32), r1, e((*System).argsGet))
	reg("args_sizes_get", p(i32, i32), r1, e((*System).argsSizesGet))
	reg("environ_get", p(i32, i32), r1, e((*System).environGet))
	reg("environ_sizes_get", p(i32, i32), r1, e((*System).environSizesGet))
	reg("clock_res_get", p(i32, i32), r1, e((*System).clockResGet))
	reg("clock_time_get", p(i32, i64, i32), r1, e((*System).clockTimeGet))
	reg("fd_advise", p(i32, i64, i64, i32), r1, e((*System).fdAdvise))
	reg("fd_allocate", p(i32, i64, i64), r1, e((*System).fdAllocate))
	reg("fd_close", p(i32), r1, e((*System).fdClose))
	reg("fd_datasync", p(i32), r1, e((*System).fdDatasync))
	reg("fd_fdstat_get", p(i32, i32), r1, e((*System).fdFdstatGet))
	reg("fd_fdstat_set_flags", p(i32, i32), r1, e((*System).fdFdstatSetFlags))
	reg("fd_fdstat_set_rights", p(i32, i64, i64), r1, e((*System).fdFdstatSetRights))
	reg("fd_filestat_get", p(i32, i32), r1, e((*System).fdFilestatGet))
	reg("fd_filestat_set_size", p(i32, i64), r1, e((*System).fdFilestatSetSize))
	reg("fd_filestat_set_times", p(i32, i64, i64, i32), r1, e((*System).fdFilestatSetTimes))
	reg("fd_pread", p(i32, i32, i32, i64, i32), r1, e((*System).fdPread))
	reg("fd_prestat_get", p(i32, i32), r1, e((*System).fdPrestatGet))
	reg("fd_prestat_dir_name", p(i32, i32, i32), r1, e((*System).fdPrestatDirName))
	reg("fd_pwrite", p(i32, i32, i32, i64, i32), r1, e((*System).fdPwrite))
	reg("fd_read", p(i32, i32, i32, i32), r1, e((*System).fdRead))
	reg("fd_readdir", p(i32, i32, i32, i64, i32), r1, e((*System).fdReaddir))
	reg("fd_renumber", p(i32, i32), r1, e((*System).fdRenumber))
	reg("fd_seek", p(i32, i64, i32, i32), r1, e((*System).fdSeek))
	reg("fd_sync", p(i32), r1, e((*System).fdSync))
	reg("fd_tell", p(i32, i32), r1, e((*System).fdTell))
	reg("fd_write", p(i32, i32, i32, i32), r1, e((*System).fdWrite))
	reg("path_create_directory", p(i32, i32, i32), r1, e((*System).pathCreateDirectory))
	reg("path_filestat_get", p(i32, i32, i32, i32, i32), r1, e((*System).pathFilestatGet))
	reg("path_filestat_set_times", p(i32, i32, i32, i32, i64, i64, i32), r1, e((*System).pathFilestatSetTimes))
	reg("path_link", p(i32, i32, i32, i32, i32, i32, i32), r1, e((*System).pathLink))
	reg("path_open", p(i32, i32, i32, i32, i32, i64, i64, i32, i32), r1, e((*System).pathOpen))
	reg("path_readlink", p(i32, i32, i32, i32, i32, i32), r1, e((*System).pathReadlink))
	reg("path_remove_directory", p(i32, i32, i32), r1, e((*System).pathRemoveDirectory))
	reg("path_rename", p(i32, i32, i32, i32, i32, i32), r1, e((*System).pathRename))
	reg("path_symlink", p(i32, i32, i32, i32, i32), r1, e((*System).pathSymlink))
	reg("path_unlink_file", p(i32, i32, i32), r1, e((*System).pathUnlinkFile))
	reg("poll_oneoff", p(i32, i32, i32, i32), r1, e((*System).pollOneoff))
	reg("proc_exit", p(i32), nil, (*System).procExit)
	reg("proc_raise", p(i32), r1, e((*System).procRaise))
	reg("random_get", p(i32, i32), r1, e((*System).randomGet))
	reg("sched_yield", nil, r1, e((*System).schedYield))
	reg("sock_recv", p(i32, i32, i32, i32, i32, i32), r1, e((*System).sockRecv))
	reg("sock_send", p(i32, i32, i32, i32, i32), r1, e((*System).sockSend))
	reg("sock_shutdown", p(i32, i32), r1, e((*System).sockShutdown))
}

// --- args / environ ---

func writeStringTable(mem *wasm.Memory, ptrsAddr, bufAddr uint32, items []string) Errno {
	for _, s := range items {
		if err := mem.WriteU32(ptrsAddr, bufAddr); err != nil {
			return ErrnoFault
		}
		ptrsAddr += 4
		b, err := mem.Bytes(bufAddr, uint32(len(s)+1))
		if err != nil {
			return ErrnoFault
		}
		copy(b, s)
		b[len(s)] = 0
		bufAddr += uint32(len(s) + 1)
	}
	return ErrnoSuccess
}

func sizeStringTable(items []string) (count, bytes uint32) {
	for _, s := range items {
		bytes += uint32(len(s) + 1)
	}
	return uint32(len(items)), bytes
}

func (s *System) argsGet(in *wasm.Instance, a []uint64) Errno {
	return writeStringTable(in.Memory(), uint32(a[0]), uint32(a[1]), s.cfg.Args)
}

func (s *System) argsSizesGet(in *wasm.Instance, a []uint64) Errno {
	n, b := sizeStringTable(s.cfg.Args)
	if in.Memory().WriteU32(uint32(a[0]), n) != nil || in.Memory().WriteU32(uint32(a[1]), b) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

func (s *System) environGet(in *wasm.Instance, a []uint64) Errno {
	return writeStringTable(in.Memory(), uint32(a[0]), uint32(a[1]), s.cfg.Env)
}

func (s *System) environSizesGet(in *wasm.Instance, a []uint64) Errno {
	n, b := sizeStringTable(s.cfg.Env)
	if in.Memory().WriteU32(uint32(a[0]), n) != nil || in.Memory().WriteU32(uint32(a[1]), b) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

// --- clocks (§IV-C: fetched outside the enclave, monotonic-guarded) ---

func (s *System) clockResGet(in *wasm.Instance, a []uint64) Errno {
	switch uint32(a[0]) {
	case clockRealtime, clockMonotonic:
		if in.Memory().WriteU64(uint32(a[1]), uint64(s.cfg.Clock.Resolution())) != nil {
			return ErrnoFault
		}
		return ErrnoSuccess
	default:
		return ErrnoInval
	}
}

func (s *System) clockTimeGet(in *wasm.Instance, a []uint64) Errno {
	var now int64
	switch uint32(a[0]) {
	case clockMonotonic:
		if s.cfg.DisableUntrustedPOSIX {
			// Trusted logical clock: strictly increasing, enclave-local.
			s.logical++
			now = s.logical
		} else {
			_ = s.ocallN("clock", 8, func() error { now = s.cfg.Clock.Monotonic(); return nil })
			// Sanity check on the untrusted value: never goes backwards.
			if now <= s.lastMono {
				now = s.lastMono + 1
			}
			s.lastMono = now
		}
	case clockRealtime:
		if s.cfg.DisableUntrustedPOSIX {
			s.logical++
			now = s.logical
		} else {
			_ = s.ocallN("clock", 8, func() error { now = s.cfg.Clock.Now().UnixNano(); return nil })
		}
	default:
		return ErrnoInval
	}
	if in.Memory().WriteU64(uint32(a[2]), uint64(now)) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

// --- fd operations ---

func (s *System) fdAdvise(in *wasm.Instance, a []uint64) Errno {
	if _, errno := s.getWithRights(int32(a[0]), RightFdAdvise); errno != ErrnoSuccess {
		return errno
	}
	return ErrnoSuccess // advisory only
}

func (s *System) fdAllocate(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdAllocate)
	if errno != ErrnoSuccess {
		return errno
	}
	if e.kind != kindFile {
		return ErrnoBadf
	}
	want := int64(a[1]) + int64(a[2])
	size, err := e.handle.Size()
	if err != nil {
		return mapError(err)
	}
	if want > size {
		return mapError(e.handle.Truncate(want))
	}
	return ErrnoSuccess
}

func (s *System) fdClose(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.get(int32(a[0]))
	if errno != ErrnoSuccess {
		return errno
	}
	s.dirty = true
	delete(s.fds, int32(a[0]))
	if e.kind == kindFile && e.handle != nil {
		return mapError(e.handle.Close())
	}
	return ErrnoSuccess
}

func (s *System) fdDatasync(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdDatasync)
	if errno != ErrnoSuccess {
		return errno
	}
	if e.kind != kindFile {
		return ErrnoInval
	}
	return mapError(e.handle.Sync())
}

func (s *System) fdFdstatGet(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.get(int32(a[0]))
	if errno != ErrnoSuccess {
		return errno
	}
	mem := in.Memory()
	ptr := uint32(a[1])
	buf, err := mem.Bytes(ptr, 24)
	if err != nil {
		return ErrnoFault
	}
	for i := range buf {
		buf[i] = 0
	}
	switch e.kind {
	case kindDir:
		buf[0] = filetypeDir
	case kindFile:
		buf[0] = filetypeRegular
	default:
		buf[0] = filetypeCharacterDev
	}
	_ = mem.WriteU16(ptr+2, e.fdflags)
	_ = mem.WriteU64(ptr+8, uint64(e.rights))
	_ = mem.WriteU64(ptr+16, uint64(e.inheriting))
	return ErrnoSuccess
}

func (s *System) fdFdstatSetFlags(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdFdstatSetFlags)
	if errno != ErrnoSuccess {
		return errno
	}
	e.fdflags = uint16(a[1])
	s.dirty = true
	return ErrnoSuccess
}

func (s *System) fdFdstatSetRights(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.get(int32(a[0]))
	if errno != ErrnoSuccess {
		return errno
	}
	base, inheriting := Rights(a[1]), Rights(a[2])
	// Rights may only shrink.
	if base&^e.rights != 0 || inheriting&^e.inheriting != 0 {
		return ErrnoNotcapable
	}
	e.rights, e.inheriting = base, inheriting
	s.dirty = true
	return ErrnoSuccess
}

func filetypeOf(info hostfs.FileInfo) byte {
	switch info.Type {
	case hostfs.TypeDir:
		return filetypeDir
	case hostfs.TypeSymlink:
		return filetypeSymlink
	default:
		return filetypeRegular
	}
}

func writeFilestat(mem *wasm.Memory, ptr uint32, info hostfs.FileInfo) Errno {
	buf, err := mem.Bytes(ptr, 64)
	if err != nil {
		return ErrnoFault
	}
	for i := range buf {
		buf[i] = 0
	}
	_ = mem.WriteU64(ptr+8, info.Ino)
	_ = mem.WriteByteAt(ptr+16, filetypeOf(info))
	_ = mem.WriteU64(ptr+24, 1) // nlink
	_ = mem.WriteU64(ptr+32, uint64(info.Size))
	_ = mem.WriteU64(ptr+40, uint64(info.AccTime.UnixNano()))
	_ = mem.WriteU64(ptr+48, uint64(info.ModTime.UnixNano()))
	_ = mem.WriteU64(ptr+56, uint64(info.ModTime.UnixNano()))
	return ErrnoSuccess
}

func (s *System) fdFilestatGet(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdFilestatGet)
	if errno != ErrnoSuccess {
		// stdio descriptors allow filestat in most runtimes.
		if e2, errno2 := s.get(int32(a[0])); errno2 == ErrnoSuccess && e2.kind != kindFile && e2.kind != kindDir {
			e, errno = e2, ErrnoSuccess
		} else {
			return errno
		}
	}
	mem := in.Memory()
	switch e.kind {
	case kindFile:
		size, err := e.handle.Size()
		if err != nil {
			return mapError(err)
		}
		info := hostfs.FileInfo{Size: size, Type: hostfs.TypeRegular, ModTime: time.Unix(0, 0), AccTime: time.Unix(0, 0)}
		return writeFilestat(mem, uint32(a[1]), info)
	case kindDir:
		if s.fsDenied() {
			return ErrnoNotcapable
		}
		info, err := s.cfg.FS.Stat(e.path, true)
		if err != nil {
			return mapError(err)
		}
		return writeFilestat(mem, uint32(a[1]), info)
	default:
		info := hostfs.FileInfo{Type: hostfs.TypeRegular, ModTime: time.Unix(0, 0), AccTime: time.Unix(0, 0)}
		errno := writeFilestat(mem, uint32(a[1]), info)
		_ = mem.WriteByteAt(uint32(a[1])+16, filetypeCharacterDev)
		return errno
	}
}

func (s *System) fdFilestatSetSize(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdFilestatSetSize)
	if errno != ErrnoSuccess {
		return errno
	}
	if e.kind != kindFile {
		return ErrnoBadf
	}
	return mapError(e.handle.Truncate(int64(a[1])))
}

func (s *System) fdFilestatSetTimes(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdFilestatSetTimes)
	if errno != ErrnoSuccess {
		return errno
	}
	if e.kind == kindDir || e.kind == kindFile {
		if s.fsDenied() {
			return ErrnoNotcapable
		}
		at, mt, errno := fstTimes(s, a[1], a[2], uint32(a[3]))
		if errno != ErrnoSuccess {
			return errno
		}
		return mapError(s.cfg.FS.UTimes(e.path, at, mt))
	}
	return ErrnoBadf
}

// fstTimes decodes fd/path_filestat_set_times arguments.
func fstTimes(s *System, atim, mtim uint64, flags uint32) (time.Time, time.Time, Errno) {
	const (
		atimSet = 1 << 0
		atimNow = 1 << 1
		mtimSet = 1 << 2
		mtimNow = 1 << 3
	)
	now := s.cfg.Clock.Now()
	at := time.Unix(0, int64(atim))
	mt := time.Unix(0, int64(mtim))
	if flags&atimNow != 0 {
		at = now
	} else if flags&atimSet == 0 {
		at = now
	}
	if flags&mtimNow != 0 {
		mt = now
	} else if flags&mtimSet == 0 {
		mt = now
	}
	return at, mt, ErrnoSuccess
}

// iovecs iterates the guest's scatter/gather list. The iovec table is
// fetched with a single bounds check and EPC touch for the whole array —
// one span per call instead of two 4-byte touches per entry. A table
// that is not fully addressable falls back to lazy per-entry reads so a
// guest whose call completes before reaching the bad tail entries keeps
// its historical behaviour.
func iovecs(mem *wasm.Memory, ptr, count uint32, fn func(buf []byte) (int, bool, Errno)) (uint32, Errno) {
	if count == 0 {
		return 0, ErrnoSuccess
	}
	var table []byte
	if uint64(count)*8 <= uint64(^uint32(0)) {
		table, _ = mem.Bytes(ptr, count*8)
	}
	var total uint32
	for i := uint32(0); i < count; i++ {
		var base, length uint32
		if table != nil {
			base = binary.LittleEndian.Uint32(table[i*8:])
			length = binary.LittleEndian.Uint32(table[i*8+4:])
		} else {
			var err error
			if base, err = mem.ReadU32(ptr + i*8); err != nil {
				return total, ErrnoFault
			}
			if length, err = mem.ReadU32(ptr + i*8 + 4); err != nil {
				return total, ErrnoFault
			}
		}
		if length == 0 {
			continue
		}
		buf, err := mem.Bytes(base, length)
		if err != nil {
			return total, ErrnoFault
		}
		n, done, errno := fn(buf)
		total += uint32(n)
		if errno != ErrnoSuccess {
			return total, errno
		}
		if done {
			break
		}
	}
	return total, ErrnoSuccess
}

func (s *System) fdRead(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdRead)
	if errno != ErrnoSuccess {
		return errno
	}
	mem := in.Memory()
	var total uint32
	switch e.kind {
	case kindStdin:
		if s.cfg.Stdin == nil {
			total = 0
		} else {
			total, errno = iovecs(mem, uint32(a[1]), uint32(a[2]), func(buf []byte) (int, bool, Errno) {
				var n int
				_ = s.ocallN("stdin", len(buf), func() error {
					var rerr error
					n, rerr = s.cfg.Stdin.Read(buf)
					_ = rerr
					return nil
				})
				return n, n < len(buf), ErrnoSuccess
			})
			if errno != ErrnoSuccess {
				return errno
			}
		}
	case kindFile:
		// WASI fd_read is vectored; IPFS is not, so iterate (§IV-E).
		total, errno = iovecs(mem, uint32(a[1]), uint32(a[2]), func(buf []byte) (int, bool, Errno) {
			n, err := e.handle.Read(buf)
			if err != nil && mapError(err) != ErrnoSuccess {
				return n, true, mapError(err)
			}
			return n, n < len(buf), ErrnoSuccess
		})
		if errno != ErrnoSuccess {
			return errno
		}
	default:
		return ErrnoBadf
	}
	if mem.WriteU32(uint32(a[3]), total) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

func (s *System) fdPread(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdRead|RightFdSeek)
	if errno != ErrnoSuccess {
		return errno
	}
	if e.kind != kindFile {
		return ErrnoBadf
	}
	saved := e.handle.Tell()
	if _, err := e.handle.Seek(int64(a[3]), whenceSet); err != nil {
		return mapError(err)
	}
	total, errno := iovecs(in.Memory(), uint32(a[1]), uint32(a[2]), func(buf []byte) (int, bool, Errno) {
		n, err := e.handle.Read(buf)
		if err != nil && mapError(err) != ErrnoSuccess {
			return n, true, mapError(err)
		}
		return n, n < len(buf), ErrnoSuccess
	})
	if _, err := e.handle.Seek(saved, whenceSet); err != nil {
		return mapError(err)
	}
	if errno != ErrnoSuccess {
		return errno
	}
	if in.Memory().WriteU32(uint32(a[4]), total) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

func (s *System) fdWrite(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdWrite)
	if errno != ErrnoSuccess {
		return errno
	}
	mem := in.Memory()
	var total uint32
	switch e.kind {
	case kindStdout, kindStderr:
		w := s.cfg.Stdout
		if e.kind == kindStderr {
			w = s.cfg.Stderr
		}
		total, errno = iovecs(mem, uint32(a[1]), uint32(a[2]), func(buf []byte) (int, bool, Errno) {
			if w == nil {
				return len(buf), false, ErrnoSuccess
			}
			s.out = stdioWrite{w: w, buf: buf}
			err := s.ocallN("stdout", len(buf), s.outFn)
			n := s.out.n
			s.out = stdioWrite{}
			if err != nil {
				return n, true, ErrnoIo
			}
			return n, false, ErrnoSuccess
		})
		if errno != ErrnoSuccess {
			return errno
		}
	case kindFile:
		if e.fdflags&fdflagAppend != 0 {
			if _, err := e.handle.Seek(0, whenceEnd); err != nil {
				return mapError(err)
			}
		}
		total, errno = iovecs(mem, uint32(a[1]), uint32(a[2]), func(buf []byte) (int, bool, Errno) {
			n, err := e.handle.Write(buf)
			if err != nil {
				return n, true, mapError(err)
			}
			return n, false, ErrnoSuccess
		})
		if errno != ErrnoSuccess {
			return errno
		}
	default:
		return ErrnoBadf
	}
	if mem.WriteU32(uint32(a[3]), total) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

func (s *System) fdPwrite(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdWrite|RightFdSeek)
	if errno != ErrnoSuccess {
		return errno
	}
	if e.kind != kindFile {
		return ErrnoBadf
	}
	saved := e.handle.Tell()
	if _, err := e.handle.Seek(int64(a[3]), whenceSet); err != nil {
		return mapError(err)
	}
	total, errno := iovecs(in.Memory(), uint32(a[1]), uint32(a[2]), func(buf []byte) (int, bool, Errno) {
		n, err := e.handle.Write(buf)
		if err != nil {
			return n, true, mapError(err)
		}
		return n, false, ErrnoSuccess
	})
	if _, err := e.handle.Seek(saved, whenceSet); err != nil {
		return mapError(err)
	}
	if errno != ErrnoSuccess {
		return errno
	}
	if in.Memory().WriteU32(uint32(a[4]), total) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

func (s *System) fdPrestatGet(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.get(int32(a[0]))
	if errno != ErrnoSuccess {
		return errno
	}
	if !e.prestat {
		return ErrnoBadf
	}
	mem := in.Memory()
	if mem.WriteByteAt(uint32(a[1]), 0) != nil { // tag: dir
		return ErrnoFault
	}
	if mem.WriteU32(uint32(a[1])+4, uint32(len(e.guest))) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

func (s *System) fdPrestatDirName(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.get(int32(a[0]))
	if errno != ErrnoSuccess {
		return errno
	}
	if !e.prestat {
		return ErrnoBadf
	}
	if uint32(a[2]) < uint32(len(e.guest)) {
		return ErrnoInval
	}
	buf, err := in.Memory().Bytes(uint32(a[1]), uint32(len(e.guest)))
	if err != nil {
		return ErrnoFault
	}
	copy(buf, e.guest)
	return ErrnoSuccess
}

func (s *System) fdReaddir(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdReaddir)
	if errno != ErrnoSuccess {
		return errno
	}
	if e.kind != kindDir {
		return ErrnoNotdir
	}
	if s.fsDenied() {
		return ErrnoNotcapable
	}
	cookie := a[3]
	if cookie == 0 || e.readdirNames == nil {
		names, err := s.cfg.FS.ReadDir(e.path)
		if err != nil {
			return mapError(err)
		}
		e.readdirNames = names
		s.dirty = true
	}
	mem := in.Memory()
	bufPtr, bufLen := uint32(a[1]), uint32(a[2])
	var used uint32
	for idx := int(cookie); idx < len(e.readdirNames); idx++ {
		info := e.readdirNames[idx]
		entry := make([]byte, 24+len(info.Name))
		putU64 := func(off int, v uint64) {
			for i := 0; i < 8; i++ {
				entry[off+i] = byte(v >> (8 * i))
			}
		}
		putU64(0, uint64(idx+1)) // d_next cookie
		putU64(8, info.Ino)
		entry[16] = byte(len(info.Name))
		entry[17] = byte(len(info.Name) >> 8)
		entry[18] = byte(len(info.Name) >> 16)
		entry[19] = byte(len(info.Name) >> 24)
		entry[20] = filetypeOf(info)
		copy(entry[24:], info.Name)

		n := uint32(len(entry))
		if used+n > bufLen {
			// Truncated entry signals the guest to retry with a larger
			// buffer; bufused == bufLen means "more to read".
			part, err := mem.Bytes(bufPtr+used, bufLen-used)
			if err != nil {
				return ErrnoFault
			}
			copy(part, entry[:len(part)])
			used = bufLen
			break
		}
		dst, err := mem.Bytes(bufPtr+used, n)
		if err != nil {
			return ErrnoFault
		}
		copy(dst, entry)
		used += n
	}
	if mem.WriteU32(uint32(a[4]), used) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

func (s *System) fdRenumber(in *wasm.Instance, a []uint64) Errno {
	from, to := int32(a[0]), int32(a[1])
	e, errno := s.get(from)
	if errno != ErrnoSuccess {
		return errno
	}
	if old, ok := s.fds[to]; ok && old.kind == kindFile && old.handle != nil {
		_ = old.handle.Close()
	}
	s.fds[to] = e
	delete(s.fds, from)
	s.dirty = true
	return ErrnoSuccess
}

func (s *System) fdSeek(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdSeek)
	if errno != ErrnoSuccess {
		return errno
	}
	switch e.kind {
	case kindFile:
		pos, err := e.handle.Seek(int64(a[1]), int(uint32(a[2])))
		if err != nil {
			return mapError(err)
		}
		if in.Memory().WriteU64(uint32(a[3]), uint64(pos)) != nil {
			return ErrnoFault
		}
		return ErrnoSuccess
	case kindDir:
		return ErrnoIsdir
	default:
		return ErrnoSpipe
	}
}

func (s *System) fdSync(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdSync)
	if errno != ErrnoSuccess {
		return errno
	}
	if e.kind != kindFile {
		return ErrnoInval
	}
	return mapError(e.handle.Sync())
}

func (s *System) fdTell(in *wasm.Instance, a []uint64) Errno {
	e, errno := s.getWithRights(int32(a[0]), RightFdTell)
	if errno != ErrnoSuccess {
		return errno
	}
	if e.kind != kindFile {
		return ErrnoSpipe
	}
	if in.Memory().WriteU64(uint32(a[1]), uint64(e.handle.Tell())) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

// --- path operations ---

func (s *System) pathArg(in *wasm.Instance, dirFD int32, ptr, length uint64, need Rights) (*fdEntry, string, Errno) {
	e, errno := s.getWithRights(dirFD, need)
	if errno != ErrnoSuccess {
		return nil, "", errno
	}
	rel, err := in.Memory().ReadString(uint32(ptr), uint32(length))
	if err != nil {
		return nil, "", ErrnoFault
	}
	full, errno := e.resolvePath(rel)
	if errno != ErrnoSuccess {
		return nil, "", errno
	}
	return e, full, ErrnoSuccess
}

func (s *System) pathCreateDirectory(in *wasm.Instance, a []uint64) Errno {
	_, path, errno := s.pathArg(in, int32(a[0]), a[1], a[2], RightPathCreateDirectory)
	if errno != ErrnoSuccess {
		return errno
	}
	if s.fsDenied() {
		return ErrnoNotcapable
	}
	return mapError(s.cfg.FS.Mkdir(path))
}

func (s *System) pathFilestatGet(in *wasm.Instance, a []uint64) Errno {
	_, path, errno := s.pathArg(in, int32(a[0]), a[2], a[3], RightPathFilestatGet)
	if errno != ErrnoSuccess {
		return errno
	}
	if s.fsDenied() {
		return ErrnoNotcapable
	}
	follow := uint32(a[1])&1 != 0
	info, err := s.cfg.FS.Stat(path, follow)
	if err != nil {
		return mapError(err)
	}
	return writeFilestat(in.Memory(), uint32(a[4]), info)
}

func (s *System) pathFilestatSetTimes(in *wasm.Instance, a []uint64) Errno {
	_, path, errno := s.pathArg(in, int32(a[0]), a[2], a[3], RightPathFilestatSetTimes)
	if errno != ErrnoSuccess {
		return errno
	}
	if s.fsDenied() {
		return ErrnoNotcapable
	}
	at, mt, errno := fstTimes(s, a[4], a[5], uint32(a[6]))
	if errno != ErrnoSuccess {
		return errno
	}
	return mapError(s.cfg.FS.UTimes(path, at, mt))
}

func (s *System) pathLink(in *wasm.Instance, a []uint64) Errno {
	_, oldPath, errno := s.pathArg(in, int32(a[0]), a[2], a[3], RightPathLinkSource)
	if errno != ErrnoSuccess {
		return errno
	}
	_, newPath, errno := s.pathArg(in, int32(a[4]), a[5], a[6], RightPathLinkTarget)
	if errno != ErrnoSuccess {
		return errno
	}
	if s.fsDenied() {
		return ErrnoNotcapable
	}
	return mapError(s.cfg.FS.Link(oldPath, newPath))
}

func (s *System) pathOpen(in *wasm.Instance, a []uint64) Errno {
	dir, path, errno := s.pathArg(in, int32(a[0]), a[2], a[3], RightPathOpen)
	if errno != ErrnoSuccess {
		return errno
	}
	oflags := uint32(a[4])
	rightsBase := Rights(a[5]) & dir.inheriting
	rightsInheriting := Rights(a[6]) & dir.inheriting
	fdflags := uint16(a[7])

	if s.fsDenied() {
		return ErrnoNotcapable
	}

	// Directory open? A path that does not exist falls through to the
	// open (O_CREAT); any other host error is the guest's answer, never
	// read as "not a directory".
	info, statErr := s.cfg.FS.Stat(path, true)
	if statErr != nil && !errors.Is(statErr, hostfs.ErrNotExist) {
		return mapError(statErr)
	}
	isDir := statErr == nil && info.IsDir()
	if oflags&oflagDirectory != 0 && statErr == nil && !isDir {
		return ErrnoNotdir
	}
	if isDir {
		fd := s.install(&fdEntry{
			kind: kindDir, path: path,
			rights: rightsBase & rightsDir, inheriting: rightsInheriting,
		})
		if in.Memory().WriteU32(uint32(a[8]), uint32(fd)) != nil {
			return ErrnoFault
		}
		return ErrnoSuccess
	}

	var flags int
	writable := rightsBase&(RightFdWrite|RightFdAllocate|RightFdFilestatSetSize) != 0
	if writable {
		flags |= hostfs.OWrite | hostfs.ORead
	} else {
		flags |= hostfs.ORead
	}
	if oflags&oflagCreat != 0 {
		flags |= hostfs.OCreate
	}
	if oflags&oflagExcl != 0 {
		flags |= hostfs.OExcl
	}
	if oflags&oflagTrunc != 0 {
		flags |= hostfs.OTrunc
	}
	handle, err := s.cfg.FS.Open(path, flags, writable)
	if err != nil {
		return mapError(err)
	}
	fd := s.install(&fdEntry{
		kind: kindFile, handle: handle, path: path,
		rights: rightsBase & rightsFile, inheriting: rightsInheriting,
		fdflags: fdflags,
	})
	if in.Memory().WriteU32(uint32(a[8]), uint32(fd)) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

func (s *System) pathReadlink(in *wasm.Instance, a []uint64) Errno {
	_, path, errno := s.pathArg(in, int32(a[0]), a[1], a[2], RightPathReadlink)
	if errno != ErrnoSuccess {
		return errno
	}
	if s.fsDenied() {
		return ErrnoNotcapable
	}
	target, err := s.cfg.FS.Readlink(path)
	if err != nil {
		return mapError(err)
	}
	n := uint32(len(target))
	if n > uint32(a[4]) {
		n = uint32(a[4])
	}
	buf, err2 := in.Memory().Bytes(uint32(a[3]), n)
	if err2 != nil {
		return ErrnoFault
	}
	copy(buf, target[:n])
	if in.Memory().WriteU32(uint32(a[5]), n) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

func (s *System) pathRemoveDirectory(in *wasm.Instance, a []uint64) Errno {
	_, path, errno := s.pathArg(in, int32(a[0]), a[1], a[2], RightPathRemoveDirectory)
	if errno != ErrnoSuccess {
		return errno
	}
	if s.fsDenied() {
		return ErrnoNotcapable
	}
	return mapError(s.cfg.FS.RemoveDir(path))
}

func (s *System) pathRename(in *wasm.Instance, a []uint64) Errno {
	_, oldPath, errno := s.pathArg(in, int32(a[0]), a[1], a[2], RightPathRenameSource)
	if errno != ErrnoSuccess {
		return errno
	}
	_, newPath, errno := s.pathArg(in, int32(a[3]), a[4], a[5], RightPathRenameTarget)
	if errno != ErrnoSuccess {
		return errno
	}
	if s.fsDenied() {
		return ErrnoNotcapable
	}
	return mapError(s.cfg.FS.Rename(oldPath, newPath))
}

func (s *System) pathSymlink(in *wasm.Instance, a []uint64) Errno {
	target, err := in.Memory().ReadString(uint32(a[0]), uint32(a[1]))
	if err != nil {
		return ErrnoFault
	}
	_, link, errno := s.pathArg(in, int32(a[2]), a[3], a[4], RightPathSymlink)
	if errno != ErrnoSuccess {
		return errno
	}
	if s.fsDenied() {
		return ErrnoNotcapable
	}
	return mapError(s.cfg.FS.Symlink(target, link))
}

func (s *System) pathUnlinkFile(in *wasm.Instance, a []uint64) Errno {
	_, path, errno := s.pathArg(in, int32(a[0]), a[1], a[2], RightPathUnlinkFile)
	if errno != ErrnoSuccess {
		return errno
	}
	if s.fsDenied() {
		return ErrnoNotcapable
	}
	return mapError(s.cfg.FS.RemoveFile(path))
}

// --- misc ---

func (s *System) pollOneoff(in *wasm.Instance, a []uint64) Errno {
	mem := in.Memory()
	subsPtr, eventsPtr, nsubs := uint32(a[0]), uint32(a[1]), uint32(a[2])
	if nsubs == 0 {
		return ErrnoInval
	}
	var written uint32
	minTimeout := int64(-1)
	var clockUserdata uint64
	for i := uint32(0); i < nsubs; i++ {
		base := subsPtr + i*48
		userdata, err := mem.ReadU64(base)
		if err != nil {
			return ErrnoFault
		}
		tagB, err := mem.Bytes(base+8, 1)
		if err != nil {
			return ErrnoFault
		}
		switch tagB[0] {
		case 0: // clock
			timeout, _ := mem.ReadU64(base + 24)
			if minTimeout < 0 || int64(timeout) < minTimeout {
				minTimeout = int64(timeout)
				clockUserdata = userdata
			}
		case 1, 2: // fd_read / fd_write: files are always ready
			evPtr := eventsPtr + written*32
			if writeEvent(mem, evPtr, userdata, tagB[0], 1<<16) != ErrnoSuccess {
				return ErrnoFault
			}
			written++
		default:
			return ErrnoInval
		}
	}
	if written == 0 && minTimeout >= 0 {
		// Pure sleep: wait outside the enclave.
		_ = s.ocall("sleep", func() error {
			time.Sleep(time.Duration(minTimeout))
			return nil
		})
		evPtr := eventsPtr + written*32
		if writeEvent(mem, evPtr, clockUserdata, 0, 0) != ErrnoSuccess {
			return ErrnoFault
		}
		written++
	}
	if mem.WriteU32(uint32(a[3]), written) != nil {
		return ErrnoFault
	}
	return ErrnoSuccess
}

func writeEvent(mem *wasm.Memory, ptr uint32, userdata uint64, typ byte, nbytes uint64) Errno {
	buf, err := mem.Bytes(ptr, 32)
	if err != nil {
		return ErrnoFault
	}
	for i := range buf {
		buf[i] = 0
	}
	_ = mem.WriteU64(ptr, userdata)
	_ = mem.WriteU16(ptr+8, 0) // errno success
	_ = mem.WriteByteAt(ptr+10, typ)
	_ = mem.WriteU64(ptr+16, nbytes)
	return ErrnoSuccess
}

func (s *System) procExit(in *wasm.Instance, a []uint64) (Errno, error) {
	s.exited = true
	s.exitCode = uint32(a[0])
	s.dirty = true
	return ErrnoSuccess, wasm.ExitError{Code: uint32(a[0])}
}

func (s *System) procRaise(in *wasm.Instance, a []uint64) Errno {
	return ErrnoNosys
}

func (s *System) randomGet(in *wasm.Instance, a []uint64) Errno {
	// Trusted implementation: the enclave's entropy source (RDRAND on
	// real SGX); no OCALL and no host visibility.
	buf, err := in.Memory().Bytes(uint32(a[0]), uint32(a[1]))
	if err != nil {
		return ErrnoFault
	}
	if _, err := rand.Read(buf); err != nil {
		return ErrnoIo
	}
	return ErrnoSuccess
}

func (s *System) schedYield(in *wasm.Instance, a []uint64) Errno {
	return ErrnoSuccess
}

// Sockets are left as future work in the paper (§IV-E); the calls exist in
// the surface and report ENOSYS.
func (s *System) sockRecv(in *wasm.Instance, a []uint64) Errno     { return ErrnoNosys }
func (s *System) sockSend(in *wasm.Instance, a []uint64) Errno     { return ErrnoNosys }
func (s *System) sockShutdown(in *wasm.Instance, a []uint64) Errno { return ErrnoNosys }
