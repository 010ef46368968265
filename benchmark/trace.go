package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"twine/internal/hostfs"
)

// span is one host file call seen from outside the stack: the layer
// boundary every storage path of the repo ends at.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Bytes   int    `json:"bytes"`
	// Parent is the request (op index of the traced rung) that was in
	// flight when the call was made; -1 outside any op.
	Parent int64 `json:"parent"`
}

// maxSpans bounds the in-memory span log; calls beyond it are still
// counted, only their spans are dropped, and the run notes how many.
const maxSpans = 400_000

// hostCounts are the interposer's counters at one instant.
type hostCounts struct {
	Reads, Writes, Syncs  int64
	NodeReads, NodeWrites int64 // 4 KiB calls: protected-FS nodes
	BytesWritten          int64
}

func (a hostCounts) sub(b hostCounts) hostCounts {
	return hostCounts{
		Reads: a.Reads - b.Reads, Writes: a.Writes - b.Writes, Syncs: a.Syncs - b.Syncs,
		NodeReads: a.NodeReads - b.NodeReads, NodeWrites: a.NodeWrites - b.NodeWrites,
		BytesWritten: a.BytesWritten - b.BytesWritten,
	}
}

// nodeBytes is the protected file system's node size; a host read or
// write of exactly this length is one sealed node crossing the boundary.
const nodeBytes = 4096

// tracedFS is the hostfs.FS interposer of the traced pass. It is handed
// to the stack as Config.HostFS, so it sees every host file call without
// touching the program. Spans stay in memory until writeSpans.
type tracedFS struct {
	hostfs.FS
	epoch time.Time
	// req is the op currently in flight on the traced rung (set by the
	// rung's driver); spans record it as their parent.
	req atomic.Int64
	// on gates span recording, so set-up traffic is counted but not kept.
	on atomic.Bool

	reads, writes, syncs, nodeReads, nodeWrites atomic.Int64
	bytesWritten                                atomic.Int64
	// dropped counts the spans that did not fit under maxSpans.
	dropped atomic.Int64

	mu    sync.Mutex
	spans []span
}

// newTracedFS interposes on a fresh in-memory host.
func newTracedFS() *tracedFS {
	t := &tracedFS{FS: hostfs.NewMemFS(), epoch: time.Now()}
	t.req.Store(-1)
	return t
}

func (t *tracedFS) counts() hostCounts {
	return hostCounts{
		Reads: t.reads.Load(), Writes: t.writes.Load(), Syncs: t.syncs.Load(),
		NodeReads: t.nodeReads.Load(), NodeWrites: t.nodeWrites.Load(),
		BytesWritten: t.bytesWritten.Load(),
	}
}

func (t *tracedFS) record(name string, start time.Time, n int) {
	if !t.on.Load() {
		return
	}
	end := time.Now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, StartNs: int64(start.Sub(t.epoch)),
			EndNs: int64(end.Sub(t.epoch)), Bytes: n, Parent: t.req.Load()})
	} else {
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

func (t *tracedFS) OpenFile(name string, flag int) (hostfs.File, error) {
	start := time.Now()
	f, err := t.FS.OpenFile(name, flag)
	t.record("open", start, 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, t: t}, nil
}

func (t *tracedFS) Remove(name string) error {
	start := time.Now()
	err := t.FS.Remove(name)
	t.record("remove", start, 0)
	return err
}

func (t *tracedFS) Rename(oldName, newName string) error {
	start := time.Now()
	err := t.FS.Rename(oldName, newName)
	t.record("rename", start, 0)
	return err
}

func (t *tracedFS) Stat(name string) (hostfs.FileInfo, error) {
	start := time.Now()
	fi, err := t.FS.Stat(name)
	t.record("stat", start, 0)
	return fi, err
}

type tracedFile struct {
	hostfs.File
	t *tracedFS
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.ReadAt(p, off)
	f.t.reads.Add(1)
	if len(p) == nodeBytes {
		f.t.nodeReads.Add(1)
	}
	f.t.record("read", start, n)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.t.writes.Add(1)
	f.t.bytesWritten.Add(int64(n))
	if len(p) == nodeBytes {
		f.t.nodeWrites.Add(1)
	}
	f.t.record("write", start, n)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.syncs.Add(1)
	f.t.record("sync", start, 0)
	return err
}

func (f *tracedFile) Truncate(size int64) error {
	start := time.Now()
	err := f.File.Truncate(size)
	f.t.record("truncate", start, 0)
	return err
}

// writeSpans writes the span log as JSON lines. The file goes where
// -trace-out says, by default under .bench_build/ of the working
// directory, which the repository ignores.
func (t *tracedFS) writeSpans(path string) (int, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(spans), f.Close()
}
