package chaos

import (
	"time"

	"twine/internal/hostfs"
)

// WrapFS returns an untrusted host file system whose every operation —
// path operations and per-handle data operations alike — consults inj
// first, stalling and/or failing the operations the plan selects: any
// Plan (windows, strides, seeded probabilities, stalls) runs against the
// one operation stream. "Fail everything after the first n operations" is
// Plan{At: n + 1, Window: 1 << 40}.
//
// With a nil injector (or a zero Plan) the wrapper is transparent: the
// operation sequence, results and errors are exactly the wrapped FS's.
func WrapFS(fs hostfs.FS, inj *Injector) hostfs.FS {
	return &chaosFS{fs: fs, inj: inj}
}

type chaosFS struct {
	fs  hostfs.FS
	inj *Injector
}

func (c *chaosFS) OpenFile(name string, flag int) (hostfs.File, error) {
	if err := c.inj.Op(); err != nil {
		return nil, err
	}
	f, err := c.fs.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &chaosFile{File: f, inj: c.inj}, nil
}

func (c *chaosFS) Mkdir(name string) error {
	if err := c.inj.Op(); err != nil {
		return err
	}
	return c.fs.Mkdir(name)
}

func (c *chaosFS) Remove(name string) error {
	if err := c.inj.Op(); err != nil {
		return err
	}
	return c.fs.Remove(name)
}

func (c *chaosFS) Rename(oldName, newName string) error {
	if err := c.inj.Op(); err != nil {
		return err
	}
	return c.fs.Rename(oldName, newName)
}

func (c *chaosFS) Stat(name string) (hostfs.FileInfo, error) {
	if err := c.inj.Op(); err != nil {
		return hostfs.FileInfo{}, err
	}
	return c.fs.Stat(name)
}

func (c *chaosFS) Lstat(name string) (hostfs.FileInfo, error) {
	if err := c.inj.Op(); err != nil {
		return hostfs.FileInfo{}, err
	}
	return c.fs.Lstat(name)
}

func (c *chaosFS) ReadDir(name string) ([]hostfs.FileInfo, error) {
	if err := c.inj.Op(); err != nil {
		return nil, err
	}
	return c.fs.ReadDir(name)
}

func (c *chaosFS) Symlink(target, link string) error {
	if err := c.inj.Op(); err != nil {
		return err
	}
	return c.fs.Symlink(target, link)
}

func (c *chaosFS) Readlink(name string) (string, error) {
	if err := c.inj.Op(); err != nil {
		return "", err
	}
	return c.fs.Readlink(name)
}

func (c *chaosFS) Link(oldName, newName string) error {
	if err := c.inj.Op(); err != nil {
		return err
	}
	return c.fs.Link(oldName, newName)
}

func (c *chaosFS) UTimes(name string, atime, mtime time.Time) error {
	if err := c.inj.Op(); err != nil {
		return err
	}
	return c.fs.UTimes(name, atime, mtime)
}

// chaosFile intercepts the data-plane operations (ReadAt/WriteAt/Sync are
// the untrusted-host calls a database workload hammers); Truncate/Stat/Close
// pass through via embedding.
type chaosFile struct {
	hostfs.File
	inj *Injector
}

func (f *chaosFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.inj.Op(); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *chaosFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.inj.Op(); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *chaosFile) Sync() error {
	if err := f.inj.Op(); err != nil {
		return err
	}
	return f.File.Sync()
}
