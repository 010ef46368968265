package hostfs

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// MemFS is an in-memory hierarchical file system. It implements FS with
// full support for directories, hard links and symbolic links, so the WASI
// layer can be exercised end to end without touching the disk.
//
// A regular file is its size plus a slice of 4 KiB chunks, the size of an
// IPFS node and a litedb page, so a node read or write copies one chunk. A
// nil chunk is a hole and reads as zeros. A file therefore holds its
// written bytes rounded up to 4 KiB: growing it copies no data and leaves
// no slack, and a truncate drops the chunks past the new end.
//
// MemFS is safe for concurrent use.
type MemFS struct {
	mu      sync.Mutex
	root    *memNode
	nextIno uint64
	clock   Clock
}

type memNode struct {
	ino      uint64
	typ      FileType
	size     int64               // regular files
	chunks   []*[chunkSize]byte  // regular files; nil is a hole
	children map[string]*memNode // directories
	target   string              // symlinks
	mtime    time.Time
	atime    time.Time
	nlink    int
}

// chunkSize is the unit a MemFS file is stored in. Bytes of the last chunk
// past the file's size are always zero, so a write or truncate that extends
// the file exposes zeros, never bytes an earlier truncate cut off.
const chunkSize = 4096

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS {
	fs := &MemFS{clock: NewRealClock(), nextIno: 1}
	fs.root = &memNode{ino: fs.inode(), typ: TypeDir, children: map[string]*memNode{}, nlink: 1}
	return fs
}

func (fs *MemFS) inode() uint64 {
	ino := fs.nextIno
	fs.nextIno++
	return ino
}

// split cleans a path into components, rejecting escapes above the root.
func splitPath(name string) ([]string, error) {
	name = strings.TrimPrefix(name, "/")
	if name == "" || name == "." {
		return nil, nil
	}
	raw := strings.Split(name, "/")
	var parts []string
	for _, p := range raw {
		switch p {
		case "", ".":
		case "..":
			if len(parts) == 0 {
				return nil, fmt.Errorf("%w: path escapes root: %s", ErrPermission, name)
			}
			parts = parts[:len(parts)-1]
		default:
			parts = append(parts, p)
		}
	}
	return parts, nil
}

const maxSymlinkDepth = 16

// walk resolves name to (parent, leafName, node). node is nil if the leaf
// does not exist. followLeaf controls symlink resolution of the last
// component.
func (fs *MemFS) walk(name string, followLeaf bool) (parent *memNode, leaf string, node *memNode, err error) {
	return fs.walkDepth(name, followLeaf, 0)
}

func (fs *MemFS) walkDepth(name string, followLeaf bool, depth int) (*memNode, string, *memNode, error) {
	if depth > maxSymlinkDepth {
		return nil, "", nil, fmt.Errorf("%w: too many levels of symbolic links", ErrInvalid)
	}
	parts, err := splitPath(name)
	if err != nil {
		return nil, "", nil, err
	}
	if len(parts) == 0 {
		return nil, "", fs.root, nil
	}
	cur := fs.root
	for i, part := range parts {
		if cur.typ != TypeDir {
			return nil, "", nil, fmt.Errorf("%w: %s", ErrNotDir, strings.Join(parts[:i], "/"))
		}
		next, ok := cur.children[part]
		last := i == len(parts)-1
		if last {
			if ok && next.typ == TypeSymlink && followLeaf {
				return fs.walkDepth(joinTarget(parts[:i], next.target), true, depth+1)
			}
			if !ok {
				return cur, part, nil, nil
			}
			return cur, part, next, nil
		}
		if !ok {
			return nil, "", nil, fmt.Errorf("%w: %s", ErrNotExist, strings.Join(parts[:i+1], "/"))
		}
		if next.typ == TypeSymlink {
			rest := strings.Join(parts[i+1:], "/")
			return fs.walkDepth(joinTarget(parts[:i], next.target)+"/"+rest, followLeaf, depth+1)
		}
		cur = next
	}
	panic("unreachable")
}

// joinTarget resolves a symlink target relative to the directory holding
// the link (absolute targets restart from the root).
func joinTarget(dirParts []string, target string) string {
	if strings.HasPrefix(target, "/") {
		return target
	}
	return strings.Join(dirParts, "/") + "/" + target
}

// OpenFile implements FS.
func (fs *MemFS) OpenFile(name string, flag int) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, node, err := fs.walk(name, true)
	if err != nil {
		return nil, err
	}
	switch {
	case node == nil && flag&OCreate == 0:
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	case node == nil:
		node = &memNode{ino: fs.inode(), typ: TypeRegular, mtime: fs.clock.Now(), atime: fs.clock.Now(), nlink: 1}
		parent.children[leaf] = node
		parent.mtime = fs.clock.Now()
	case flag&OExcl != 0 && flag&OCreate != 0:
		return nil, fmt.Errorf("%w: %s", ErrExist, name)
	case node.typ == TypeDir && flag&OWrite != 0:
		return nil, fmt.Errorf("%w: %s", ErrIsDir, name)
	case node.typ == TypeDir:
		return &memFile{fs: fs, node: node, name: leafName(name)}, nil
	}
	if flag&OTrunc != 0 {
		node.size, node.chunks = 0, nil
		node.mtime = fs.clock.Now()
	}
	return &memFile{fs: fs, node: node, name: leafName(name), writable: flag&OWrite != 0}, nil
}

func leafName(name string) string {
	parts, _ := splitPath(name)
	if len(parts) == 0 {
		return "/"
	}
	return parts[len(parts)-1]
}

// Mkdir implements FS.
func (fs *MemFS) Mkdir(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, node, err := fs.walk(name, true)
	if err != nil {
		return err
	}
	if node != nil {
		return fmt.Errorf("%w: %s", ErrExist, name)
	}
	if parent == nil {
		return fmt.Errorf("%w: %s", ErrInvalid, name)
	}
	parent.children[leaf] = &memNode{
		ino: fs.inode(), typ: TypeDir, children: map[string]*memNode{},
		mtime: fs.clock.Now(), atime: fs.clock.Now(), nlink: 1,
	}
	return nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, node, err := fs.walk(name, false)
	if err != nil {
		return err
	}
	if node == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if node == fs.root {
		return fmt.Errorf("%w: cannot remove root", ErrInvalid)
	}
	if node.typ == TypeDir && len(node.children) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, name)
	}
	node.nlink--
	delete(parent.children, leaf)
	parent.mtime = fs.clock.Now()
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(oldName, newName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldParent, oldLeaf, node, err := fs.walk(oldName, false)
	if err != nil {
		return err
	}
	if node == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, oldName)
	}
	newParent, newLeaf, existing, err := fs.walk(newName, false)
	if err != nil {
		return err
	}
	if existing != nil {
		if existing.typ == TypeDir && len(existing.children) > 0 {
			return fmt.Errorf("%w: %s", ErrNotEmpty, newName)
		}
		if existing.typ == TypeDir && node.typ != TypeDir {
			return fmt.Errorf("%w: %s", ErrIsDir, newName)
		}
	}
	delete(oldParent.children, oldLeaf)
	newParent.children[newLeaf] = node
	now := fs.clock.Now()
	oldParent.mtime, newParent.mtime = now, now
	return nil
}

// Stat implements FS.
func (fs *MemFS) Stat(name string) (FileInfo, error) { return fs.stat(name, true) }

// Lstat implements FS.
func (fs *MemFS) Lstat(name string) (FileInfo, error) { return fs.stat(name, false) }

func (fs *MemFS) stat(name string, follow bool) (FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, leaf, node, err := fs.walk(name, follow)
	if err != nil {
		return FileInfo{}, err
	}
	if node == nil {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if leaf == "" {
		leaf = "/"
	}
	return nodeInfo(leaf, node), nil
}

func nodeInfo(name string, n *memNode) FileInfo {
	size := n.size
	if n.typ == TypeSymlink {
		size = int64(len(n.target))
	}
	return FileInfo{Name: name, Size: size, Type: n.typ, ModTime: n.mtime, AccTime: n.atime, Ino: n.ino}
}

// ReadDir implements FS.
func (fs *MemFS) ReadDir(name string) ([]FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, _, node, err := fs.walk(name, true)
	if err != nil {
		return nil, err
	}
	if node == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if node.typ != TypeDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, name)
	}
	names := make([]string, 0, len(node.children))
	for n := range node.children {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]FileInfo, 0, len(names))
	for _, n := range names {
		out = append(out, nodeInfo(n, node.children[n]))
	}
	return out, nil
}

// Symlink implements FS.
func (fs *MemFS) Symlink(target, link string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, node, err := fs.walk(link, false)
	if err != nil {
		return err
	}
	if node != nil {
		return fmt.Errorf("%w: %s", ErrExist, link)
	}
	parent.children[leaf] = &memNode{
		ino: fs.inode(), typ: TypeSymlink, target: target,
		mtime: fs.clock.Now(), atime: fs.clock.Now(), nlink: 1,
	}
	return nil
}

// Readlink implements FS.
func (fs *MemFS) Readlink(name string) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, _, node, err := fs.walk(name, false)
	if err != nil {
		return "", err
	}
	if node == nil {
		return "", fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	if node.typ != TypeSymlink {
		return "", fmt.Errorf("%w: not a symlink: %s", ErrInvalid, name)
	}
	return node.target, nil
}

// Link implements FS.
func (fs *MemFS) Link(oldName, newName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, _, node, err := fs.walk(oldName, true)
	if err != nil {
		return err
	}
	if node == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, oldName)
	}
	if node.typ == TypeDir {
		return fmt.Errorf("%w: hard link to directory", ErrPermission)
	}
	parent, leaf, existing, err := fs.walk(newName, false)
	if err != nil {
		return err
	}
	if existing != nil {
		return fmt.Errorf("%w: %s", ErrExist, newName)
	}
	node.nlink++
	parent.children[leaf] = node
	return nil
}

// UTimes implements FS.
func (fs *MemFS) UTimes(name string, atime, mtime time.Time) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, _, node, err := fs.walk(name, true)
	if err != nil {
		return err
	}
	if node == nil {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	node.atime, node.mtime = atime, mtime
	return nil
}

// TotalBytes reports the sum of all regular file sizes (used by benchmarks
// to report on-disk footprint).
func (fs *MemFS) TotalBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var total int64
	var visit func(n *memNode)
	seen := map[*memNode]bool{}
	visit = func(n *memNode) {
		if seen[n] {
			return
		}
		seen[n] = true
		total += n.size
		for _, c := range n.children {
			visit(c)
		}
	}
	visit(fs.root)
	return total
}

// memFile is an open handle onto a memNode.
type memFile struct {
	fs       *MemFS
	node     *memNode
	name     string
	writable bool
	closed   bool
}

// ReadAt implements File.
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if f.node.typ == TypeDir {
		return 0, ErrIsDir
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	if off >= f.node.size {
		return 0, nil // EOF as a short read; WASI maps n==0 to EOF
	}
	n := int(min(int64(len(p)), f.node.size-off))
	for done := 0; done < n; {
		pos := off + int64(done)
		c, lo := f.node.chunks[pos/chunkSize], int(pos%chunkSize)
		k := min(chunkSize-lo, n-done)
		if c == nil {
			clear(p[done : done+k])
		} else {
			copy(p[done:done+k], c[lo:])
		}
		done += k
	}
	f.node.atime = f.fs.clock.Now()
	return n, nil
}

// WriteAt implements File.
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if !f.writable {
		return 0, ErrPermission
	}
	if off < 0 {
		return 0, ErrInvalid
	}
	if len(p) == 0 {
		return 0, nil // POSIX: an empty write does not extend the file
	}
	if end := off + int64(len(p)); end > f.node.size {
		f.node.resize(end)
	}
	for done := 0; done < len(p); {
		pos := off + int64(done)
		i := pos / chunkSize
		if f.node.chunks[i] == nil {
			f.node.chunks[i] = new([chunkSize]byte)
		}
		done += copy(f.node.chunks[i][pos%chunkSize:], p[done:])
	}
	f.node.mtime = f.fs.clock.Now()
	return len(p), nil
}

// resize sets a regular file's size. Growing adds holes; shrinking drops
// the chunks past the new end and zeroes the cut-off tail of the last one.
// Slots past len(chunks) are nil (shrinking clears them), so a regrown
// slice holds holes.
func (n *memNode) resize(size int64) {
	keep := int((size + chunkSize - 1) / chunkSize)
	if size < n.size {
		clear(n.chunks[keep:])
		n.chunks = n.chunks[:keep]
		if tail := size % chunkSize; tail != 0 && n.chunks[keep-1] != nil {
			clear(n.chunks[keep-1][tail:])
		}
	} else if keep > len(n.chunks) {
		n.chunks = slices.Grow(n.chunks, keep-len(n.chunks))[:keep]
	}
	n.size = size
}

// Truncate implements File.
func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if !f.writable {
		return ErrPermission
	}
	if size < 0 {
		return ErrInvalid
	}
	f.node.resize(size)
	f.node.mtime = f.fs.clock.Now()
	return nil
}

// Sync implements File (a no-op in memory).
func (f *memFile) Sync() error {
	if f.closed {
		return ErrClosed
	}
	return nil
}

// Stat implements File.
func (f *memFile) Stat() (FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return FileInfo{}, ErrClosed
	}
	return nodeInfo(f.name, f.node), nil
}

// Close implements File.
func (f *memFile) Close() error {
	if f.closed {
		return ErrClosed
	}
	f.closed = true
	return nil
}
