package ipfs

import "errors"

// Span is a byte range [Off, Off+Len) of a file's logical content.
type Span struct{ Off, Len int64 }

// ErrUnflushed is returned by Refresh when the handle holds writes of its
// own: its tree and the stored one may have diverged, and neither can be
// revalidated against the other. The handle is left as it was.
var ErrUnflushed = errors.New("ipfs: refresh of a handle with unflushed writes")

// Refresh revalidates a clean handle against the stored file after
// another handle may have written it. It trusts only the authenticated
// metadata node: that is re-read (one boundary ride) and, if the root
// entry and size it seals are the ones this handle already holds, nothing
// else happens. Otherwise the tree is descended only where an entry
// differs from the cached old plaintext of its parent MHT node. Every
// write re-keys the node it writes, so an unchanged (key, tag) entry
// means unchanged bytes below it: those cached nodes stay, the changed
// ones go, and the MHT nodes on the changed paths are re-read.
//
// The returned spans cover every byte that may differ from what this
// handle served before: exact under a cached parent, every level of the
// subtree where the old parent is not cached, the whole file when the
// root MHT node is not. A nil slice means nothing changed.
//
// On error the node cache is empty and the handle still holds the root it
// had, so nothing stale can be served and a later Refresh starts over.
func (f *File) Refresh() ([]Span, error) {
	if f.closed {
		return nil, ErrClosed
	}
	if f.metaDirty {
		return nil, ErrUnflushed
	}
	for _, n := range f.cache {
		if n.dirty {
			return nil, ErrUnflushed
		}
	}
	spans, err := f.refresh()
	if err != nil {
		f.dropAll()
		return nil, err
	}
	return spans, nil
}

func (f *File) refresh() ([]Span, error) {
	rootKey, rootTag, size, err := f.readMeta()
	if err != nil {
		return nil, err
	}
	rootMoved := rootKey != f.rootKey || rootTag != f.rootTag
	if !rootMoved && size == f.size {
		return nil, nil
	}
	// extent bounds every span: bytes past both sizes were never served.
	extent := max(size, f.size)
	var spans []Span
	root, ok := f.cache[mhtPhys(0)]
	if !ok || !f.haveRoot {
		f.dropAll()
		spans = []Span{{0, extent}}
	} else {
		if rootMoved {
			if spans, err = f.diffMHT(root, rootKey, rootTag, extent, nil); err != nil {
				return nil, err
			}
		}
		if lo := min(size, f.size); lo < extent {
			spans = addSpan(spans, lo, extent-lo)
		}
	}
	f.setRoot(rootKey, rootTag, size)
	f.offset = min(f.offset, size)
	return spans, nil
}

// diffMHT replaces cached MHT node n with the stored version its new
// (key, tag) entry names and walks the entries that differ between the
// two: a changed data child is dropped and reported, a changed MHT child
// is diffed in turn when its old plaintext is cached and dropped with its
// whole subtree when it is not.
func (f *File) diffMHT(n *node, key, tag [16]byte, extent int64, spans []Span) ([]Span, error) {
	old := n.plain
	n.plain = f.takeBuf()
	defer f.putBuf(old)
	if err := f.decryptInto(n, key, tag); err != nil {
		return nil, err
	}
	for slot := 0; slot < dataPerMHT+mhtPerMHT; slot++ {
		off := slot * entrySize
		if [entrySize]byte(old[off:off+entrySize]) == [entrySize]byte(n.plain[off:off+entrySize]) {
			continue
		}
		if slot < dataPerMHT {
			d := n.idx*dataPerMHT + int64(slot)
			if c, ok := f.cache[dataPhys(d)]; ok {
				f.release(c)
			}
			spans = addSpan(spans, d*NodeSize, NodeSize)
			continue
		}
		k := n.idx*mhtPerMHT + 1 + int64(slot-dataPerMHT)
		child, ok := f.cache[mhtPhys(k)]
		if !ok || n.entryIsZero(slot) {
			spans = f.dropSubtree(k, extent, spans)
			continue
		}
		ckey, ctag := n.entry(slot)
		var err error
		if spans, err = f.diffMHT(child, ckey, ctag, extent, spans); err != nil {
			return nil, err
		}
	}
	return spans, nil
}

// dropSubtree drops every cached node at or below MHT node k and reports
// the data the subtree covers: one span per tree level, since level l
// below k is the contiguous run of 32^l MHT nodes starting at the first
// child of the level above, each followed by its own 96 data nodes.
func (f *File) dropSubtree(k, extent int64, spans []Span) []Span {
	for _, c := range f.cache {
		m := c.idx // the MHT node c hangs off, then its ancestors
		if !c.isMHT {
			m, _ = dataParent(c.idx)
		}
		for m > k {
			m, _ = mhtParent(m)
		}
		if m == k {
			f.release(c)
		}
	}
	const mhtBytes = dataPerMHT * NodeSize
	for lo, hi := k, k; lo*mhtBytes < extent; lo, hi = lo*mhtPerMHT+1, hi*mhtPerMHT+mhtPerMHT {
		spans = addSpan(spans, lo*mhtBytes, min((hi+1)*mhtBytes, extent)-lo*mhtBytes)
	}
	return spans
}

// dropAll empties the node cache of a clean handle.
func (f *File) dropAll() {
	for _, n := range f.cache {
		f.release(n)
	}
}

// addSpan appends [off, off+n), extending the last span when adjacent.
func addSpan(spans []Span, off, n int64) []Span {
	if last := len(spans) - 1; last >= 0 && spans[last].Off+spans[last].Len == off {
		spans[last].Len += n
		return spans
	}
	return append(spans, Span{off, n})
}
