package litedb

import (
	"encoding/binary"
	"fmt"
)

// PRAGMA integrity_check: a structural audit of the whole file through the
// pager, in the spirit of SQLite's. It walks the freelist, the catalog tree
// and every table and index tree it names, and reports
//
//   - a page referenced twice, out of range, or of the wrong kind;
//   - keys out of order within a page, across siblings, or past the
//     separator their parent holds for them;
//   - a leaf chain that does not visit the leaves in key order;
//   - an overflow chain shorter or longer than its cell says;
//   - a freelist whose length disagrees with the header;
//   - an index whose entry count differs from its table's row count;
//   - a page of the file that nothing references.
//
// The result is one row "ok", or one row per problem (at most maxProblems).

const maxProblems = 100

type checker struct {
	p        *Pager
	used     []bool // by page number
	problems []string
}

func (c *checker) failf(format string, args ...any) {
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// claim marks page no as referenced by what, reporting a second reference
// or a page outside the file. It reports whether the page may be visited.
func (c *checker) claim(no uint32, what string) bool {
	if no == 0 || no > c.p.nPages {
		c.failf("%s: page %d is outside the file (%d pages)", what, no, c.p.nPages)
		return false
	}
	if c.used[no] {
		c.failf("%s: page %d is referenced twice", what, no)
		return false
	}
	c.used[no] = true
	return true
}

func (db *DB) integrityCheck() ([]string, error) {
	c := &checker{p: db.pager, used: make([]bool, db.pager.nPages+1)}
	c.used[1] = true // header
	if err := c.freelist(); err != nil {
		return nil, err
	}
	if _, err := c.tree(db.catalog, "catalog"); err != nil {
		return nil, err
	}
	for _, ts := range db.tables {
		rows, err := c.tree(db.treeOf(ts), "table "+ts.Name)
		if err != nil {
			return nil, err
		}
		for _, idx := range ts.Indexes {
			entries, err := c.tree(db.idxTreeOf(idx), "index "+idx.Name)
			if err != nil {
				return nil, err
			}
			if entries != rows {
				c.failf("index %s: %d entries for %d rows of %s", idx.Name, entries, rows, ts.Name)
			}
		}
	}
	for no := uint32(1); no <= c.p.nPages; no++ {
		if !c.used[no] {
			c.failf("page %d is never used", no)
		}
	}
	return c.problems, nil
}

func (c *checker) freelist() error {
	hdr, err := c.p.Get(1)
	if err != nil {
		return err
	}
	next := binary.BigEndian.Uint32(hdr.data[hdrFreelistOff:])
	want := binary.BigEndian.Uint32(hdr.data[hdrFreeCountOff:])
	c.p.Unpin(hdr)
	var n uint32
	for next != 0 && c.claim(next, "freelist") {
		pg, err := c.p.Get(next)
		if err != nil {
			return err
		}
		if pg.data[0] != 0xFF {
			c.failf("freelist: page %d is not marked free", next)
		}
		next = binary.BigEndian.Uint32(pg.data[1:5])
		c.p.Unpin(pg)
		n++
	}
	if n != want {
		c.failf("freelist: %d pages on the list, header says %d", n, want)
	}
	return nil
}

// tree audits one B+tree and returns its entry count.
func (c *checker) tree(t *Tree, what string) (entries int64, err error) {
	w := &treeWalk{c: c, t: t, what: what}
	if err := w.page(t.root, nil); err != nil {
		return 0, err
	}
	if w.nextLeaf != 0 {
		c.failf("%s: leaf chain continues to page %d past the last leaf", what, w.nextLeaf)
	}
	return w.entries, nil
}

// treeWalk is one in-order traversal. Keys are compared through treeKey so
// table (rowid) and index (record) trees share the walk.
type treeWalk struct {
	c        *checker
	t        *Tree
	what     string
	last     *treeKey // greatest key seen so far
	entries  int64
	sawLeaf  bool
	nextLeaf uint32 // right pointer of the previous leaf
}

type treeKey struct {
	rowid int64
	key   []byte
}

func (w *treeWalk) less(a, b *treeKey) bool {
	if w.t.isIndex {
		return CompareRecords(a.key, b.key) < 0
	}
	return a.rowid < b.rowid
}

// page walks the subtree at no, every key of which must be <= bound (nil:
// unbounded, the rightmost path).
func (w *treeWalk) page(no uint32, bound *treeKey) error {
	c := w.c
	if !c.claim(no, w.what) {
		return nil
	}
	pg, err := c.p.Get(no)
	if err != nil {
		return err
	}
	// Copy out: the walk below fetches other pages and this one may be
	// evicted from a small cache.
	d := append([]byte(nil), pg.data...)
	c.p.Unpin(pg)

	leafFlag, interiorFlag := byte(flagTableLeaf), byte(flagTableInterior)
	if w.t.isIndex {
		leafFlag, interiorFlag = flagIndexLeaf, flagIndexInterior
	}
	if d[0] != leafFlag && d[0] != interiorFlag {
		c.failf("%s: page %d has kind %d", w.what, no, d[0])
		return nil
	}
	n := cellCount(d)
	if pgHdrSize+2*n > contentStart(d) || contentStart(d) > PageSize {
		c.failf("%s: page %d: %d cells overlap content at %d", w.what, no, n, contentStart(d))
		return nil
	}
	for i := 0; i < n; i++ {
		if off := cellPtr(d, i); off < contentStart(d) || off >= PageSize {
			c.failf("%s: page %d: cell %d at offset %d", w.what, no, i, off)
			return nil
		}
	}
	if d[0] == leafFlag {
		if w.sawLeaf && w.nextLeaf != no {
			c.failf("%s: leaf chain points to page %d, next leaf in key order is %d", w.what, w.nextLeaf, no)
		}
		w.sawLeaf, w.nextLeaf = true, rightPtr(d)
		for i := 0; i < n; i++ {
			k := &treeKey{}
			cell := cellBytes(d, i)
			if w.t.isIndex {
				k.key, _ = parseIndexLeafCell(cell)
			} else {
				var total int
				var ovf uint32
				k.rowid, total, _, ovf, _ = parseTableLeafCell(cell)
				if total > maxLocal {
					if err := w.overflow(no, ovf, total-maxLocal); err != nil {
						return err
					}
				}
			}
			w.key(no, k, bound)
			w.entries++
		}
		return nil
	}
	for i := 0; i <= n; i++ {
		child, sep := rightPtr(d), bound
		if i < n {
			sep = &treeKey{}
			if w.t.isIndex {
				child, sep.key, _ = parseIndexInteriorCell(cellBytes(d, i))
			} else {
				child, sep.rowid, _ = parseTableInteriorCell(cellBytes(d, i))
			}
			if bound != nil && w.less(bound, sep) {
				c.failf("%s: page %d: separator %d exceeds its parent's", w.what, no, i)
			}
		}
		if err := w.page(child, sep); err != nil {
			return err
		}
	}
	return nil
}

// key checks one leaf key against the walk's order and its subtree bound.
func (w *treeWalk) key(no uint32, k, bound *treeKey) {
	if w.last != nil && !w.less(w.last, k) {
		w.c.failf("%s: page %d: key out of order", w.what, no)
	}
	if bound != nil && w.less(bound, k) {
		w.c.failf("%s: page %d: key exceeds its separator", w.what, no)
	}
	w.last = k
}

// overflow walks a chain that must hold exactly rest bytes.
func (w *treeWalk) overflow(leaf, head uint32, rest int) error {
	for head != 0 && w.c.claim(head, w.what+" overflow") {
		pg, err := w.c.p.Get(head)
		if err != nil {
			return err
		}
		rest -= int(binary.BigEndian.Uint16(pg.data[ovfLenOff:]))
		head = binary.BigEndian.Uint32(pg.data[ovfNextOff:])
		w.c.p.Unpin(pg)
	}
	if rest != 0 {
		w.c.failf("%s: page %d: overflow chain is off by %d bytes", w.what, leaf, -rest)
	}
	return nil
}
