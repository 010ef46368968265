package litedb

// Two ways to walk a tree in key order.
//
// Table trees are walked by Scan, which holds each leaf under one pin for
// as long as its rows are visited: a row costs one PageStore access, the
// leaf's Pager.Get for its first row and a Pager.touch for each other. The
// pin is released when the walk moves on or stops, so the walk must not
// mutate the tree (the executor materialises target rowids before
// UPDATE/DELETE for this reason).
//
// Index trees are walked by a Cursor, which stores (page, index) rather
// than pinning pages, so it stays valid across cache evictions; mutating
// the tree while a cursor is open invalidates it.

// Scan calls fn with every row of a table tree whose rowid is >= start,
// in rowid order, until fn returns false or an error, which Scan returns.
// payload aliases the page, or for an overflowing row a buffer the next
// row reuses: it is valid only until fn returns.
func (t *Tree) Scan(start int64, fn func(rowid int64, payload []byte) (bool, error)) error {
	pgNo := t.root
	var pg *Page
	for {
		p, err := t.pg.Get(pgNo)
		if err != nil {
			return err
		}
		if isLeaf(p.data) {
			pg = p
			break
		}
		_, child := t.interiorFind(p.data, start, nil)
		t.pg.Unpin(p)
		pgNo = child
	}
	idx, _ := t.leafFind(pg.data, start, nil)
	var ovf []byte
	fresh := true // the Get that pinned the leaf paid for its first row
	for {
		for n := cellCount(pg.data); idx < n; idx++ {
			if !fresh {
				t.pg.touch(pg)
			}
			fresh = false
			rowid, total, inline, head, _ := parseTableLeafCell(cellBytes(pg.data, idx))
			payload := inline
			if total > maxLocal {
				var err error
				if ovf, err = t.readOverflow(append(ovf[:0], inline...), head); err != nil {
					t.pg.Unpin(pg)
					return err
				}
				payload = ovf
			}
			if more, err := fn(rowid, payload); err != nil || !more {
				t.pg.Unpin(pg)
				return err
			}
		}
		next := rightPtr(pg.data)
		t.pg.Unpin(pg)
		if next == 0 {
			return nil
		}
		var err error
		if pg, err = t.pg.Get(next); err != nil {
			return err
		}
		idx, fresh = 0, true
	}
}

// Cursor iterates an index tree in key order.
type Cursor struct {
	t     *Tree
	pgNo  uint32
	idx   int
	valid bool
}

// Cursor returns a cursor positioned at the first entry.
func (t *Tree) Cursor() (*Cursor, error) {
	c := &Cursor{t: t}
	pgNo := t.root
	for {
		pg, err := t.pg.Get(pgNo)
		if err != nil {
			return nil, err
		}
		if isLeaf(pg.data) {
			t.pg.Unpin(pg)
			c.pgNo = pgNo
			c.idx = 0
			c.valid = true
			return c, c.skipEmpty()
		}
		child := rightPtr(pg.data)
		if cellCount(pg.data) > 0 {
			child, _, _ = parseIndexInteriorCell(cellBytes(pg.data, 0))
		}
		t.pg.Unpin(pg)
		pgNo = child
	}
}

// CursorKeyGE returns a cursor at the first entry with key >= target.
func (t *Tree) CursorKeyGE(key []byte) (*Cursor, error) {
	c := &Cursor{t: t}
	pgNo := t.root
	for {
		pg, err := t.pg.Get(pgNo)
		if err != nil {
			return nil, err
		}
		if isLeaf(pg.data) {
			idx, _ := t.leafFind(pg.data, 0, key)
			t.pg.Unpin(pg)
			c.pgNo = pgNo
			c.idx = idx
			c.valid = true
			return c, c.skipEmpty()
		}
		_, child := t.interiorFind(pg.data, 0, key)
		t.pg.Unpin(pg)
		pgNo = child
	}
}

// skipEmpty advances past exhausted leaves (including empty ones left by
// lazy deletion).
func (c *Cursor) skipEmpty() error {
	for c.valid {
		pg, err := c.t.pg.Get(c.pgNo)
		if err != nil {
			return err
		}
		n := cellCount(pg.data)
		next := rightPtr(pg.data)
		c.t.pg.Unpin(pg)
		if c.idx < n {
			return nil
		}
		if next == 0 {
			c.valid = false
			return nil
		}
		c.pgNo = next
		c.idx = 0
	}
	return nil
}

// Valid reports whether the cursor points at an entry.
func (c *Cursor) Valid() bool { return c.valid }

// Next advances to the following entry.
func (c *Cursor) Next() error {
	if !c.valid {
		return nil
	}
	c.idx++
	return c.skipEmpty()
}

// Key returns a copy of the current index-tree key.
func (c *Cursor) Key() ([]byte, error) {
	pg, err := c.t.pg.Get(c.pgNo)
	if err != nil {
		return nil, err
	}
	defer c.t.pg.Unpin(pg)
	k, _ := parseIndexLeafCell(cellBytes(pg.data, c.idx))
	return append([]byte(nil), k...), nil
}
