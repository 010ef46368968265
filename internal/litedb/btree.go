package litedb

import (
	"encoding/binary"
	"fmt"
)

// B+tree pages. Layout within a 4 KiB page:
//
//	byte  0      flags (leaf/interior, table/index)
//	bytes 1-2    cell count (big endian)
//	bytes 3-4    content start (cells grow down from the end; 0 = PageSize)
//	bytes 5-8    rightmost child (interior) or next leaf (leaf, 0 = none)
//	bytes 9-11   reserved
//	bytes 12..   cell pointer array (u16 offsets, sorted by key)
//
// Table trees key on the 64-bit rowid; index trees key on a serialised
// record whose last column is the rowid. Payloads larger than maxLocal
// spill into an overflow page chain, as SQLite's do.
const (
	flagTableLeaf     = 1
	flagTableInterior = 2
	flagIndexLeaf     = 5
	flagIndexInterior = 6

	pgCountOff   = 1
	pgContentOff = 3
	pgRightOff   = 5
	pgHdrSize    = 12

	// maxLocal is the largest inline payload; bigger payloads overflow.
	// Chosen so a page always holds at least two cells.
	maxLocal = 1500

	// maxIndexKey bounds index keys (separator keys stay inline).
	maxIndexKey = 1024

	// Overflow page layout: u32 next, u16 length, data.
	ovfNextOff = 0
	ovfLenOff  = 4
	ovfHdr     = 6
	ovfCap     = PageSize - ovfHdr
)

// ErrKeyTooLarge reports an index key above maxIndexKey.
var ErrKeyTooLarge = fmt.Errorf("litedb: index key exceeds %d bytes", maxIndexKey)

// Tree is a B+tree rooted at a fixed page.
type Tree struct {
	pg      *Pager
	root    uint32
	isIndex bool
}

// CreateTree allocates an empty tree and returns it (transaction must be
// open).
func CreateTree(pg *Pager, isIndex bool) (*Tree, error) {
	root, err := pg.Alloc()
	if err != nil {
		return nil, err
	}
	initLeaf(root.data, isIndex)
	no := root.no
	pg.Unpin(root)
	return &Tree{pg: pg, root: no, isIndex: isIndex}, nil
}

// OpenTree attaches to an existing tree.
func OpenTree(pg *Pager, root uint32, isIndex bool) *Tree {
	return &Tree{pg: pg, root: root, isIndex: isIndex}
}

// Root returns the root page number.
func (t *Tree) Root() uint32 { return t.root }

func initLeaf(data []byte, isIndex bool) {
	clearBytes(data)
	if isIndex {
		data[0] = flagIndexLeaf
	} else {
		data[0] = flagTableLeaf
	}
	binary.BigEndian.PutUint16(data[pgContentOff:], 0) // 0 == PageSize
}

func initInterior(data []byte, isIndex bool) {
	clearBytes(data)
	if isIndex {
		data[0] = flagIndexInterior
	} else {
		data[0] = flagTableInterior
	}
	binary.BigEndian.PutUint16(data[pgContentOff:], 0)
}

// --- page primitives ---

func cellCount(d []byte) int { return int(binary.BigEndian.Uint16(d[pgCountOff:])) }

func setCellCount(d []byte, n int) { binary.BigEndian.PutUint16(d[pgCountOff:], uint16(n)) }

func contentStart(d []byte) int {
	v := int(binary.BigEndian.Uint16(d[pgContentOff:]))
	if v == 0 {
		return PageSize
	}
	return v
}

func setContentStart(d []byte, v int) {
	if v == PageSize {
		v = 0
	}
	binary.BigEndian.PutUint16(d[pgContentOff:], uint16(v))
}

func rightPtr(d []byte) uint32 { return binary.BigEndian.Uint32(d[pgRightOff:]) }

func setRightPtr(d []byte, v uint32) { binary.BigEndian.PutUint32(d[pgRightOff:], v) }

func isLeaf(d []byte) bool { return d[0] == flagTableLeaf || d[0] == flagIndexLeaf }

func cellPtr(d []byte, i int) int {
	return int(binary.BigEndian.Uint16(d[pgHdrSize+2*i:]))
}

func setCellPtr(d []byte, i, off int) {
	binary.BigEndian.PutUint16(d[pgHdrSize+2*i:], uint16(off))
}

func freeSpace(d []byte) int {
	return contentStart(d) - (pgHdrSize + 2*cellCount(d))
}

// addCell inserts raw cell bytes at position idx, assuming space checked.
func addCell(d []byte, idx int, cell []byte) {
	n := cellCount(d)
	top := contentStart(d) - len(cell)
	copy(d[top:], cell)
	copy(d[pgHdrSize+2*(idx+1):pgHdrSize+2*(n+1)], d[pgHdrSize+2*idx:pgHdrSize+2*n])
	setCellPtr(d, idx, top)
	setCellCount(d, n+1)
	setContentStart(d, top)
}

// removeCell drops the pointer at idx (content space is reclaimed only by
// defragmentation).
func removeCell(d []byte, idx int) {
	n := cellCount(d)
	copy(d[pgHdrSize+2*idx:pgHdrSize+2*(n-1)], d[pgHdrSize+2*(idx+1):pgHdrSize+2*n])
	setCellCount(d, n-1)
}

// cellBytes returns the raw cell at idx. The length is recovered by
// parsing, so callers pass a parse function; to keep things simple we
// return the page tail from the cell start — parsers must not over-read.
func cellBytes(d []byte, i int) []byte { return d[cellPtr(d, i):] }

// defragment rewrites all cells tightly packed.
func defragment(d []byte, cellLen func(c []byte) int) {
	n := cellCount(d)
	type cellCopy struct{ b []byte }
	cells := make([][]byte, n)
	for i := 0; i < n; i++ {
		c := cellBytes(d, i)
		l := cellLen(c)
		cells[i] = append([]byte(nil), c[:l]...)
	}
	top := PageSize
	for i := n - 1; i >= 0; i-- {
		top -= len(cells[i])
		copy(d[top:], cells[i])
		setCellPtr(d, i, top)
	}
	setContentStart(d, top)
}

// --- cell codecs ---

// Table leaf cell: rowid uvarint | total payload len uvarint | inline
// payload | [u32 overflow head].
func encodeTableLeafCell(dst []byte, rowid int64, payload []byte, ovf uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(rowid))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	inline := len(payload)
	if inline > maxLocal {
		inline = maxLocal
	}
	dst = append(dst, payload[:inline]...)
	if len(payload) > maxLocal {
		dst = binary.BigEndian.AppendUint32(dst, ovf)
	}
	return dst
}

func parseTableLeafCell(c []byte) (rowid int64, total int, inline []byte, ovf uint32, size int) {
	r, n1 := binary.Uvarint(c)
	tl, n2 := binary.Uvarint(c[n1:])
	total = int(tl)
	inl := total
	if inl > maxLocal {
		inl = maxLocal
	}
	off := n1 + n2
	inline = c[off : off+inl]
	size = off + inl
	if total > maxLocal {
		ovf = binary.BigEndian.Uint32(c[size:])
		size += 4
	}
	return int64(r), total, inline, ovf, size
}

func tableLeafCellLen(c []byte) int {
	_, _, _, _, n := parseTableLeafCell(c)
	return n
}

// Table interior cell: u32 child | rowid uvarint. Subtree at child holds
// rowids <= separator.
func encodeTableInteriorCell(dst []byte, child uint32, sep int64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, child)
	return binary.AppendUvarint(dst, uint64(sep))
}

func parseTableInteriorCell(c []byte) (child uint32, sep int64, size int) {
	child = binary.BigEndian.Uint32(c)
	s, n := binary.Uvarint(c[4:])
	return child, int64(s), 4 + n
}

func tableInteriorCellLen(c []byte) int {
	_, _, n := parseTableInteriorCell(c)
	return n
}

// Index leaf cell: key len uvarint | key. Index interior: u32 child | key
// len uvarint | key.
func encodeIndexLeafCell(dst []byte, key []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

func parseIndexLeafCell(c []byte) (key []byte, size int) {
	kl, n := binary.Uvarint(c)
	return c[n : n+int(kl)], n + int(kl)
}

func indexLeafCellLen(c []byte) int {
	_, n := parseIndexLeafCell(c)
	return n
}

func encodeIndexInteriorCell(dst []byte, child uint32, key []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, child)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

func parseIndexInteriorCell(c []byte) (child uint32, key []byte, size int) {
	child = binary.BigEndian.Uint32(c)
	kl, n := binary.Uvarint(c[4:])
	return child, c[4+n : 4+n+int(kl)], 4 + n + int(kl)
}

func indexInteriorCellLen(c []byte) int {
	_, _, n := parseIndexInteriorCell(c)
	return n
}

func (t *Tree) leafCellLen() func([]byte) int {
	if t.isIndex {
		return indexLeafCellLen
	}
	return tableLeafCellLen
}

func (t *Tree) interiorCellLen() func([]byte) int {
	if t.isIndex {
		return indexInteriorCellLen
	}
	return tableInteriorCellLen
}

// --- overflow chains ---

// writeOverflow stores payload[maxLocal:] in a page chain, returning its
// head page number.
func (t *Tree) writeOverflow(rest []byte) (uint32, error) {
	var head, prev uint32
	for len(rest) > 0 {
		pg, err := t.pg.Alloc()
		if err != nil {
			return 0, err
		}
		n := len(rest)
		if n > ovfCap {
			n = ovfCap
		}
		binary.BigEndian.PutUint16(pg.data[ovfLenOff:], uint16(n))
		copy(pg.data[ovfHdr:], rest[:n])
		rest = rest[n:]
		if head == 0 {
			head = pg.no
		} else {
			prevPg, err := t.pg.Get(prev)
			if err != nil {
				t.pg.Unpin(pg)
				return 0, err
			}
			if err := t.pg.Write(prevPg); err != nil {
				t.pg.Unpin(prevPg)
				t.pg.Unpin(pg)
				return 0, err
			}
			binary.BigEndian.PutUint32(prevPg.data[ovfNextOff:], pg.no)
			t.pg.Unpin(prevPg)
		}
		prev = pg.no
		t.pg.Unpin(pg)
	}
	return head, nil
}

// readOverflow appends the chain contents to dst.
func (t *Tree) readOverflow(dst []byte, head uint32) ([]byte, error) {
	for head != 0 {
		pg, err := t.pg.Get(head)
		if err != nil {
			return nil, err
		}
		n := int(binary.BigEndian.Uint16(pg.data[ovfLenOff:]))
		dst = append(dst, pg.data[ovfHdr:ovfHdr+n]...)
		head = binary.BigEndian.Uint32(pg.data[ovfNextOff:])
		t.pg.Unpin(pg)
	}
	return dst, nil
}

// freeOverflow releases a chain.
func (t *Tree) freeOverflow(head uint32) error {
	for head != 0 {
		pg, err := t.pg.Get(head)
		if err != nil {
			return err
		}
		next := binary.BigEndian.Uint32(pg.data[ovfNextOff:])
		t.pg.Unpin(pg)
		if err := t.pg.Free(head); err != nil {
			return err
		}
		head = next
	}
	return nil
}

// --- search helpers ---

// leafFind returns the first cell index whose key >= target and whether an
// exact match was found.
func (t *Tree) leafFind(d []byte, rowid int64, key []byte) (int, bool) {
	lo, hi := 0, cellCount(d)
	for lo < hi {
		mid := (lo + hi) / 2
		c := cellBytes(d, mid)
		var cmp int
		if t.isIndex {
			k, _ := parseIndexLeafCell(c)
			cmp = CompareRecords(k, key)
		} else {
			r, _, _, _, _ := parseTableLeafCell(c)
			switch {
			case r < rowid:
				cmp = -1
			case r > rowid:
				cmp = 1
			}
		}
		if cmp < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < cellCount(d) {
		c := cellBytes(d, lo)
		if t.isIndex {
			k, _ := parseIndexLeafCell(c)
			return lo, CompareRecords(k, key) == 0
		}
		r, _, _, _, _ := parseTableLeafCell(c)
		return lo, r == rowid
	}
	return lo, false
}

// interiorFind returns the child page to descend into for the target.
func (t *Tree) interiorFind(d []byte, rowid int64, key []byte) (childIdx int, child uint32) {
	lo, hi := 0, cellCount(d)
	for lo < hi {
		mid := (lo + hi) / 2
		c := cellBytes(d, mid)
		var cmp int
		if t.isIndex {
			_, k, _ := parseIndexInteriorCell(c)
			cmp = CompareRecords(k, key)
		} else {
			_, sep, _ := parseTableInteriorCell(c)
			switch {
			case sep < rowid:
				cmp = -1
			case sep > rowid:
				cmp = 1
			}
		}
		if cmp < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == cellCount(d) {
		return lo, rightPtr(d)
	}
	c := cellBytes(d, lo)
	if t.isIndex {
		ch, _, _ := parseIndexInteriorCell(c)
		return lo, ch
	}
	ch, _, _ := parseTableInteriorCell(c)
	return lo, ch
}

// maxKeyOf returns the separator key for the last cell of a page (leaf or
// interior) — the key promoted to the parent after a split.
func (t *Tree) maxKeyOf(d []byte) (int64, []byte) {
	n := cellCount(d)
	c := cellBytes(d, n-1)
	if isLeaf(d) {
		if t.isIndex {
			k, _ := parseIndexLeafCell(c)
			return 0, append([]byte(nil), k...)
		}
		r, _, _, _, _ := parseTableLeafCell(c)
		return r, nil
	}
	if t.isIndex {
		_, k, _ := parseIndexInteriorCell(c)
		return 0, append([]byte(nil), k...)
	}
	_, sep, _ := parseTableInteriorCell(c)
	return sep, nil
}

// splitResult describes a page split to the parent.
type splitResult struct {
	sepRowid int64
	sepKey   []byte
	right    uint32
}

// --- insert ---

// Insert stores (rowid, payload) in a table tree, replacing any existing
// row with the same rowid.
func (t *Tree) Insert(rowid int64, payload []byte) error {
	if t.isIndex {
		return fmt.Errorf("litedb: Insert on index tree")
	}
	return t.insertTop(rowid, nil, payload)
}

// InsertKey stores key in an index tree (idempotent for duplicate keys).
func (t *Tree) InsertKey(key []byte) error {
	if !t.isIndex {
		return fmt.Errorf("litedb: InsertKey on table tree")
	}
	if len(key) > maxIndexKey {
		return ErrKeyTooLarge
	}
	return t.insertTop(0, key, nil)
}

func (t *Tree) insertTop(rowid int64, key, payload []byte) error {
	sp, err := t.insertRec(t.root, rowid, key, payload)
	if err != nil {
		return err
	}
	if sp == nil {
		return nil
	}
	// Root split: keep the root page number stable by moving its (low)
	// content to a fresh page and re-initialising the root as interior.
	root, err := t.pg.Get(t.root)
	if err != nil {
		return err
	}
	defer t.pg.Unpin(root)
	left, err := t.pg.Alloc()
	if err != nil {
		return err
	}
	defer t.pg.Unpin(left)
	if err := t.pg.Write(left); err != nil {
		return err
	}
	copy(left.data, root.data)
	if err := t.pg.Write(root); err != nil {
		return err
	}
	initInterior(root.data, t.isIndex)
	var cell []byte
	if t.isIndex {
		cell = encodeIndexInteriorCell(nil, left.no, sp.sepKey)
	} else {
		cell = encodeTableInteriorCell(nil, left.no, sp.sepRowid)
	}
	addCell(root.data, 0, cell)
	setRightPtr(root.data, sp.right)
	return nil
}

func (t *Tree) insertRec(pgNo uint32, rowid int64, key, payload []byte) (*splitResult, error) {
	pg, err := t.pg.Get(pgNo)
	if err != nil {
		return nil, err
	}
	defer t.pg.Unpin(pg)

	if isLeaf(pg.data) {
		return t.leafInsert(pg, rowid, key, payload)
	}

	idx, child := t.interiorFind(pg.data, rowid, key)
	sp, err := t.insertRec(child, rowid, key, payload)
	if err != nil {
		return nil, err
	}
	if sp == nil {
		return nil, nil
	}
	// Child split: child kept the low half (keys <= sep), sp.right holds
	// the high half. Insert (child, sep) at idx; the slot that used to
	// point at child now points at sp.right.
	if err := t.pg.Write(pg); err != nil {
		return nil, err
	}
	if idx == cellCount(pg.data) {
		setRightPtr(pg.data, sp.right)
	} else {
		c := cellBytes(pg.data, idx)
		if t.isIndex {
			_, k, _ := parseIndexInteriorCell(c)
			binary.BigEndian.PutUint32(c, sp.right)
			_ = k
		} else {
			binary.BigEndian.PutUint32(c, sp.right)
		}
	}
	var cell []byte
	if t.isIndex {
		cell = encodeIndexInteriorCell(nil, child, sp.sepKey)
	} else {
		cell = encodeTableInteriorCell(nil, child, sp.sepRowid)
	}
	return t.addCellSplitting(pg, idx, cell, false)
}

// leafInsert places the entry into a leaf, handling replace, overflow and
// splits.
func (t *Tree) leafInsert(pg *Page, rowid int64, key, payload []byte) (*splitResult, error) {
	idx, exact := t.leafFind(pg.data, rowid, key)
	if exact {
		if t.isIndex {
			return nil, nil // index keys are unique by construction
		}
		// Replace: remove the old cell (and overflow) first.
		c := cellBytes(pg.data, idx)
		_, total, _, ovf, _ := parseTableLeafCell(c)
		if total > maxLocal {
			if err := t.freeOverflow(ovf); err != nil {
				return nil, err
			}
		}
		if err := t.pg.Write(pg); err != nil {
			return nil, err
		}
		removeCell(pg.data, idx)
	}

	var cell []byte
	if t.isIndex {
		cell = encodeIndexLeafCell(nil, key)
	} else {
		var ovf uint32
		if len(payload) > maxLocal {
			var err error
			ovf, err = t.writeOverflow(payload[maxLocal:])
			if err != nil {
				return nil, err
			}
		}
		cell = encodeTableLeafCell(nil, rowid, payload, ovf)
	}
	return t.addCellSplitting(pg, idx, cell, true)
}

// addCellSplitting inserts a raw cell at idx, defragmenting and splitting
// as needed. It returns split information for the parent when the page
// divides.
func (t *Tree) addCellSplitting(pg *Page, idx int, cell []byte, leaf bool) (*splitResult, error) {
	if err := t.pg.Write(pg); err != nil {
		return nil, err
	}
	if freeSpace(pg.data) >= len(cell)+2 {
		addCell(pg.data, idx, cell)
		return nil, nil
	}
	cellLen := t.interiorCellLen()
	if leaf {
		cellLen = t.leafCellLen()
	}
	// Try reclaiming fragmented space first.
	if t.fragmentedSpace(pg.data, cellLen) >= len(cell)+2 {
		defragment(pg.data, cellLen)
		if freeSpace(pg.data) >= len(cell)+2 {
			addCell(pg.data, idx, cell)
			return nil, nil
		}
	}
	return t.splitAndInsert(pg, idx, cell, leaf, cellLen)
}

// fragmentedSpace estimates total reclaimable space.
func (t *Tree) fragmentedSpace(d []byte, cellLen func([]byte) int) int {
	used := pgHdrSize + 2*cellCount(d)
	for i := 0; i < cellCount(d); i++ {
		used += cellLen(cellBytes(d, i))
	}
	return PageSize - used
}

// splitAndInsert divides pg's cells (plus the pending one) between pg and
// a fresh right sibling, balanced by bytes. One split is not balanced: when
// pg is the last leaf of the tree (no next leaf) and the new cell goes after
// all of its cells, the cell is the largest key in the tree, so pg keeps
// its n cells and the new cell opens the right sibling alone. This is
// SQLite's balance_quick: a rowid-ordered load, or an index built from
// ascending keys, fills every leaf instead of leaving each one half full,
// and the sealed file holds a third fewer pages.
func (t *Tree) splitAndInsert(pg *Page, idx int, cell []byte, leaf bool, cellLen func([]byte) int) (*splitResult, error) {
	n := cellCount(pg.data)
	cells := make([][]byte, 0, n+1)
	for i := 0; i < n; i++ {
		c := cellBytes(pg.data, i)
		cells = append(cells, append([]byte(nil), c[:cellLen(c)]...))
	}
	cells = append(cells[:idx], append([][]byte{append([]byte(nil), cell...)}, cells[idx:]...)...)

	// Balance by bytes.
	var totalBytes int
	for _, c := range cells {
		totalBytes += len(c) + 2
	}
	var acc, mid int
	for i, c := range cells {
		acc += len(c) + 2
		if acc >= totalBytes/2 {
			mid = i + 1
			break
		}
	}
	if mid == 0 {
		mid = 1
	}
	if mid >= len(cells) {
		mid = len(cells) - 1
	}
	if leaf && idx == n && rightPtr(pg.data) == 0 {
		mid = n
	}

	right, err := t.pg.Alloc()
	if err != nil {
		return nil, err
	}
	defer t.pg.Unpin(right)
	if err := t.pg.Write(right); err != nil {
		return nil, err
	}

	sp := &splitResult{right: right.no}
	if leaf {
		initLeaf(right.data, t.isIndex)
		setRightPtr(right.data, rightPtr(pg.data)) // next-leaf chain
		oldFlag := pg.data[0]
		next := right.no
		// Rebuild left.
		if t.isIndex {
			initLeaf(pg.data, true)
		} else {
			initLeaf(pg.data, false)
		}
		pg.data[0] = oldFlag
		setRightPtr(pg.data, next)
		for i, c := range cells {
			if i < mid {
				addCell(pg.data, cellCount(pg.data), c)
			} else {
				addCell(right.data, cellCount(right.data), c)
			}
		}
		sp.sepRowid, sp.sepKey = t.maxKeyOf(pg.data)
		return sp, nil
	}

	// Interior split: the cell at mid-1 is promoted; its child becomes
	// the left page's rightmost pointer.
	initInterior(right.data, t.isIndex)
	setRightPtr(right.data, rightPtr(pg.data))
	promoted := cells[mid-1]
	var promotedChild uint32
	if t.isIndex {
		ch, k, _ := parseIndexInteriorCell(promoted)
		promotedChild = ch
		sp.sepKey = append([]byte(nil), k...)
	} else {
		ch, sep, _ := parseTableInteriorCell(promoted)
		promotedChild = ch
		sp.sepRowid = sep
	}
	initInterior(pg.data, t.isIndex)
	setRightPtr(pg.data, promotedChild)
	for i, c := range cells {
		switch {
		case i < mid-1:
			addCell(pg.data, cellCount(pg.data), c)
		case i == mid-1:
			// promoted
		default:
			addCell(right.data, cellCount(right.data), c)
		}
	}
	return sp, nil
}

// --- point lookups ---

// Get fetches the payload for rowid from a table tree.
func (t *Tree) Get(rowid int64) ([]byte, bool, error) {
	pgNo := t.root
	for {
		pg, err := t.pg.Get(pgNo)
		if err != nil {
			return nil, false, err
		}
		if isLeaf(pg.data) {
			idx, exact := t.leafFind(pg.data, rowid, nil)
			if !exact {
				t.pg.Unpin(pg)
				return nil, false, nil
			}
			c := cellBytes(pg.data, idx)
			_, total, inline, ovf, _ := parseTableLeafCell(c)
			out := append([]byte(nil), inline...)
			t.pg.Unpin(pg)
			if total > maxLocal {
				out, err = t.readOverflow(out, ovf)
				if err != nil {
					return nil, false, err
				}
			}
			return out, true, nil
		}
		_, child := t.interiorFind(pg.data, rowid, nil)
		t.pg.Unpin(pg)
		pgNo = child
	}
}

// HasKey reports whether an index tree contains key.
func (t *Tree) HasKey(key []byte) (bool, error) {
	pgNo := t.root
	for {
		pg, err := t.pg.Get(pgNo)
		if err != nil {
			return false, err
		}
		if isLeaf(pg.data) {
			_, exact := t.leafFind(pg.data, 0, key)
			t.pg.Unpin(pg)
			return exact, nil
		}
		_, child := t.interiorFind(pg.data, 0, key)
		t.pg.Unpin(pg)
		pgNo = child
	}
}

// MaxRowid returns the largest rowid in a table tree (0 when empty).
func (t *Tree) MaxRowid() (int64, error) {
	pgNo := t.root
	for {
		pg, err := t.pg.Get(pgNo)
		if err != nil {
			return 0, err
		}
		if isLeaf(pg.data) {
			n := cellCount(pg.data)
			if n == 0 {
				// Rightmost leaf can be empty after deletes; walk is
				// bounded because empty non-rightmost leaves keep their
				// next pointers.
				t.pg.Unpin(pg)
				return t.maxRowidScan()
			}
			r, _, _, _, _ := parseTableLeafCell(cellBytes(pg.data, n-1))
			t.pg.Unpin(pg)
			return r, nil
		}
		child := rightPtr(pg.data)
		t.pg.Unpin(pg)
		pgNo = child
	}
}

// maxRowidScan is the slow path when the rightmost leaf is empty.
func (t *Tree) maxRowidScan() (int64, error) {
	var max int64
	err := t.Scan(-1<<63, func(rowid int64, _ []byte) (bool, error) {
		if rowid > max {
			max = rowid
		}
		return true, nil
	})
	return max, err
}

// --- delete ---

// Delete removes rowid from a table tree. Pages are not rebalanced (lazy
// deletion); empty leaves remain linked until the table is dropped.
func (t *Tree) Delete(rowid int64) (bool, error) {
	pgNo := t.root
	for {
		pg, err := t.pg.Get(pgNo)
		if err != nil {
			return false, err
		}
		if isLeaf(pg.data) {
			idx, exact := t.leafFind(pg.data, rowid, nil)
			if !exact {
				t.pg.Unpin(pg)
				return false, nil
			}
			c := cellBytes(pg.data, idx)
			_, total, _, ovf, _ := parseTableLeafCell(c)
			if err := t.pg.Write(pg); err != nil {
				t.pg.Unpin(pg)
				return false, err
			}
			removeCell(pg.data, idx)
			t.pg.Unpin(pg)
			if total > maxLocal {
				if err := t.freeOverflow(ovf); err != nil {
					return false, err
				}
			}
			return true, nil
		}
		_, child := t.interiorFind(pg.data, rowid, nil)
		t.pg.Unpin(pg)
		pgNo = child
	}
}

// DeleteKey removes a key from an index tree.
func (t *Tree) DeleteKey(key []byte) (bool, error) {
	pgNo := t.root
	for {
		pg, err := t.pg.Get(pgNo)
		if err != nil {
			return false, err
		}
		if isLeaf(pg.data) {
			idx, exact := t.leafFind(pg.data, 0, key)
			if !exact {
				t.pg.Unpin(pg)
				return false, nil
			}
			if err := t.pg.Write(pg); err != nil {
				t.pg.Unpin(pg)
				return false, err
			}
			removeCell(pg.data, idx)
			t.pg.Unpin(pg)
			return true, nil
		}
		_, child := t.interiorFind(pg.data, 0, key)
		t.pg.Unpin(pg)
		pgNo = child
	}
}

// Drop frees every page of the tree except the root, which is reset to an
// empty leaf (DROP TABLE reuses it via the freelist path in the catalog).
func (t *Tree) Drop() error {
	if err := t.dropRec(t.root); err != nil {
		return err
	}
	root, err := t.pg.Get(t.root)
	if err != nil {
		return err
	}
	defer t.pg.Unpin(root)
	if err := t.pg.Write(root); err != nil {
		return err
	}
	initLeaf(root.data, t.isIndex)
	return nil
}

func (t *Tree) dropRec(pgNo uint32) error {
	pg, err := t.pg.Get(pgNo)
	if err != nil {
		return err
	}
	leaf := isLeaf(pg.data)
	n := cellCount(pg.data)
	var children []uint32
	var overflows []uint32
	if leaf {
		if !t.isIndex {
			for i := 0; i < n; i++ {
				_, total, _, ovf, _ := parseTableLeafCell(cellBytes(pg.data, i))
				if total > maxLocal {
					overflows = append(overflows, ovf)
				}
			}
		}
	} else {
		for i := 0; i < n; i++ {
			c := cellBytes(pg.data, i)
			if t.isIndex {
				ch, _, _ := parseIndexInteriorCell(c)
				children = append(children, ch)
			} else {
				ch, _, _ := parseTableInteriorCell(c)
				children = append(children, ch)
			}
		}
		children = append(children, rightPtr(pg.data))
	}
	t.pg.Unpin(pg)
	for _, ovf := range overflows {
		if err := t.freeOverflow(ovf); err != nil {
			return err
		}
	}
	for _, ch := range children {
		if err := t.dropRec(ch); err != nil {
			return err
		}
	}
	if pgNo != t.root {
		return t.pg.Free(pgNo)
	}
	return nil
}

// FreeRoot releases the root page itself (used when dropping a table or
// index entirely).
func (t *Tree) FreeRoot() error {
	if err := t.Drop(); err != nil {
		return err
	}
	return t.pg.Free(t.root)
}
