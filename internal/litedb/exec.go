package litedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
)

// --- schema lookups ---

func (db *DB) table(name string) (*TableSchema, error) {
	ts, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("litedb: no such table: %s", name)
	}
	return ts, nil
}

// --- row codec helpers ---

// encodeRow serialises a table row; the rowid-aliasing column is stored as
// NULL (the rowid itself is the key), as SQLite does.
func (ts *TableSchema) encodeRow(vals []Value) []byte {
	if ts.RowidPK >= 0 {
		saved := vals[ts.RowidPK]
		vals[ts.RowidPK] = NullVal()
		rec := EncodeRecord(nil, vals)
		vals[ts.RowidPK] = saved
		return rec
	}
	return EncodeRecord(nil, vals)
}

// decodeRow decodes the stored row rec into row, which has one slot per
// column of the table. With need nil every column is decoded; otherwise
// only the columns i < len(need) with need[i] set are, and the other slots
// keep what they held. Columns added by ALTER TABLE after the row was
// stored take their default, and the rowid-aliasing column the rowid. No
// value aliases rec (text and blobs are copied), so rec may be page
// memory and row may be reused for the next row.
func (ts *TableSchema) decodeRow(row []Value, rowid int64, rec []byte, need []bool) error {
	last := len(row)
	if need != nil {
		last = len(need)
	}
	hl, n := binary.Uvarint(rec)
	if n <= 0 || hl > uint64(len(rec)) || hl < uint64(n) {
		return fmt.Errorf("%w: bad record header", ErrCorrupt)
	}
	hdr, body := rec[n:hl], rec[hl:]
	i := 0
	for ; i < last && len(hdr) > 0; i++ {
		st, sn := binary.Uvarint(hdr)
		if sn <= 0 {
			return fmt.Errorf("%w: bad serial type", ErrCorrupt)
		}
		hdr = hdr[sn:]
		if need != nil && !need[i] {
			size, ok := serialSize(st)
			if !ok || size > uint64(len(body)) {
				return fmt.Errorf("%w: bad record body", ErrCorrupt)
			}
			body = body[size:]
			continue
		}
		v, size, err := decodeSerial(st, body)
		if err != nil {
			return err
		}
		if v.typ == Blob {
			v.b = bytes.Clone(v.b)
		}
		row[i] = v
		body = body[size:]
	}
	for ; i < last; i++ {
		if need != nil && !need[i] {
			continue
		}
		if d := ts.Cols[i].Default; d != nil {
			row[i] = *d
		} else {
			row[i] = NullVal()
		}
	}
	if ts.RowidPK >= 0 {
		row[ts.RowidPK] = IntVal(rowid)
	}
	return nil
}

// indexKey builds the index entry for a row: indexed values plus rowid.
func (idx *IndexSchema) indexKey(row []Value, rowid int64) []byte {
	vals := make([]Value, 0, len(idx.ColIdxs)+1)
	for _, ci := range idx.ColIdxs {
		vals = append(vals, row[ci])
	}
	vals = append(vals, IntVal(rowid))
	return EncodeRecord(nil, vals)
}

// --- row mutation with index maintenance ---

func (db *DB) treeOf(ts *TableSchema) *Tree {
	return OpenTree(db.pager, ts.Root, false)
}

func (db *DB) idxTreeOf(idx *IndexSchema) *Tree {
	return OpenTree(db.pager, idx.Root, true)
}

// checkUnique probes unique indexes for a conflicting row, returning its
// rowid (or 0).
func (db *DB) checkUnique(ts *TableSchema, idx *IndexSchema, row []Value) (int64, error) {
	vals := make([]Value, 0, len(idx.ColIdxs))
	for _, ci := range idx.ColIdxs {
		v := row[ci]
		if v.IsNull() {
			return 0, nil // NULLs never conflict
		}
		vals = append(vals, v)
	}
	prefix := EncodeRecord(nil, vals)
	cur, err := db.idxTreeOf(idx).CursorKeyGE(prefix)
	if err != nil {
		return 0, err
	}
	if !cur.Valid() {
		return 0, nil
	}
	key, err := cur.Key()
	if err != nil {
		return 0, err
	}
	kvals, err := DecodeRecord(key)
	if err != nil {
		return 0, err
	}
	if len(kvals) != len(vals)+1 {
		return 0, nil
	}
	for i := range vals {
		if Compare(kvals[i], vals[i]) != 0 {
			return 0, nil
		}
	}
	return kvals[len(vals)].Int(), nil
}

// insertRow writes a fully materialised row, enforcing constraints.
func (db *DB) insertRow(ts *TableSchema, rowid int64, row []Value, orReplace bool) error {
	for i, c := range ts.Cols {
		if c.NotNull && row[i].IsNull() && i != ts.RowidPK {
			return fmt.Errorf("litedb: NOT NULL constraint failed: %s.%s", ts.Name, c.Name)
		}
	}
	tree := db.treeOf(ts)
	if _, exists, err := tree.Get(rowid); err != nil {
		return err
	} else if exists {
		if !orReplace {
			return fmt.Errorf("litedb: UNIQUE constraint failed: %s.rowid", ts.Name)
		}
		if err := db.deleteRowByID(ts, rowid); err != nil {
			return err
		}
	}
	for _, idx := range ts.Indexes {
		if !idx.Unique {
			continue
		}
		conflict, err := db.checkUnique(ts, idx, row)
		if err != nil {
			return err
		}
		if conflict != 0 && conflict != rowid {
			if !orReplace {
				return fmt.Errorf("litedb: UNIQUE constraint failed: %s", idx.Name)
			}
			if err := db.deleteRowByID(ts, conflict); err != nil {
				return err
			}
		}
	}
	if err := tree.Insert(rowid, ts.encodeRow(row)); err != nil {
		return err
	}
	for _, idx := range ts.Indexes {
		if err := db.idxTreeOf(idx).InsertKey(idx.indexKey(row, rowid)); err != nil {
			return err
		}
	}
	if rowid > ts.lastRowid {
		ts.lastRowid = rowid
	}
	db.lastInsert = rowid
	return nil
}

// deleteRowByID removes a row and its index entries.
func (db *DB) deleteRowByID(ts *TableSchema, rowid int64) error {
	tree := db.treeOf(ts)
	payload, ok, err := tree.Get(rowid)
	if err != nil || !ok {
		return err
	}
	row := make([]Value, len(ts.Cols))
	if err := ts.decodeRow(row, rowid, payload, nil); err != nil {
		return err
	}
	for _, idx := range ts.Indexes {
		if _, err := db.idxTreeOf(idx).DeleteKey(idx.indexKey(row, rowid)); err != nil {
			return err
		}
	}
	_, err = tree.Delete(rowid)
	return err
}

// nextRowid assigns an automatic rowid.
func (db *DB) nextRowid(ts *TableSchema) (int64, error) {
	if ts.lastRowid == 0 {
		max, err := db.treeOf(ts).MaxRowid()
		if err != nil {
			return 0, err
		}
		ts.lastRowid = max
	}
	ts.lastRowid++
	return ts.lastRowid, nil
}

// --- access planning ---

type pathKind int

const (
	pathFull pathKind = iota
	pathRowidEq
	pathRowidRange
	pathIndexEq
)

// accessPath is the chosen way to enumerate one FROM source.
type accessPath struct {
	kind     pathKind
	eq       Expr // rowid/index probe expression
	idx      *IndexSchema
	lo, hi   Expr // rowid range bounds (nil = open)
	loStrict bool
	hiStrict bool
	// loCond and hiCond index the conjuncts that set lo and hi (-1: none,
	// or a BETWEEN, which always keeps its per-row check).
	loCond, hiCond int
}

// splitConjuncts flattens an AND tree.
func splitConjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		out = splitConjuncts(b.L, out)
		return splitConjuncts(b.R, out)
	}
	if e != nil {
		out = append(out, e)
	}
	return out
}

// maxSrcOf returns the highest source index referenced (-1 for none).
func maxSrcOf(e Expr) int {
	max := -1
	walkExpr(e, func(e Expr) bool {
		if cr, ok := e.(*ColRef); ok && cr.bound && cr.src > max {
			max = cr.src
		}
		return true
	})
	return max
}

// isRowidRef reports whether e is a rowid reference of source src.
func isRowidRef(e Expr, src int) bool {
	cr, ok := e.(*ColRef)
	return ok && cr.bound && cr.src == src && cr.col == -1
}

// colOf returns (colIdx, true) when e is a plain column of source src.
func colOf(e Expr, src int) (int, bool) {
	cr, ok := e.(*ColRef)
	if ok && cr.bound && cr.src == src && cr.col >= 0 {
		return cr.col, true
	}
	return 0, false
}

// planAccess picks an access path for source level from its conjuncts.
func planAccess(ts *TableSchema, level int, conds []Expr) accessPath {
	path := accessPath{kind: pathFull, loCond: -1, hiCond: -1}
	for k, c := range conds {
		b, ok := c.(*Binary)
		if !ok {
			if bt, ok := c.(*Between); ok && isRowidRef(bt.X, level) && !bt.Not &&
				maxSrcOf(bt.Lo) < level && maxSrcOf(bt.Hi) < level {
				path.kind = pathRowidRange
				path.lo, path.hi = bt.Lo, bt.Hi
				path.loStrict, path.hiStrict = false, false
				path.loCond, path.hiCond = -1, -1
				return path
			}
			continue
		}
		l, r, op := b.L, b.R, b.Op
		// Normalise "expr OP col" to "col OP' expr".
		if maxSrcOf(l) < level && maxSrcOf(r) == level {
			l, r = r, l
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		if maxSrcOf(r) >= level {
			continue // probe expression not yet bound at this level
		}
		if isRowidRef(l, level) {
			switch op {
			case "=":
				path.kind = pathRowidEq
				path.eq = r
				return path // best possible
			case ">", ">=":
				if path.kind == pathFull || path.kind == pathRowidRange {
					path.kind = pathRowidRange
					path.lo, path.loStrict, path.loCond = r, op == ">", k
				}
			case "<", "<=":
				if path.kind == pathFull || path.kind == pathRowidRange {
					path.kind = pathRowidRange
					path.hi, path.hiStrict, path.hiCond = r, op == "<", k
				}
			}
			continue
		}
		if op == "=" {
			if ci, ok := colOf(l, level); ok {
				for _, idx := range ts.Indexes {
					if len(idx.ColIdxs) >= 1 && idx.ColIdxs[0] == ci {
						if path.kind == pathFull || path.kind == pathRowidRange {
							path.kind = pathIndexEq
							path.idx = idx
							path.eq = r
						}
						break
					}
				}
			}
		}
	}
	return path
}

// scanSource enumerates one FROM source under its access path, filtering
// with its conjuncts, and calls emit with (rowid, row) bound into ctx.
// Every row is decoded into the same buffer, ctx.rows[level], and only
// the columns need marks (all when need is nil, see decodeRow).
func (db *DB) scanSource(ts *TableSchema, level int, conds []Expr, need []bool, ctx *evalCtx, emit func() error) error {
	path := planAccess(ts, level, conds)
	tree := db.treeOf(ts)
	row := ctx.rows[level]
	if len(row) != len(ts.Cols) {
		row = make([]Value, len(ts.Cols))
		ctx.rows[level] = row
	}
	// The conjuncts a rowid range enforces exactly are not checked again.
	skipLo, skipHi := -1, -1

	try := func(rowid int64, payload []byte) error {
		if err := ts.decodeRow(row, rowid, payload, need); err != nil {
			return err
		}
		ctx.rowids[level] = rowid
		for k, c := range conds {
			if k == skipLo || k == skipHi {
				continue
			}
			v, err := eval(c, ctx)
			if err != nil {
				return err
			}
			if v.IsNull() || !v.Bool() {
				return nil
			}
		}
		return emit()
	}
	// get visits the row with rowid id, if there is one.
	get := func(id int64) error {
		return tree.Scan(id, func(rowid int64, payload []byte) (bool, error) {
			if rowid != id {
				return false, nil
			}
			return false, try(rowid, payload)
		})
	}

	switch path.kind {
	case pathRowidEq:
		v, err := eval(path.eq, ctx)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
		return get(v.Int())

	case pathRowidRange:
		// Explicit INTEGER PRIMARY KEY values may be zero or negative, so
		// an open lower bound starts at the smallest representable rowid,
		// not at the first automatic one.
		start, end := int64(math.MinInt64), int64(math.MaxInt64)
		if path.lo != nil {
			v, err := eval(path.lo, ctx)
			if err != nil {
				return err
			}
			lo, exact, ok := rangeStart(v, path.loStrict)
			if !ok {
				return nil
			}
			if start = lo; exact {
				skipLo = path.loCond
			}
		}
		if path.hi != nil {
			v, err := eval(path.hi, ctx)
			if err != nil {
				return err
			}
			hi, exact, ok := rangeEnd(v, path.hiStrict)
			if !ok {
				return nil
			}
			if end = hi; exact {
				skipHi = path.hiCond
			}
		}
		return tree.Scan(start, func(rowid int64, payload []byte) (bool, error) {
			if rowid > end {
				return false, nil
			}
			return true, try(rowid, payload)
		})

	case pathIndexEq:
		v, err := eval(path.eq, ctx)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
		prefix := EncodeRecord(nil, []Value{v})
		cur, err := db.idxTreeOf(path.idx).CursorKeyGE(prefix)
		if err != nil {
			return err
		}
		for cur.Valid() {
			key, err := cur.Key()
			if err != nil {
				return err
			}
			kvals, err := DecodeRecord(key)
			if err != nil {
				return err
			}
			if len(kvals) < 2 || Compare(kvals[0], v) != 0 {
				return nil // past the matching prefix
			}
			if err := get(kvals[len(kvals)-1].Int()); err != nil {
				return err
			}
			if err := cur.Next(); err != nil {
				return err
			}
		}
		return nil

	default: // full scan
		return tree.Scan(math.MinInt64, func(rowid int64, payload []byte) (bool, error) {
			return true, try(rowid, payload)
		})
	}
}

// rangeStart returns the first rowid a scan for "rowid >= v" (> when
// strict) must visit, whether every rowid from there on passes that
// comparison, so that it need not be checked per row, and false when no
// rowid can pass. Only an INTEGER bound is exact. A REAL one starts at or
// below the first rowid that passes; a TEXT or BLOB one, which every
// integer sorts below, passes none.
func rangeStart(v Value, strict bool) (start int64, exact, ok bool) {
	switch v.Type() {
	case Integer:
		if !strict {
			return v.i, true, true
		}
		if v.i == math.MaxInt64 {
			return 0, false, false
		}
		return v.i + 1, true, true
	case Real:
		// Beyond ±2^52 (and for NaN) an int64 does not compare with the
		// bound exactly; the per-row check decides from the first rowid.
		if math.Abs(v.f) < 1<<52 {
			return int64(math.Floor(v.f)), false, true
		}
		return math.MinInt64, false, true
	default: // NULL, TEXT, BLOB
		return 0, false, false
	}
}

// rangeEnd is rangeStart for "rowid <= v" (< when strict): the last rowid
// the scan must visit.
func rangeEnd(v Value, strict bool) (end int64, exact, ok bool) {
	switch v.Type() {
	case Integer:
		if !strict {
			return v.i, true, true
		}
		if v.i == math.MinInt64 {
			return 0, false, false
		}
		return v.i - 1, true, true
	case Real:
		if math.Abs(v.f) < 1<<52 {
			return int64(math.Ceil(v.f)), false, true
		}
		return math.MaxInt64, false, true
	case Null:
		return 0, false, false
	default: // every integer sorts below TEXT and BLOB
		return math.MaxInt64, false, true
	}
}

// --- SELECT ---

// Rows is a materialised result set.
type Rows struct {
	Cols []string
	rows [][]Value
	pos  int
}

// Next advances to the next row, reporting availability.
func (r *Rows) Next() bool {
	if r.pos >= len(r.rows) {
		return false
	}
	r.pos++
	return true
}

// Row returns the current row after Next reported true.
func (r *Rows) Row() []Value { return r.rows[r.pos-1] }

// Len returns the total number of rows.
func (r *Rows) Len() int { return len(r.rows) }

// All returns every row.
func (r *Rows) All() [][]Value { return r.rows }

type selectPlan struct {
	st        *SelectStmt
	schemas   []*TableSchema
	resExprs  []Expr
	resNames  []string
	conds     [][]Expr // per-level conjuncts
	accs      []*aggAcc
	orderEx   []Expr
	orderDesc []bool
	reads     *colReads
}

// colReads records which stored columns a SELECT reads from each FROM
// source: need[s] marks source s's columns, up to the last one read, and
// is what scanSource decodes. It is computed when the statement is first
// prepared and kept on it, so a statement the handle's parse cache holds
// computes it once. ncols is each source's column count at that time; an
// ALTER TABLE ADD COLUMN under a statement a caller holds changes it, and
// the set is computed again.
type colReads struct {
	ncols []int
	need  [][]bool
}

// readColumns computes pl's colReads: every column its result, WHERE, ON,
// GROUP BY, HAVING, ORDER BY, LIMIT and OFFSET expressions, aggregate
// arguments included, reference. The rowid and its alias are not stored
// columns.
func (pl *selectPlan) readColumns() *colReads {
	r := &colReads{ncols: make([]int, len(pl.schemas)), need: make([][]bool, len(pl.schemas))}
	for i, ts := range pl.schemas {
		r.ncols[i] = len(ts.Cols)
		r.need[i] = make([]bool, len(ts.Cols))
	}
	st := pl.st
	exprs := []Expr{st.Where, st.Having, st.Limit, st.Offset}
	exprs = append(exprs, pl.resExprs...)
	exprs = append(exprs, st.GroupBy...)
	exprs = append(exprs, pl.orderEx...)
	for _, ref := range st.From {
		exprs = append(exprs, ref.On)
	}
	for _, e := range exprs {
		walkExpr(e, func(e Expr) bool {
			if cr, ok := e.(*ColRef); ok && cr.bound && cr.col >= 0 &&
				cr.src < len(r.need) && cr.col < len(r.need[cr.src]) {
				r.need[cr.src][cr.col] = true
			}
			return true
		})
	}
	for i, need := range r.need {
		last := len(need)
		for last > 0 && !need[last-1] {
			last--
		}
		r.need[i] = need[:last]
	}
	return r
}

// fits reports whether r was computed for tables of these shapes.
func (r *colReads) fits(schemas []*TableSchema) bool {
	if r == nil || len(r.ncols) != len(schemas) {
		return false
	}
	for i, ts := range schemas {
		if r.ncols[i] != len(ts.Cols) {
			return false
		}
	}
	return true
}

func (db *DB) prepareSelect(st *SelectStmt) (*selectPlan, error) {
	pl := &selectPlan{st: st}
	sc := &bindScope{}
	for _, ref := range st.From {
		ts, err := db.table(ref.Name)
		if err != nil {
			return nil, err
		}
		name := ref.Alias
		if name == "" {
			name = ref.Name
		}
		sc.names = append(sc.names, name)
		sc.schemas = append(sc.schemas, ts)
		pl.schemas = append(pl.schemas, ts)
	}

	// Expand stars.
	for _, rc := range st.Cols {
		if !rc.Star {
			pl.resExprs = append(pl.resExprs, rc.Expr)
			name := rc.Alias
			if name == "" {
				if cr, ok := rc.Expr.(*ColRef); ok {
					name = cr.Col
				} else {
					name = fmt.Sprintf("col%d", len(pl.resExprs))
				}
			}
			pl.resNames = append(pl.resNames, name)
			continue
		}
		for si, ts := range pl.schemas {
			if rc.StarTable != "" && !strings.EqualFold(rc.StarTable, sc.names[si]) {
				continue
			}
			for ci, col := range ts.Cols {
				cr := &ColRef{Table: sc.names[si], Col: col.Name, src: si, col: ci, bound: true}
				if ts.RowidPK == ci {
					cr.col = -1
				}
				pl.resExprs = append(pl.resExprs, cr)
				pl.resNames = append(pl.resNames, col.Name)
			}
		}
	}
	if len(pl.resExprs) == 0 {
		return nil, errEval("empty select list")
	}

	// Bind result expressions, WHERE, ON, GROUP BY, HAVING.
	for _, e := range pl.resExprs {
		if err := bindExpr(e, sc); err != nil {
			return nil, err
		}
	}
	if err := bindExpr(st.Where, sc); err != nil {
		return nil, err
	}
	for i := range st.From {
		if err := bindExpr(st.From[i].On, sc); err != nil {
			return nil, err
		}
	}
	for _, g := range st.GroupBy {
		if err := bindExpr(g, sc); err != nil {
			return nil, err
		}
	}
	if err := bindExpr(st.Having, sc); err != nil {
		return nil, err
	}

	// ORDER BY terms: ordinals and aliases refer to result columns.
	for _, term := range st.OrderBy {
		e := term.Expr
		if lit, ok := e.(*Literal); ok && lit.Val.Type() == Integer {
			ord := int(lit.Val.Int())
			if ord < 1 || ord > len(pl.resExprs) {
				return nil, errEval("ORDER BY ordinal %d out of range", ord)
			}
			e = pl.resExprs[ord-1]
		} else if cr, ok := e.(*ColRef); ok && cr.Table == "" {
			for i, n := range pl.resNames {
				if strings.EqualFold(n, cr.Col) {
					e = pl.resExprs[i]
					break
				}
			}
		}
		if err := bindExpr(e, sc); err != nil {
			return nil, err
		}
		pl.orderEx = append(pl.orderEx, e)
		pl.orderDesc = append(pl.orderDesc, term.Desc)
	}

	// Distribute conjuncts to join levels.
	var conjuncts []Expr
	conjuncts = splitConjuncts(st.Where, conjuncts)
	for i := range st.From {
		conjuncts = splitConjuncts(st.From[i].On, conjuncts)
	}
	pl.conds = make([][]Expr, len(st.From))
	if len(st.From) > 0 {
		for _, c := range conjuncts {
			lvl := maxSrcOf(c)
			if lvl < 0 {
				lvl = 0
			}
			pl.conds[lvl] = append(pl.conds[lvl], c)
		}
	}

	// Aggregates.
	aggScan := append(append([]Expr{}, pl.resExprs...), st.Having)
	aggScan = append(aggScan, pl.orderEx...)
	pl.accs = collectAggregates(aggScan)

	if !st.reads.fits(pl.schemas) {
		st.reads = pl.readColumns()
	}
	pl.reads = st.reads
	return pl, nil
}

type outRow struct {
	proj []Value
	keys []Value
}

func (db *DB) execSelect(st *SelectStmt, args []Value) (*Rows, error) {
	pl, err := db.prepareSelect(st)
	if err != nil {
		return nil, err
	}
	ctx := &evalCtx{
		rows:   make([][]Value, len(pl.schemas)),
		rowids: make([]int64, len(pl.schemas)),
		args:   args,
		rng:    db.rng,
	}

	isAgg := len(pl.accs) > 0 || len(pl.st.GroupBy) > 0
	var out []outRow

	project := func() error {
		or := outRow{proj: make([]Value, len(pl.resExprs))}
		for i, e := range pl.resExprs {
			v, err := eval(e, ctx)
			if err != nil {
				return err
			}
			or.proj[i] = v
		}
		if len(pl.orderEx) > 0 {
			or.keys = make([]Value, len(pl.orderEx))
			for i, e := range pl.orderEx {
				v, err := eval(e, ctx)
				if err != nil {
					return err
				}
				or.keys[i] = v
			}
		}
		out = append(out, or)
		return nil
	}

	if isAgg {
		type group struct {
			accs   []*aggAcc
			rows   [][]Value
			rowids []int64
		}
		groups := make(map[string]*group)
		var order []string
		newGroup := func() *group {
			g := &group{accs: make([]*aggAcc, len(pl.accs))}
			for i, a := range pl.accs {
				g.accs[i] = &aggAcc{call: a.call}
			}
			return g
		}
		step := func() error {
			key := ""
			if len(pl.st.GroupBy) > 0 {
				kv := make([]Value, len(pl.st.GroupBy))
				for i, ge := range pl.st.GroupBy {
					v, err := eval(ge, ctx)
					if err != nil {
						return err
					}
					kv[i] = v
				}
				key = string(EncodeRecord(nil, kv))
			}
			g, ok := groups[key]
			if !ok {
				// The group keeps its first row; the scan reuses the
				// buffers ctx.rows points at.
				g = newGroup()
				g.rows = make([][]Value, len(ctx.rows))
				for i, r := range ctx.rows {
					g.rows[i] = append([]Value(nil), r...)
				}
				g.rowids = append([]int64{}, ctx.rowids...)
				groups[key] = g
				order = append(order, key)
			}
			for _, a := range g.accs {
				if err := a.step(ctx); err != nil {
					return err
				}
			}
			return nil
		}
		if err := db.joinLoop(pl, ctx, 0, step); err != nil {
			return nil, err
		}
		if len(groups) == 0 && len(pl.st.GroupBy) == 0 {
			groups[""] = newGroup()
			order = append(order, "")
		}
		for _, key := range order {
			g := groups[key]
			ctx.aggMode = true
			ctx.aggVals = make([]Value, len(g.accs))
			for i, a := range g.accs {
				ctx.aggVals[i] = a.result()
			}
			// A group without rows is the empty table's one group: its
			// bare columns, the rowid too, read NULL as in SQLite.
			ctx.noRow = g.rows == nil
			if g.rows != nil {
				copy(ctx.rows, g.rows)
				copy(ctx.rowids, g.rowids)
			} else {
				for i := range ctx.rows {
					ctx.rows[i] = make([]Value, len(pl.schemas[i].Cols))
					for j := range ctx.rows[i] {
						ctx.rows[i][j] = NullVal()
					}
				}
			}
			if pl.st.Having != nil {
				hv, err := eval(pl.st.Having, ctx)
				if err != nil {
					return nil, err
				}
				if hv.IsNull() || !hv.Bool() {
					continue
				}
			}
			if err := project(); err != nil {
				return nil, err
			}
		}
		ctx.aggMode, ctx.noRow = false, false
	} else {
		if len(pl.schemas) == 0 {
			// SELECT without FROM.
			if err := project(); err != nil {
				return nil, err
			}
		} else if err := db.joinLoop(pl, ctx, 0, project); err != nil {
			return nil, err
		}
	}

	// DISTINCT.
	if pl.st.Distinct {
		seen := make(map[string]bool, len(out))
		dedup := out[:0]
		for _, or := range out {
			k := string(EncodeRecord(nil, or.proj))
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, or)
			}
		}
		out = dedup
	}

	// ORDER BY.
	if len(pl.orderEx) > 0 {
		sort.SliceStable(out, func(i, j int) bool {
			return CompareRows(out[i].keys, out[j].keys, pl.orderDesc) < 0
		})
	}

	// LIMIT / OFFSET.
	if pl.st.Limit != nil {
		lv, err := eval(pl.st.Limit, ctx)
		if err != nil {
			return nil, err
		}
		limit := int(lv.Int())
		offset := 0
		if pl.st.Offset != nil {
			ov, err := eval(pl.st.Offset, ctx)
			if err != nil {
				return nil, err
			}
			offset = int(ov.Int())
		}
		if offset < 0 {
			offset = 0
		}
		if offset > len(out) {
			offset = len(out)
		}
		end := len(out)
		if limit >= 0 && offset+limit < end {
			end = offset + limit
		}
		out = out[offset:end]
	}

	rows := &Rows{Cols: pl.resNames, rows: make([][]Value, len(out))}
	for i, or := range out {
		rows.rows[i] = or.proj
	}
	return rows, nil
}

// joinLoop performs the nested-loop join over FROM sources.
func (db *DB) joinLoop(pl *selectPlan, ctx *evalCtx, level int, emit func() error) error {
	if level == len(pl.schemas) {
		return emit()
	}
	return db.scanSource(pl.schemas[level], level, pl.conds[level], pl.reads.need[level], ctx, func() error {
		return db.joinLoop(pl, ctx, level+1, emit)
	})
}

// --- INSERT / UPDATE / DELETE ---

func (db *DB) execInsert(st *InsertStmt, args []Value) (int64, error) {
	ts, err := db.table(st.Table)
	if err != nil {
		return 0, err
	}
	// Column targets.
	targets := make([]int, 0, len(ts.Cols))
	if len(st.Cols) == 0 {
		for i := range ts.Cols {
			targets = append(targets, i)
		}
	} else {
		for _, cn := range st.Cols {
			ci := ts.colIndex(cn)
			if ci < 0 {
				return 0, errEval("table %s has no column %s", ts.Name, cn)
			}
			targets = append(targets, ci)
		}
	}

	var sourceRows [][]Value
	if st.Select != nil {
		res, err := db.execSelect(st.Select, args)
		if err != nil {
			return 0, err
		}
		sourceRows = res.rows
	} else {
		ctx := &evalCtx{args: args, rng: db.rng}
		for _, exprRow := range st.Rows {
			if len(exprRow) != len(targets) {
				return 0, errEval("%d values for %d columns", len(exprRow), len(targets))
			}
			vals := make([]Value, len(exprRow))
			for i, e := range exprRow {
				if err := bindExpr(e, &bindScope{}); err != nil {
					return 0, err
				}
				v, err := eval(e, ctx)
				if err != nil {
					return 0, err
				}
				vals[i] = v
			}
			sourceRows = append(sourceRows, vals)
		}
	}

	var count int64
	for _, src := range sourceRows {
		if len(src) != len(targets) {
			return 0, errEval("%d values for %d columns", len(src), len(targets))
		}
		row := make([]Value, len(ts.Cols))
		provided := make([]bool, len(ts.Cols))
		for i, ci := range targets {
			row[ci] = applyAffinity(src[i], ts.Cols[ci].Affinity)
			provided[ci] = true
		}
		for i := range row {
			if !provided[i] {
				if ts.Cols[i].Default != nil {
					row[i] = *ts.Cols[i].Default
				} else {
					row[i] = NullVal()
				}
			}
		}
		var rowid int64
		if ts.RowidPK >= 0 && !row[ts.RowidPK].IsNull() {
			rowid = row[ts.RowidPK].Int()
		} else {
			rowid, err = db.nextRowid(ts)
			if err != nil {
				return count, err
			}
			if ts.RowidPK >= 0 {
				row[ts.RowidPK] = IntVal(rowid)
			}
		}
		if err := db.insertRow(ts, rowid, row, st.OrReplace); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

func (db *DB) execUpdate(st *UpdateStmt, args []Value) (int64, error) {
	ts, err := db.table(st.Table)
	if err != nil {
		return 0, err
	}
	sc := &bindScope{names: []string{st.Table}, schemas: []*TableSchema{ts}}
	if err := bindExpr(st.Where, sc); err != nil {
		return 0, err
	}
	setCols := make([]int, len(st.Sets))
	for i, set := range st.Sets {
		ci := ts.colIndex(set.Col)
		rowidTarget := strings.EqualFold(set.Col, "rowid")
		if ci < 0 && !rowidTarget {
			return 0, errEval("no such column: %s", set.Col)
		}
		if rowidTarget {
			ci = -1
		}
		setCols[i] = ci
		if err := bindExpr(set.Expr, sc); err != nil {
			return 0, err
		}
	}

	ctx := &evalCtx{rows: make([][]Value, 1), rowids: make([]int64, 1), args: args, rng: db.rng}
	conds := splitConjuncts(st.Where, nil)

	// Materialise targets first: mutating while scanning invalidates
	// cursors.
	type target struct {
		rowid int64
		row   []Value
	}
	var targets2 []target
	err = db.scanSource(ts, 0, conds, nil, ctx, func() error {
		row := append([]Value{}, ctx.rows[0]...)
		targets2 = append(targets2, target{ctx.rowids[0], row})
		return nil
	})
	if err != nil {
		return 0, err
	}

	var count int64
	for _, tg := range targets2 {
		ctx.rows[0] = tg.row
		ctx.rowids[0] = tg.rowid
		newRow := append([]Value{}, tg.row...)
		newRowid := tg.rowid
		for i, set := range st.Sets {
			v, err := eval(set.Expr, ctx)
			if err != nil {
				return count, err
			}
			if setCols[i] == -1 || setCols[i] == ts.RowidPK {
				newRowid = v.Int()
				if setCols[i] >= 0 {
					newRow[setCols[i]] = IntVal(newRowid)
				}
			} else {
				newRow[setCols[i]] = applyAffinity(v, ts.Cols[setCols[i]].Affinity)
			}
		}
		if err := db.deleteRowByID(ts, tg.rowid); err != nil {
			return count, err
		}
		if err := db.insertRow(ts, newRowid, newRow, false); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

func (db *DB) execDelete(st *DeleteStmt, args []Value) (int64, error) {
	ts, err := db.table(st.Table)
	if err != nil {
		return 0, err
	}
	sc := &bindScope{names: []string{st.Table}, schemas: []*TableSchema{ts}}
	if err := bindExpr(st.Where, sc); err != nil {
		return 0, err
	}
	ctx := &evalCtx{rows: make([][]Value, 1), rowids: make([]int64, 1), args: args, rng: db.rng}
	conds := splitConjuncts(st.Where, nil)
	var rowids []int64
	err = db.scanSource(ts, 0, conds, nil, ctx, func() error {
		rowids = append(rowids, ctx.rowids[0])
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, rowid := range rowids {
		if err := db.deleteRowByID(ts, rowid); err != nil {
			return int64(len(rowids)), err
		}
	}
	return int64(len(rowids)), nil
}
