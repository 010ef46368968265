package litedb

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The catalog is a table B+tree (root recorded in the database header)
// holding one record per schema object, in the spirit of sqlite_master:
//
//	[type TEXT ("table"|"index"), name TEXT, tbl_name TEXT,
//	 rootpage INTEGER, def TEXT (JSON)]

// TableSchema describes a table.
type TableSchema struct {
	Name string
	Cols []ColumnDef
	Root uint32
	// RowidPK is the column index aliasing the rowid (INTEGER PRIMARY
	// KEY), or -1.
	RowidPK int
	Indexes []*IndexSchema

	catRowid  int64
	lastRowid int64 // cache for auto-assignment; 0 = unknown
}

// IndexSchema describes an index.
type IndexSchema struct {
	Name    string
	Table   string
	Cols    []string
	ColIdxs []int
	Unique  bool
	Root    uint32

	catRowid int64
}

// colIndex resolves a column name within the table.
func (t *TableSchema) colIndex(name string) int {
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// schemaDefJSON is the serialised column/index definition.
type schemaDefJSON struct {
	Cols   []colDefJSON `json:"cols,omitempty"`
	IdxCol []string     `json:"idx_cols,omitempty"`
	Unique bool         `json:"unique,omitempty"`
}

type colDefJSON struct {
	Name     string  `json:"name"`
	Affinity int     `json:"aff"`
	PK       bool    `json:"pk,omitempty"`
	NotNull  bool    `json:"nn,omitempty"`
	Unique   bool    `json:"uq,omitempty"`
	DefType  int     `json:"dt,omitempty"`
	DefInt   int64   `json:"di,omitempty"`
	DefReal  float64 `json:"dr,omitempty"`
	DefText  string  `json:"ds,omitempty"`
}

func encodeTableDef(cols []ColumnDef) string {
	def := schemaDefJSON{}
	for _, c := range cols {
		j := colDefJSON{Name: c.Name, Affinity: int(c.Affinity), PK: c.PrimaryKey, NotNull: c.NotNull, Unique: c.Unique}
		if c.Default != nil {
			j.DefType = int(c.Default.Type()) + 1
			switch c.Default.Type() {
			case Integer:
				j.DefInt = c.Default.Int()
			case Real:
				j.DefReal = c.Default.Real()
			case Text:
				j.DefText = c.Default.Text()
			}
		}
		def.Cols = append(def.Cols, j)
	}
	b, _ := json.Marshal(def)
	return string(b)
}

func decodeTableDef(s string) ([]ColumnDef, error) {
	var def schemaDefJSON
	if err := json.Unmarshal([]byte(s), &def); err != nil {
		return nil, fmt.Errorf("litedb: corrupt table definition: %w", err)
	}
	var cols []ColumnDef
	for _, j := range def.Cols {
		c := ColumnDef{Name: j.Name, Affinity: Type(j.Affinity), PrimaryKey: j.PK, NotNull: j.NotNull, Unique: j.Unique}
		if j.DefType != 0 {
			var v Value
			switch Type(j.DefType - 1) {
			case Null:
				v = NullVal()
			case Integer:
				v = IntVal(j.DefInt)
			case Real:
				v = RealVal(j.DefReal)
			case Text:
				v = TextVal(j.DefText)
			}
			c.Default = &v
		}
		cols = append(cols, c)
	}
	return cols, nil
}

func encodeIndexDef(cols []string, unique bool) string {
	b, _ := json.Marshal(schemaDefJSON{IdxCol: cols, Unique: unique})
	return string(b)
}

func decodeIndexDef(s string) ([]string, bool, error) {
	var def schemaDefJSON
	if err := json.Unmarshal([]byte(s), &def); err != nil {
		return nil, false, fmt.Errorf("litedb: corrupt index definition: %w", err)
	}
	return def.IdxCol, def.Unique, nil
}

// loadCatalog scans the catalog tree into the schema cache.
func (db *DB) loadCatalog() error {
	db.dropParsed()
	db.tables = make(map[string]*TableSchema)
	db.indexes = make(map[string]*IndexSchema)
	cur, err := db.catalog.Cursor()
	if err != nil {
		return err
	}
	type pendingIdx struct {
		idx *IndexSchema
	}
	var pending []pendingIdx
	for cur.Valid() {
		payload, err := cur.Payload()
		if err != nil {
			return err
		}
		row, err := DecodeRecord(payload)
		if err != nil {
			return err
		}
		if len(row) < 5 {
			return fmt.Errorf("%w: catalog row too short", ErrCorrupt)
		}
		kind, name, tbl := row[0].Text(), row[1].Text(), row[2].Text()
		root := uint32(row[3].Int())
		switch kind {
		case "table":
			cols, err := decodeTableDef(row[4].Text())
			if err != nil {
				return err
			}
			ts := &TableSchema{Name: name, Cols: cols, Root: root, RowidPK: -1, catRowid: cur.Rowid()}
			for i, c := range cols {
				if c.PrimaryKey && c.Affinity == Integer {
					ts.RowidPK = i
				}
			}
			db.tables[strings.ToLower(name)] = ts
		case "index":
			cols, unique, err := decodeIndexDef(row[4].Text())
			if err != nil {
				return err
			}
			idx := &IndexSchema{Name: name, Table: tbl, Cols: cols, Unique: unique, Root: root, catRowid: cur.Rowid()}
			pending = append(pending, pendingIdx{idx})
		default:
			return fmt.Errorf("%w: unknown catalog kind %q", ErrCorrupt, kind)
		}
		if err := cur.Next(); err != nil {
			return err
		}
	}
	for _, p := range pending {
		ts, ok := db.tables[strings.ToLower(p.idx.Table)]
		if !ok {
			return fmt.Errorf("%w: index %s references missing table %s", ErrCorrupt, p.idx.Name, p.idx.Table)
		}
		for _, cn := range p.idx.Cols {
			ci := ts.colIndex(cn)
			if ci < 0 {
				return fmt.Errorf("%w: index %s references missing column %s", ErrCorrupt, p.idx.Name, cn)
			}
			p.idx.ColIdxs = append(p.idx.ColIdxs, ci)
		}
		ts.Indexes = append(ts.Indexes, p.idx)
		db.indexes[strings.ToLower(p.idx.Name)] = p.idx
	}
	db.cookie, err = db.pager.Cookie()
	return err
}

// schemaChanged marks a catalog write: the schema cookie moves and the
// statements parsed against the old schema go.
func (db *DB) schemaChanged() error {
	db.dropParsed()
	return db.pager.BumpCookie()
}

// catalogInsert appends one schema record and returns its rowid.
func (db *DB) catalogInsert(kind, name, tbl string, root uint32, def string) (int64, error) {
	max, err := db.catalog.MaxRowid()
	if err != nil {
		return 0, err
	}
	rowid := max + 1
	rec := EncodeRecord(nil, []Value{
		TextVal(kind), TextVal(name), TextVal(tbl), IntVal(int64(root)), TextVal(def),
	})
	if err := db.catalog.Insert(rowid, rec); err != nil {
		return 0, err
	}
	return rowid, db.schemaChanged()
}

// catalogUpdate rewrites a schema record in place.
func (db *DB) catalogUpdate(rowid int64, kind, name, tbl string, root uint32, def string) error {
	rec := EncodeRecord(nil, []Value{
		TextVal(kind), TextVal(name), TextVal(tbl), IntVal(int64(root)), TextVal(def),
	})
	if err := db.catalog.Insert(rowid, rec); err != nil {
		return err
	}
	return db.schemaChanged()
}

// catalogDelete removes a schema record.
func (db *DB) catalogDelete(rowid int64) error {
	if _, err := db.catalog.Delete(rowid); err != nil {
		return err
	}
	return db.schemaChanged()
}
