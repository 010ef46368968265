package litedb

import (
	"fmt"
	"math/rand"
	"strings"
)

// Options configures an open database.
type Options struct {
	// CachePages is the page cache capacity (default 2,048 pages, the
	// paper's SQLite configuration).
	CachePages int
	// Store supplies cache buffers (native or Wasm-sandboxed).
	Store PageStore
	// Sync is the PRAGMA synchronous default (normal, like the paper).
	Sync SyncMode
	// Journal is the journal mode: truncate (one journal file per open
	// database, emptied at each commit, deleted at Close; a departure
	// from the paper's stock SQLite, which deletes it per transaction)
	// or memory (forced for in-memory databases). See JournalMode for
	// the lifecycle and the recovery rule.
	Journal JournalMode
}

// DB is an open database handle. Not safe for concurrent use (SQLite's
// single-writer model, reduced to a single connection).
type DB struct {
	vfs     VFS
	name    string
	pager   *Pager
	catalog *Tree
	tables  map[string]*TableSchema
	indexes map[string]*IndexSchema
	// cookie is the schema cookie the catalog was last loaded under;
	// Refresh compares it with the header's to see another handle's DDL.
	cookie uint32

	explicitTxn bool
	lastInsert  int64
	rng         *rand.Rand // random()/randomblob(); fixed seed, so a script repeats

	// parsed remembers the statements of the last few distinct SQL texts
	// (see parse); parsedNext is the slot the next miss overwrites.
	parsed     [parseCacheSize]parsedSQL
	parsedNext int
}

// parseCacheSize is how many SQL texts a handle keeps parsed, and
// parseCacheMaxLen the longest text it keeps: enough for the handful of
// parameterised statements a serving loop repeats, too little for a bulk
// load's literal-laden one-offs to pin memory.
const (
	parseCacheSize   = 8
	parseCacheMaxLen = 1024
)

type parsedSQL struct {
	sql   string
	stmts []Stmt
}

// parse is ParseAll behind the handle's cache, so a repeated statement
// text is parsed once. Running a Stmt binds its column references to the
// schema it first ran against and changes nothing else, which makes a
// rerun on this handle safe for as long as that schema stands; the cache
// is dropped whole by every schema change (dropParsed).
func (db *DB) parse(sql string) ([]Stmt, error) {
	for i := range db.parsed {
		// An empty slot answers "" with no statements, as ParseAll does.
		if db.parsed[i].sql == sql {
			return db.parsed[i].stmts, nil
		}
	}
	stmts, err := ParseAll(sql)
	if err != nil || len(sql) > parseCacheMaxLen {
		return stmts, err
	}
	db.parsed[db.parsedNext] = parsedSQL{sql, stmts}
	db.parsedNext = (db.parsedNext + 1) % parseCacheSize
	return stmts, nil
}

// dropParsed forgets every cached statement. Called wherever the schema
// may have changed under their bound column references: the catalog
// writes behind all DDL (which bump the schema cookie) and the catalog
// reload that follows a rollback.
func (db *DB) dropParsed() { db.parsed = [parseCacheSize]parsedSQL{} }

// MemoryDBName opens a purely in-memory database when used with a MemVFS.
const MemoryDBName = ":memory:"

// Open opens (creating if needed) the named database on vfs.
func Open(vfs VFS, name string, opts Options) (*DB, error) {
	if name == MemoryDBName {
		vfs = NewMemVFS()
		opts.Journal = JournalMemory
	}
	pager, err := OpenPager(vfs, name, PagerOptions{
		CachePages: opts.CachePages,
		Store:      opts.Store,
		Sync:       opts.Sync,
		Journal:    opts.Journal,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{
		vfs: vfs, name: name, pager: pager,
		rng: rand.New(rand.NewSource(1)),
	}
	root, err := pager.SchemaRoot()
	if err != nil {
		pager.Close()
		return nil, err
	}
	if root == 0 {
		// Fresh database: create the catalog tree.
		if err := pager.Begin(); err != nil {
			pager.Close()
			return nil, err
		}
		tree, err := CreateTree(pager, false)
		if err != nil {
			pager.Close()
			return nil, err
		}
		if err := pager.SetSchemaRoot(tree.Root()); err != nil {
			pager.Close()
			return nil, err
		}
		if err := pager.Commit(); err != nil {
			pager.Close()
			return nil, err
		}
		db.catalog = tree
	} else {
		db.catalog = OpenTree(pager, root, false)
	}
	if err := db.loadCatalog(); err != nil {
		pager.Close()
		return nil, err
	}
	return db, nil
}

// Close releases the database.
func (db *DB) Close() error { return db.pager.Close() }

// Refresh brings the handle up to date with commits another handle made
// to the same file, in place: the pager drops exactly the pages that
// changed (Pager.Refresh), and the catalog is reloaded, and the parse
// cache with it, only when the schema cookie or the schema root moved. It
// must be called outside a transaction, on a file that is a Refresher. A
// failed Refresh leaves no cached page behind and may be retried.
func (db *DB) Refresh() error {
	if err := db.pager.Refresh(); err != nil {
		return err
	}
	cookie, err := db.pager.Cookie()
	if err != nil {
		return err
	}
	root, err := db.pager.SchemaRoot()
	if err != nil {
		return err
	}
	if cookie == db.cookie && root == db.catalog.Root() {
		// Same schema, but the other handle may have inserted.
		for _, ts := range db.tables {
			ts.lastRowid = 0
		}
		return nil
	}
	db.catalog = OpenTree(db.pager, root, false)
	return db.loadCatalog()
}

// Pager exposes the pager for instrumentation (page counts, cache stats).
func (db *DB) Pager() *Pager { return db.pager }

// LastInsertRowid returns the rowid of the most recent insert.
func (db *DB) LastInsertRowid() int64 { return db.lastInsert }

// Exec runs one or more statements, returning the affected-row count of
// the last one. Positional ? parameters bind to args.
func (db *DB) Exec(sql string, args ...Value) (int64, error) {
	stmts, err := db.parse(sql)
	if err != nil {
		return 0, err
	}
	var affected int64
	for _, st := range stmts {
		_, n, err := db.run(st, args)
		if err != nil {
			return affected, err
		}
		affected = n
	}
	return affected, nil
}

// Query runs a single SELECT (or PRAGMA) and returns its rows.
func (db *DB) Query(sql string, args ...Value) (*Rows, error) {
	stmts, err := db.parse(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, errEval("Query expects exactly one statement")
	}
	rows, _, err := db.run(stmts[0], args)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = &Rows{}
	}
	return rows, nil
}

// QueryRow runs a SELECT expected to yield a single row.
func (db *DB) QueryRow(sql string, args ...Value) ([]Value, error) {
	rows, err := db.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	if !rows.Next() {
		return nil, nil
	}
	return rows.Row(), nil
}

// run dispatches one statement with autocommit handling.
func (db *DB) run(st Stmt, args []Value) (rows *Rows, affected int64, err error) {
	switch s := st.(type) {
	case *BeginStmt:
		if db.explicitTxn {
			return nil, 0, fmt.Errorf("%w: transaction already open", ErrTxn)
		}
		if err := db.pager.Begin(); err != nil {
			return nil, 0, err
		}
		db.explicitTxn = true
		return nil, 0, nil
	case *CommitStmt:
		if !db.explicitTxn {
			return nil, 0, fmt.Errorf("%w: no transaction open", ErrTxn)
		}
		db.explicitTxn = false
		return nil, 0, db.pager.Commit()
	case *RollbackStmt:
		if !db.explicitTxn {
			return nil, 0, fmt.Errorf("%w: no transaction open", ErrTxn)
		}
		db.explicitTxn = false
		if err := db.pager.Rollback(); err != nil {
			return nil, 0, err
		}
		// Schema changes may have rolled back.
		return nil, 0, db.loadCatalog()
	case *SelectStmt:
		rows, err := db.execSelect(s, args)
		return rows, 0, err
	case *PragmaStmt:
		return db.execPragma(s)
	}

	// Mutating statements run in a transaction (auto-commit when none is
	// open).
	auto := !db.explicitTxn
	if auto {
		if err := db.pager.Begin(); err != nil {
			return nil, 0, err
		}
	}
	defer func() {
		if err != nil && auto && db.pager.InTxn() {
			_ = db.pager.Rollback()
			_ = db.loadCatalog()
		}
	}()

	switch s := st.(type) {
	case *CreateTableStmt:
		err = db.execCreateTable(s)
	case *CreateIndexStmt:
		err = db.execCreateIndex(s)
	case *DropStmt:
		err = db.execDrop(s)
	case *AlterStmt:
		err = db.execAlter(s)
	case *InsertStmt:
		affected, err = db.execInsert(s, args)
	case *UpdateStmt:
		affected, err = db.execUpdate(s, args)
	case *DeleteStmt:
		affected, err = db.execDelete(s, args)
	case *AnalyzeStmt:
		err = db.execAnalyze()
	case *VacuumStmt:
		err = db.execVacuum()
	default:
		err = errEval("unsupported statement %T", st)
	}
	if err != nil {
		return nil, affected, err
	}
	if auto {
		return nil, affected, db.pager.Commit()
	}
	return nil, affected, nil
}

// --- DDL execution ---

func (db *DB) execCreateTable(st *CreateTableStmt) error {
	key := strings.ToLower(st.Name)
	if _, exists := db.tables[key]; exists {
		if st.IfNotExists {
			return nil
		}
		return errEval("table %s already exists", st.Name)
	}
	tree, err := CreateTree(db.pager, false)
	if err != nil {
		return err
	}
	rowid, err := db.catalogInsert("table", st.Name, st.Name, tree.Root(), encodeTableDef(st.Cols))
	if err != nil {
		return err
	}
	ts := &TableSchema{Name: st.Name, Cols: st.Cols, Root: tree.Root(), RowidPK: -1, catRowid: rowid}
	for i, c := range st.Cols {
		if c.PrimaryKey && c.Affinity == Integer {
			ts.RowidPK = i
		}
	}
	db.tables[key] = ts
	// Implicit unique indexes for UNIQUE columns and non-rowid PKs.
	n := 0
	for i, c := range st.Cols {
		needIdx := c.Unique || (c.PrimaryKey && i != ts.RowidPK)
		if !needIdx {
			continue
		}
		n++
		idxName := fmt.Sprintf("_auto_%s_%d", st.Name, n)
		if err := db.createIndexOn(idxName, ts, []string{c.Name}, true); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) createIndexOn(name string, ts *TableSchema, cols []string, unique bool) error {
	tree, err := CreateTree(db.pager, true)
	if err != nil {
		return err
	}
	idx := &IndexSchema{Name: name, Table: ts.Name, Cols: cols, Unique: unique, Root: tree.Root()}
	for _, cn := range cols {
		ci := ts.colIndex(cn)
		if ci < 0 {
			return errEval("no such column: %s", cn)
		}
		idx.ColIdxs = append(idx.ColIdxs, ci)
	}
	// Populate from existing rows.
	row := make([]Value, len(ts.Cols))
	err = db.treeOf(ts).Scan(-1<<63, func(rowid int64, payload []byte) (bool, error) {
		if err := ts.decodeRow(row, rowid, payload, nil); err != nil {
			return false, err
		}
		return true, tree.InsertKey(idx.indexKey(row, rowid))
	})
	if err != nil {
		return err
	}
	rowid, err := db.catalogInsert("index", name, ts.Name, tree.Root(), encodeIndexDef(cols, unique))
	if err != nil {
		return err
	}
	idx.catRowid = rowid
	ts.Indexes = append(ts.Indexes, idx)
	db.indexes[strings.ToLower(name)] = idx
	return nil
}

func (db *DB) execCreateIndex(st *CreateIndexStmt) error {
	if _, exists := db.indexes[strings.ToLower(st.Name)]; exists {
		if st.IfNotExists {
			return nil
		}
		return errEval("index %s already exists", st.Name)
	}
	ts, err := db.table(st.Table)
	if err != nil {
		return err
	}
	return db.createIndexOn(st.Name, ts, st.Cols, st.Unique)
}

func (db *DB) execDrop(st *DropStmt) error {
	if st.Index {
		idx, ok := db.indexes[strings.ToLower(st.Name)]
		if !ok {
			if st.IfExists {
				return nil
			}
			return errEval("no such index: %s", st.Name)
		}
		if err := db.idxTreeOf(idx).FreeRoot(); err != nil {
			return err
		}
		if err := db.catalogDelete(idx.catRowid); err != nil {
			return err
		}
		delete(db.indexes, strings.ToLower(st.Name))
		ts := db.tables[strings.ToLower(idx.Table)]
		for i, ix := range ts.Indexes {
			if ix == idx {
				ts.Indexes = append(ts.Indexes[:i], ts.Indexes[i+1:]...)
				break
			}
		}
		return nil
	}
	ts, ok := db.tables[strings.ToLower(st.Name)]
	if !ok {
		if st.IfExists {
			return nil
		}
		return errEval("no such table: %s", st.Name)
	}
	for _, idx := range ts.Indexes {
		if err := db.idxTreeOf(idx).FreeRoot(); err != nil {
			return err
		}
		if err := db.catalogDelete(idx.catRowid); err != nil {
			return err
		}
		delete(db.indexes, strings.ToLower(idx.Name))
	}
	if err := db.treeOf(ts).FreeRoot(); err != nil {
		return err
	}
	if err := db.catalogDelete(ts.catRowid); err != nil {
		return err
	}
	delete(db.tables, strings.ToLower(st.Name))
	return nil
}

func (db *DB) execAlter(st *AlterStmt) error {
	ts, err := db.table(st.Table)
	if err != nil {
		return err
	}
	switch {
	case st.Rename != "":
		if _, exists := db.tables[strings.ToLower(st.Rename)]; exists {
			return errEval("table %s already exists", st.Rename)
		}
		oldKey := strings.ToLower(ts.Name)
		ts.Name = st.Rename
		if err := db.catalogUpdate(ts.catRowid, "table", ts.Name, ts.Name, ts.Root, encodeTableDef(ts.Cols)); err != nil {
			return err
		}
		for _, idx := range ts.Indexes {
			idx.Table = ts.Name
			if err := db.catalogUpdate(idx.catRowid, "index", idx.Name, ts.Name, idx.Root, encodeIndexDef(idx.Cols, idx.Unique)); err != nil {
				return err
			}
		}
		delete(db.tables, oldKey)
		db.tables[strings.ToLower(ts.Name)] = ts
		return nil
	case st.AddCol != nil:
		if ts.colIndex(st.AddCol.Name) >= 0 {
			return errEval("duplicate column name: %s", st.AddCol.Name)
		}
		if st.AddCol.PrimaryKey || st.AddCol.Unique {
			return errEval("cannot add a PRIMARY KEY or UNIQUE column")
		}
		ts.Cols = append(ts.Cols, *st.AddCol)
		return db.catalogUpdate(ts.catRowid, "table", ts.Name, ts.Name, ts.Root, encodeTableDef(ts.Cols))
	default:
		return errEval("unsupported ALTER TABLE")
	}
}

// execAnalyze gathers per-table row counts into _stats, the paper's
// Speedtest1 test 990 workload.
func (db *DB) execAnalyze() error {
	if _, ok := db.tables["_stats"]; !ok {
		if err := db.execCreateTable(&CreateTableStmt{
			Name: "_stats",
			Cols: []ColumnDef{
				{Name: "tbl", Affinity: Text},
				{Name: "n", Affinity: Integer},
			},
		}); err != nil {
			return err
		}
	}
	stats := db.tables["_stats"]
	// Clear previous stats.
	if err := db.treeOf(stats).Drop(); err != nil {
		return err
	}
	stats.lastRowid = 0
	for _, ts := range db.tables {
		if ts == stats {
			continue
		}
		var n int64
		err := db.treeOf(ts).Scan(-1<<63, func(int64, []byte) (bool, error) {
			n++
			return true, nil
		})
		if err != nil {
			return err
		}
		rowid, err := db.nextRowid(stats)
		if err != nil {
			return err
		}
		if err := db.insertRow(stats, rowid, []Value{TextVal(ts.Name), IntVal(n)}, true); err != nil {
			return err
		}
	}
	return nil
}

// execVacuum sweeps every table and index (full read pass). Storage is not
// compacted — documented deviation from SQLite.
func (db *DB) execVacuum() error {
	for _, ts := range db.tables {
		err := db.treeOf(ts).Scan(-1<<63, func(int64, []byte) (bool, error) {
			return true, nil
		})
		if err != nil {
			return err
		}
		for _, idx := range ts.Indexes {
			icur, err := db.idxTreeOf(idx).Cursor()
			if err != nil {
				return err
			}
			for icur.Valid() {
				if _, err := icur.Key(); err != nil {
					return err
				}
				if err := icur.Next(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// execPragma handles the PRAGMAs the paper's experiments rely on.
func (db *DB) execPragma(st *PragmaStmt) (*Rows, int64, error) {
	oneRow := func(name string, v Value) *Rows {
		return &Rows{Cols: []string{name}, rows: [][]Value{{v}}}
	}
	switch st.Name {
	case "cache_size":
		if st.Value != nil {
			n := int(st.Value.Int())
			if n < 0 {
				// SQLite negative cache_size means KiB; convert to pages.
				n = (-n * 1024) / PageSize
			}
			if err := db.pager.SetCacheSize(n); err != nil {
				return nil, 0, err
			}
		}
		return oneRow("cache_size", IntVal(int64(db.pager.CacheSize()))), 0, nil
	case "page_size":
		return oneRow("page_size", IntVal(PageSize)), 0, nil
	case "page_count":
		return oneRow("page_count", IntVal(int64(db.pager.NPages()))), 0, nil
	case "synchronous":
		if st.Value != nil {
			switch strings.ToLower(st.Value.Text()) {
			case "0", "off":
				db.pager.SetSync(SyncOff)
			case "1", "normal":
				db.pager.SetSync(SyncNormal)
			case "2", "full":
				db.pager.SetSync(SyncFull)
			default:
				return nil, 0, errEval("bad synchronous value")
			}
		}
		return oneRow("synchronous", IntVal(int64(db.pager.opt.Sync))), 0, nil
	case "journal_mode":
		if st.Value != nil {
			switch strings.ToLower(st.Value.Text()) {
			case "truncate":
				db.pager.opt.Journal = JournalTruncate
			case "memory":
				db.pager.opt.Journal = JournalMemory
			default:
				return nil, 0, errEval("unsupported journal_mode")
			}
		}
		mode := "truncate"
		if db.pager.opt.Journal == JournalMemory {
			mode = "memory"
		}
		return oneRow("journal_mode", TextVal(mode)), 0, nil
	case "integrity_check":
		problems, err := db.integrityCheck()
		if err != nil {
			return nil, 0, err
		}
		if len(problems) == 0 {
			problems = []string{"ok"}
		}
		rows := &Rows{Cols: []string{"integrity_check"}}
		for _, p := range problems {
			rows.rows = append(rows.rows, []Value{TextVal(p)})
		}
		return rows, 0, nil
	case "table_count":
		return oneRow("table_count", IntVal(int64(len(db.tables)))), 0, nil
	default:
		// Unknown PRAGMAs are ignored, as SQLite does.
		return &Rows{}, 0, nil
	}
}
