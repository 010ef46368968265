package litedb

// AST node definitions for the supported SQL dialect (a practical subset
// of SQLite's: DDL, DML, joins, aggregates, ORDER/GROUP/LIMIT, PRAGMA,
// ANALYZE, VACUUM and transactions).

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

// ColumnDef is one column in CREATE TABLE / ALTER TABLE ADD COLUMN.
type ColumnDef struct {
	Name       string
	Affinity   Type // INTEGER/REAL/TEXT/BLOB (Null = no affinity)
	PrimaryKey bool
	NotNull    bool
	Unique     bool
	Default    *Value
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name        string
	Cols        []ColumnDef
	IfNotExists bool
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX.
type CreateIndexStmt struct {
	Name        string
	Table       string
	Cols        []string
	Unique      bool
	IfNotExists bool
}

// DropStmt is DROP TABLE / DROP INDEX.
type DropStmt struct {
	Index    bool
	Name     string
	IfExists bool
}

// AlterStmt is ALTER TABLE ... RENAME TO / ADD COLUMN.
type AlterStmt struct {
	Table  string
	Rename string     // non-empty for RENAME TO
	AddCol *ColumnDef // non-nil for ADD COLUMN
}

// InsertStmt is INSERT INTO (with VALUES or SELECT source).
type InsertStmt struct {
	Table     string
	Cols      []string
	Rows      [][]Expr
	Select    *SelectStmt
	OrReplace bool
}

// ResultCol is one SELECT output column.
type ResultCol struct {
	Star      bool
	StarTable string
	Expr      Expr
	Alias     string
}

// TableRef is one FROM item.
type TableRef struct {
	Name  string
	Alias string
	// On is the join condition attaching this item to the previous ones
	// (nil for the first item or comma/cross joins).
	On Expr
}

// OrderTerm is one ORDER BY term.
type OrderTerm struct {
	Expr Expr
	Desc bool
}

// SelectStmt is SELECT.
type SelectStmt struct {
	Distinct bool
	Cols     []ResultCol
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderTerm
	Limit    Expr
	Offset   Expr

	// reads is the set of columns the statement reads, computed when it
	// first runs. Like the binding of its column references, it assumes
	// the statement is not edited after it has run.
	reads *colReads
}

// UpdateStmt is UPDATE.
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Col  string
	Expr Expr
}

// DeleteStmt is DELETE FROM.
type DeleteStmt struct {
	Table string
	Where Expr
}

// BeginStmt, CommitStmt, RollbackStmt control transactions.
type BeginStmt struct{}

// CommitStmt commits.
type CommitStmt struct{}

// RollbackStmt rolls back.
type RollbackStmt struct{}

// PragmaStmt is PRAGMA name [= value] / PRAGMA name(value).
type PragmaStmt struct {
	Name  string
	Value *Value
}

// AnalyzeStmt gathers statistics (paper's Speedtest1 test 990).
type AnalyzeStmt struct{}

// VacuumStmt sweeps the database.
type VacuumStmt struct{}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropStmt) stmt()        {}
func (*AlterStmt) stmt()       {}
func (*InsertStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*BeginStmt) stmt()       {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}
func (*PragmaStmt) stmt()      {}
func (*AnalyzeStmt) stmt()     {}
func (*VacuumStmt) stmt()      {}

// Expr is any expression node.
type Expr interface{ expr() }

// Literal is a constant.
type Literal struct{ Val Value }

// Param is a ? placeholder (1-based position).
type Param struct{ Idx int }

// ColRef references table.column (Table may be empty).
type ColRef struct {
	Table string
	Col   string
	// Resolved at bind time: source index and column index; col == -1
	// denotes the rowid.
	src, col int
	bound    bool
}

// Unary is -x, +x, ~x or NOT x.
type Unary struct {
	Op string
	X  Expr
}

// Binary is a binary operator.
type Binary struct {
	Op   string
	L, R Expr
}

// Like is x [NOT] LIKE pattern.
type Like struct {
	X, Pattern Expr
	Not        bool
}

// InList is x [NOT] IN (e1, e2, ...).
type InList struct {
	X    Expr
	List []Expr
	Not  bool
}

// Between is x [NOT] BETWEEN lo AND hi.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// Call is a function or aggregate invocation.
type Call struct {
	Name string // lowercase
	Args []Expr
	Star bool // COUNT(*)
	// aggIdx is assigned during aggregate planning.
	aggIdx int
}

// CaseExpr is CASE [operand] WHEN .. THEN .. [ELSE ..] END.
type CaseExpr struct {
	Operand Expr
	Whens   []WhenClause
	Else    Expr
}

// WhenClause is one WHEN/THEN arm.
type WhenClause struct {
	Cond Expr
	Res  Expr
}

// Cast is CAST(x AS type).
type Cast struct {
	X  Expr
	To Type
}

func (*Literal) expr()  {}
func (*Param) expr()    {}
func (*ColRef) expr()   {}
func (*Unary) expr()    {}
func (*Binary) expr()   {}
func (*Like) expr()     {}
func (*InList) expr()   {}
func (*Between) expr()  {}
func (*IsNull) expr()   {}
func (*Call) expr()     {}
func (*CaseExpr) expr() {}
func (*Cast) expr()     {}
