// Package litedb is an embeddable SQL database engine written for the
// TWINE reproduction as the stand-in for SQLite v3.32.3 (README
// "Architecture map"). It mirrors SQLite's architecture — a VFS
// abstraction at the bottom, a 4 KiB pager with a 2,048-page cache and a
// rollback journal, B+trees for tables and indexes, SQLite's serial-type
// record format, and a SQL front end (tokenizer, parser, planner,
// tree-walking executor).
//
// Differences from SQLite that matter for interpreting benchmark results:
// execution is a cursor tree walk rather than a VDBE, and B-tree deletion
// is lazy (pages are freed when empty rather than rebalanced). Table scans
// are shaped like SQLite's, though: a scan holds each leaf pinned while it
// reads the leaf's rows, a SELECT decodes only the columns it references
// into one row buffer reused from row to row, and a rowid conjunct that
// the range scan enforces exactly is not evaluated again per row. One more
// lives here. The journal runs in SQLite's TRUNCATE mode, not its default
// DELETE mode: one journal file per open
// database, written from offset 0 by every transaction, truncated to zero
// length at commit and deleted at Close. A journal found at open is
// replayed only if it is hot (valid header and at least one complete
// record) and is otherwise left untouched, since another handle may own
// it. Over a protected file system the per-transaction create, seal, sync
// and unlink of DELETE mode cost more than the transaction's own writes;
// the paper's §V-F makes the same kind of departure from stock IPFS.
// JournalMode has the full lifecycle and the recovery rule.
package litedb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type enumerates SQL storage classes (SQLite's affinity model reduced to
// storage classes).
type Type int

// Storage classes, in SQLite's cross-type comparison order.
const (
	Null Type = iota
	Integer
	Real
	Text
	Blob
)

func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case Integer:
		return "INTEGER"
	case Real:
		return "REAL"
	case Text:
		return "TEXT"
	case Blob:
		return "BLOB"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Value is one SQL value.
type Value struct {
	typ Type
	i   int64
	f   float64
	s   string
	b   []byte
}

// Constructors.

// NullVal returns the SQL NULL.
func NullVal() Value { return Value{typ: Null} }

// IntVal wraps an INTEGER.
func IntVal(v int64) Value { return Value{typ: Integer, i: v} }

// RealVal wraps a REAL.
func RealVal(v float64) Value { return Value{typ: Real, f: v} }

// TextVal wraps a TEXT.
func TextVal(v string) Value { return Value{typ: Text, s: v} }

// BlobVal wraps a BLOB (the slice is not copied).
func BlobVal(v []byte) Value { return Value{typ: Blob, b: v} }

// Type returns the storage class.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == Null }

// Int returns the value coerced to INTEGER (SQLite CAST semantics for the
// classes we store).
func (v Value) Int() int64 {
	switch v.typ {
	case Integer:
		return v.i
	case Real:
		return int64(v.f)
	case Text:
		n, _ := strconv.ParseInt(strings.TrimSpace(prefixNumber(v.s)), 10, 64)
		return n
	default:
		return 0
	}
}

// Real returns the value coerced to REAL.
func (v Value) Real() float64 {
	switch v.typ {
	case Integer:
		return float64(v.i)
	case Real:
		return v.f
	case Text:
		f, _ := strconv.ParseFloat(strings.TrimSpace(prefixNumber(v.s)), 64)
		return f
	default:
		return 0
	}
}

// prefixNumber trims a string to its leading numeric prefix, as SQLite's
// text-to-number coercion does.
func prefixNumber(s string) string {
	s = strings.TrimSpace(s)
	end := 0
	seenDigit := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= '0' && c <= '9' {
			seenDigit = true
			end = i + 1
			continue
		}
		if (c == '+' || c == '-') && i == 0 {
			end = i + 1
			continue
		}
		if c == '.' || c == 'e' || c == 'E' {
			end = i + 1
			continue
		}
		break
	}
	if !seenDigit {
		return "0"
	}
	return s[:end]
}

// Text returns the value coerced to TEXT.
func (v Value) Text() string {
	switch v.typ {
	case Text:
		return v.s
	case Integer:
		return strconv.FormatInt(v.i, 10)
	case Real:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case Blob:
		return string(v.b)
	default:
		return ""
	}
}

// Blob returns the raw bytes for BLOBs (nil otherwise).
func (v Value) Blob() []byte {
	if v.typ == Blob {
		return v.b
	}
	return nil
}

// Bool applies SQLite truthiness: NULL is false, numbers by non-zero.
func (v Value) Bool() bool {
	switch v.typ {
	case Null:
		return false
	case Integer:
		return v.i != 0
	case Real:
		return v.f != 0
	default:
		return v.Real() != 0
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.typ {
	case Null:
		return "NULL"
	case Blob:
		return fmt.Sprintf("x'%x'", v.b)
	case Text:
		return v.s
	default:
		return v.Text()
	}
}

// Compare orders two values with SQLite semantics: NULL < numbers < TEXT
// < BLOB; INTEGER and REAL compare numerically across classes.
func Compare(a, b Value) int {
	ra, rb := rankOf(a.typ), rankOf(b.typ)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // numeric
		if a.typ == Integer && b.typ == Integer {
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.Real(), b.Real()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		case math.IsNaN(af) && !math.IsNaN(bf):
			return -1
		case !math.IsNaN(af) && math.IsNaN(bf):
			return 1
		default:
			return 0
		}
	case 2: // text
		return strings.Compare(a.s, b.s)
	default: // blob
		return compareBytes(a.b, b.b)
	}
}

func rankOf(t Type) int {
	switch t {
	case Null:
		return 0
	case Integer, Real:
		return 1
	case Text:
		return 2
	default:
		return 3
	}
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// Equal reports value equality under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// CompareRows orders two rows column-wise with per-column descending
// flags (nil desc means all ascending).
func CompareRows(a, b []Value, desc []bool) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		c := Compare(a[i], b[i])
		if c != 0 {
			if desc != nil && i < len(desc) && desc[i] {
				return -c
			}
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}
