package litedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

func integrity(t *testing.T, db *DB) []string {
	t.Helper()
	return rowsAsText(mustQuery(t, db, `PRAGMA integrity_check`))
}

// TestIntegrityCheck runs the audit over a database that has been through
// every structural operation (splits, overflow chains, index maintenance,
// lazy deletion, DROP onto the freelist, freelist reuse) and expects "ok";
// then damages one structure at a time and expects it named.
func TestIntegrityCheck(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT, n INTEGER)`)
	mustExec(t, db, `CREATE INDEX t_n ON t (n)`)
	mustExec(t, db, `CREATE TABLE gone (id INTEGER PRIMARY KEY, v TEXT)`)
	mustExec(t, db, `BEGIN`)
	for i := 0; i < 600; i++ {
		v := strings.Repeat("x", 40+i%300)
		if i%97 == 0 {
			v = strings.Repeat("big", 2500) // overflow chain
		}
		mustExec(t, db, `INSERT INTO t (id, v, n) VALUES (?, ?, ?)`, IntVal(int64(i)), TextVal(v), IntVal(int64(i*7%101)))
		mustExec(t, db, `INSERT INTO gone (v) VALUES (?)`, TextVal(v))
	}
	mustExec(t, db, `COMMIT`)
	mustExec(t, db, `DELETE FROM t WHERE id % 3 = 0`)
	mustExec(t, db, `UPDATE t SET n = n + 1000 WHERE id % 5 = 0`)
	mustExec(t, db, `DROP TABLE gone`)
	mustExec(t, db, `INSERT INTO t (id, v, n) VALUES (100000, 'reuses a free page', 1)`)
	if got := integrity(t, db); len(got) != 1 || got[0] != "ok" {
		t.Fatalf("integrity_check on a healthy database: %v", got)
	}

	// damage rewrites one page in a transaction of its own, runs the check,
	// and rolls back so the next case starts from the healthy file.
	damage := func(name, want string, no uint32, edit func(d []byte)) {
		t.Helper()
		p := db.pager
		mustBegin(t, p)
		pg, err := p.Get(no)
		if err != nil {
			t.Fatalf("%s: Get(%d): %v", name, no, err)
		}
		if err := p.Write(pg); err != nil {
			t.Fatalf("%s: Write: %v", name, err)
		}
		edit(pg.data)
		p.Unpin(pg)
		got := strings.Join(integrity(t, db), "\n")
		if !strings.Contains(got, want) {
			t.Errorf("%s: integrity_check = %q, want a line containing %q", name, got, want)
		}
		if err := p.Rollback(); err != nil {
			t.Fatalf("%s: Rollback: %v", name, err)
		}
	}
	root := db.tables["t"].Root
	idxRoot := db.indexes["t_n"].Root
	damage("freelist count", "header says", 1, func(d []byte) {
		binary.BigEndian.PutUint32(d[hdrFreeCountOff:], binary.BigEndian.Uint32(d[hdrFreeCountOff:])+1)
	})
	damage("page kind", fmt.Sprintf("page %d has kind", root), root, func(d []byte) { d[0] = 9 })
	damage("shared child", "referenced twice", root, func(d []byte) {
		// Point the first child at the second.
		second, _, _ := parseTableInteriorCell(cellBytes(d, 1))
		binary.BigEndian.PutUint32(d[cellPtr(d, 0):], second)
	})
	damage("index entries", "entries for", idxRoot, func(d []byte) {
		// Drop the index root's last separator cell and the subtree under it.
		setCellCount(d, cellCount(d)-1)
	})
	if got := integrity(t, db); len(got) != 1 || got[0] != "ok" {
		t.Fatalf("integrity_check after the damage was rolled back: %v", got)
	}
}

// TestSameSizeUpdateKeepsPages is sql_write in miniature: an ascending
// load leaves every leaf full, then an UPDATE of every row with a payload
// of the same size must fit each row back into its own leaf (through
// defragmentation) without growing the file, and leave it consistent.
func TestSameSizeUpdateKeepsPages(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE kv (id INTEGER PRIMARY KEY, data BLOB)`)
	const rows = 600
	mustExec(t, db, `BEGIN`)
	for i := int64(1); i <= rows; i++ {
		mustExec(t, db, `INSERT INTO kv (id, data) VALUES (?, ?)`, IntVal(i), BlobVal(make([]byte, 1024)))
	}
	mustExec(t, db, `COMMIT`)
	pages := db.pager.NPages()
	for i := int64(1); i <= rows; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 1024)
		if n := mustExec(t, db, `UPDATE kv SET data = ? WHERE id = ?`, BlobVal(data), IntVal(i)); n != 1 {
			t.Fatalf("UPDATE id %d affected %d rows", i, n)
		}
	}
	if got := db.pager.NPages(); got != pages {
		t.Errorf("same-size UPDATEs grew the file from %d to %d pages", pages, got)
	}
	if got := integrity(t, db); len(got) != 1 || got[0] != "ok" {
		t.Fatalf("integrity_check after the UPDATEs: %v", got)
	}
	got := rowsAsText(mustQuery(t, db, `SELECT COUNT(*), SUM(length(data)) FROM kv`))
	if want := fmt.Sprintf("%d|%d", rows, rows*1024); len(got) != 1 || got[0] != want {
		t.Errorf("COUNT, SUM(length) = %v, want %s", got, want)
	}
}
