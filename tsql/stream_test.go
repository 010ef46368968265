package tsql

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"twine/internal/hostfs"
	"twine/internal/sgx"
)

// TestQueryStreamMatchesQuery proves the streaming cursor returns exactly
// what the materialised path returns, while holding only a bounded number
// of rows outside the in-enclave cursor at any instant.
func TestQueryStreamMatchesQuery(t *testing.T) {
	db, err := Open(svcCfg(hostfs.NewMemFS(), "stream-platform"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE ev (id INTEGER PRIMARY KEY, kind TEXT, w REAL)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if _, err := db.Exec(`INSERT INTO ev (kind, w) VALUES (?, ?)`,
			Text(string(rune('a'+i%7))), Real(float64(i)*0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`SELECT id, kind, w FROM ev`,
		`SELECT id FROM ev WHERE w > 300`,
		`SELECT kind, COUNT(*) FROM ev GROUP BY kind`, // materialising fallback shape
	}
	for _, q := range queries {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatalf("Query(%s): %v", q, err)
		}
		st, err := db.QueryStream(q)
		if err != nil {
			t.Fatalf("QueryStream(%s): %v", q, err)
		}
		if !reflect.DeepEqual(st.Cols(), rows.Cols) {
			t.Fatalf("%s: cols %v != %v", q, st.Cols(), rows.Cols)
		}
		var got [][]Value
		for st.Next() {
			got = append(got, st.Row())
		}
		if err := st.Close(); err != nil {
			t.Fatalf("stream close (%s): %v", q, err)
		}
		want := rows.All()
		if len(got) != len(want) {
			t.Fatalf("%s: streamed %d rows, materialised %d", q, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s row %d: %v != %v", q, i, got[i], want[i])
			}
		}
	}

	// Bounded memory on a scan 1500 rows long: at most one host-side fetch
	// batch (128 rows) is ever buffered — far below the full result.
	st, err := db.QueryStream(`SELECT id, kind, w FROM ev`)
	if err != nil {
		t.Fatalf("QueryStream: %v", err)
	}
	n := 0
	for st.Next() {
		n++
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n != 1500 {
		t.Fatalf("streamed %d rows, want 1500", n)
	}
	if max := st.MaxBuffered(); max > 128 {
		t.Fatalf("stream buffered up to %d rows; bound is 128", max)
	}

	// Early close frees the handle for the next statement.
	st, err = db.QueryStream(`SELECT id FROM ev`)
	if err != nil {
		t.Fatalf("QueryStream: %v", err)
	}
	for i := 0; i < 5; i++ {
		if !st.Next() {
			t.Fatalf("Next false at %d", i)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("early close: %v", err)
	}
	row, err := db.QueryRow(`SELECT COUNT(*) FROM ev`)
	if err != nil || row[0].Int() != 1500 {
		t.Fatalf("post-close query: %v %v", row, err)
	}
}

// insideFS counts the host reads that arrive while no thread is inside the
// enclave. Trusted code reaches the host through a ring ride (the enclave
// thread stays inside) or a classic OCALL (it steps out for the call), so
// once the handle is open such a read is either one of the counted classic
// OCALLs or one that nobody was charged for.
type insideFS struct {
	hostfs.FS
	enclave atomic.Pointer[sgx.Enclave]
	outside atomic.Int64
}

func (c *insideFS) OpenFile(name string, flag int) (hostfs.File, error) {
	f, err := c.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &insideFile{File: f, fs: c}, nil
}

type insideFile struct {
	hostfs.File
	fs *insideFS
}

func (f *insideFile) ReadAt(p []byte, off int64) (int, error) {
	if e := f.fs.enclave.Load(); e != nil && !e.Inside() {
		f.fs.outside.Add(1)
	}
	return f.File.ReadAt(p, off)
}

// TestQueryStreamScanRunsInsideEnclave: a streamed scan is the same trusted
// code as the materialised one, cut into fetches. It must cross the boundary
// exactly as often, read the host only while a fetch is inside the enclave
// (however long the caller dwells between fetches), and enter once for the
// query, once per batch of 128 rows and once for the close.
func TestQueryStreamScanRunsInsideEnclave(t *testing.T) {
	const (
		rows = 1000 // ~700 KiB of rows against a 64 KiB page cache
		scan = `SELECT id, pad FROM ev`
	)
	mem := hostfs.NewMemFS()
	cfg := svcCfg(mem, "stream-inside-platform")
	cfg.CacheKiB = 64
	db, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	script := []string{`CREATE TABLE ev (id INTEGER PRIMARY KEY, pad TEXT)`, `BEGIN`}
	for _, q := range script {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	pad := Text(strings.Repeat("p", 700))
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(`INSERT INTO ev (pad) VALUES (?)`, pad); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// run opens a fresh handle on the sealed file (cold caches both times)
	// and reports what the statement cost the enclave.
	run := func(name string, stmt func(db *DB) int) (crossings, ecalls int64) {
		host := &insideFS{FS: mem}
		cfg.HostFS = host
		db, err := Open(cfg)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		defer db.Close()
		host.enclave.Store(db.rt.Enclave)
		before := db.rt.Enclave.Stats()
		if n := stmt(db); n != rows {
			t.Fatalf("%s: %d rows, want %d", name, n, rows)
		}
		after := db.rt.Enclave.Stats()
		// A read from inside a classic OCALL is outside by design, and paid for.
		if out, paid := host.outside.Load(), after.OCalls-before.OCalls; out > paid {
			t.Errorf("%s: %d host reads while nobody was inside the enclave, %d classic OCALLs to account for them", name, out, paid)
		}
		return after.OCalls + after.SwitchlessCalls - before.OCalls - before.SwitchlessCalls, after.ECalls - before.ECalls
	}
	wantCrossings, wantECalls := run("Query", func(db *DB) int {
		res, err := db.Query(scan)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		return len(res.All())
	})
	if wantECalls != 1 {
		t.Fatalf("Query took %d ECALLs, want 1", wantECalls)
	}
	crossings, ecalls := run("QueryStream", func(db *DB) int {
		st, err := db.QueryStream(scan)
		if err != nil {
			t.Fatalf("QueryStream: %v", err)
		}
		n := 0
		for st.Next() {
			if n++; n%128 == 1 {
				time.Sleep(2 * time.Millisecond) // a fetch just returned: dwell outside
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("stream close: %v", err)
		}
		return n
	})
	if crossings != wantCrossings {
		t.Errorf("streamed scan crossed the boundary %d times, the materialised scan %d", crossings, wantCrossings)
	}
	if want := int64(2 + (rows+127)/128); ecalls != want {
		t.Errorf("streamed scan took %d ECALLs, want %d (query + one per 128 rows + close)", ecalls, want)
	}
}
