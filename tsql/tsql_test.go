package tsql_test

import (
	"bytes"
	"testing"

	"twine/internal/hostfs"
	"twine/tsql"
)

func smallCfg(mutate ...func(*tsql.Config)) tsql.Config {
	cfg := tsql.Config{PlatformSeed: "tsql-test"}
	cfg.SGX.Mode = 0
	cfg.SGX.EPCSize = 16 << 20
	cfg.SGX.EPCUsable = 12 << 20
	cfg.SGX.HeapSize = 96 << 20
	cfg.SGX.ReservedSize = 4 << 20
	cfg.CacheKiB = 256
	for _, m := range mutate {
		m(&cfg)
	}
	return cfg
}

func TestTrustedDatabaseEndToEnd(t *testing.T) {
	host := hostfs.NewMemFS()
	db, err := tsql.Open(smallCfg(func(c *tsql.Config) { c.HostFS = host; c.Path = "bank.db" }))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := db.Exec(`CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner TEXT, balance INTEGER)`); err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Exec(`INSERT INTO accounts (owner, balance) VALUES (?, ?)`,
			tsql.Text("CONFIDENTIAL-OWNER"), tsql.Int(int64(100+i))); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	row, err := db.QueryRow(`SELECT COUNT(*), SUM(balance) FROM accounts`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if row[0].Int() != 20 || row[1].Int() != 2190 {
		t.Errorf("row = %v", row)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The host only ever sees ciphertext.
	raw, err := host.OpenFile("bank.db", hostfs.ORead)
	if err != nil {
		t.Fatalf("host open: %v", err)
	}
	defer raw.Close()
	info, _ := raw.Stat()
	disk := make([]byte, info.Size)
	raw.ReadAt(disk, 0)
	if bytes.Contains(disk, []byte("CONFIDENTIAL-OWNER")) {
		t.Fatal("plaintext on untrusted host")
	}

	// Same platform reopens; the data is intact.
	db2, err := tsql.Open(smallCfg(func(c *tsql.Config) { c.HostFS = host; c.Path = "bank.db" }))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	row, err = db2.QueryRow(`SELECT COUNT(*) FROM accounts`)
	if err != nil || row[0].Int() != 20 {
		t.Fatalf("reopened count = %v, %v", row, err)
	}
}

func TestForeignPlatformCannotOpen(t *testing.T) {
	host := hostfs.NewMemFS()
	db, err := tsql.Open(smallCfg(func(c *tsql.Config) { c.HostFS = host; c.Path = "sealed.db" }))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db.Exec(`CREATE TABLE t (x INTEGER)`)
	db.Close()

	_, err = tsql.Open(smallCfg(func(c *tsql.Config) {
		c.HostFS = host
		c.Path = "sealed.db"
		c.PlatformSeed = "a-different-cpu"
	}))
	if err == nil {
		t.Fatal("database sealed on one platform opened on another")
	}
}

func TestInMemoryDatabase(t *testing.T) {
	db, err := tsql.Open(smallCfg(func(c *tsql.Config) { c.Path = ":memory:" }))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.Exec(`CREATE TABLE t (v REAL)`)
	db.Exec(`INSERT INTO t VALUES (1.5), (2.5)`)
	row, err := db.QueryRow(`SELECT AVG(v) FROM t`)
	if err != nil || row[0].Real() != 2.0 {
		t.Errorf("avg = %v, %v", row, err)
	}
}
