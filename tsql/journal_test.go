package tsql

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"twine/internal/hostfs"
)

var errPowerCut = errors.New("power cut")

// powerCutFS is a host that dies in the middle of a commit. Once armed,
// the next Sync of a database file (not of a journal) still completes,
// and from then on the host drops every mutation: the state a power cut
// leaves when it lands after the pages were flushed and before the
// journal's truncate got out of the enclave.
type powerCutFS struct {
	hostfs.FS
	armed, dead atomic.Bool // the commit loop's goroutine reads what the test sets
}

func (p *powerCutFS) OpenFile(name string, flag int) (hostfs.File, error) {
	f, err := p.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &powerCutFile{File: f, fs: p, journal: strings.HasSuffix(name, "-journal")}, nil
}

func (p *powerCutFS) Remove(name string) error {
	if p.dead.Load() {
		return errPowerCut
	}
	return p.FS.Remove(name)
}

type powerCutFile struct {
	hostfs.File
	fs      *powerCutFS
	journal bool
}

func (f *powerCutFile) WriteAt(b []byte, off int64) (int, error) {
	if f.fs.dead.Load() {
		return 0, errPowerCut
	}
	return f.File.WriteAt(b, off)
}

func (f *powerCutFile) Truncate(size int64) error {
	if f.fs.dead.Load() {
		return errPowerCut
	}
	return f.File.Truncate(size)
}

func (f *powerCutFile) Sync() error {
	if f.fs.dead.Load() {
		return errPowerCut
	}
	err := f.File.Sync()
	if !f.journal && f.fs.armed.Load() {
		f.fs.dead.Store(true)
	}
	return err
}

// TestReplicaOpenKeepsWritersJournal: the shard writer's pager keeps one
// journal open for its whole life, and a replica opens the same path while
// it does. The replica's recovery pass must leave that (cold) journal
// alone, commit after commit; and when the writer then dies mid-commit,
// the journal it leaves is hot and a fresh open rolls the batch back.
func TestReplicaOpenKeepsWritersJournal(t *testing.T) {
	mem := hostfs.NewMemFS()
	host := &powerCutFS{FS: mem}
	cfg := svcCfg(host, "journal-platform")
	svc, err := OpenService(ShardConfig{Base: cfg, Shards: 1, Replicas: 2})
	if err != nil {
		t.Fatalf("OpenService: %v", err)
	}
	closed := false
	defer func() {
		if !closed {
			svc.Close()
		}
	}()
	journal := cfg.Path + "-journal"

	exec := func(sql string, args ...Value) {
		t.Helper()
		if _, err := svc.Exec(sql, args...); err != nil {
			t.Fatalf("Exec(%s): %v", sql, err)
		}
	}
	exec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
	for round := int64(0); round < 4; round++ {
		exec(`INSERT INTO kv (k, v) VALUES (?, ?)`, Int(round), Text("committed"))
		exec(`UPDATE kv SET v = ? WHERE k = 0`, Text("committed"))
		// Two reads: the dispenser hands out the writer, then the replica,
		// which lazily opens (round 0) or refreshes from the sealed file.
		for i := 0; i < 2; i++ {
			row, err := svc.QueryRow(`SELECT COUNT(*) FROM kv`)
			if err != nil || row[0].Int() != round+1 {
				t.Fatalf("round %d read %d: %v, %v", round, i, row, err)
			}
		}
		info, err := mem.Stat(journal)
		if err != nil {
			t.Fatalf("round %d: the writer's journal is gone from the host after a replica opened the shard: %v", round, err)
		}
		if round > 0 && info.Size == 0 {
			t.Fatalf("round %d: the journal was recreated empty under the writer", round)
		}
	}
	if st := svc.Stats(); st.ReplicaRefreshes == 0 {
		t.Fatalf("no replica ever refreshed; the test tests nothing: %+v", st)
	}

	// The writer dies mid-commit: journal synced, pages flushed and
	// synced, truncate never reaches the host.
	host.armed.Store(true)
	if _, err := svc.Exec(`UPDATE kv SET v = 'lost'`); err == nil {
		t.Fatal("a commit whose journal truncate never reached the host was acknowledged")
	}
	if !host.dead.Load() {
		t.Fatal("the power cut never fired")
	}
	_ = svc.Close() // the host is dead; nothing it says matters
	closed = true

	re, err := Open(svcCfg(mem, "journal-platform"))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer func() {
		re.Close()
		re.Runtime().Enclave.Destroy()
	}()
	rows, err := re.Query(`SELECT k, v FROM kv ORDER BY k`)
	if err != nil {
		t.Fatalf("query after recovery: %v", err)
	}
	if rows.Len() != 4 {
		t.Fatalf("recovered %d rows, want 4", rows.Len())
	}
	for rows.Next() {
		if r := rows.Row(); r[1].Text() != "committed" {
			t.Errorf("row %d holds %q after recovery, want the pre-batch value", r[0].Int(), r[1].Text())
		}
	}
	if _, err := mem.Stat(journal); !errors.Is(err, hostfs.ErrNotExist) {
		t.Errorf("the hot journal was not removed after replay: %v", err)
	}
}
