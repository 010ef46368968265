package core

import (
	"bytes"
	"fmt"
	"testing"

	"twine/internal/hostfs"
	"twine/internal/sgx"
)

// dbRun captures everything observable about one embedded-DB workload run:
// the boundary counters and the WASI-visible results.
type dbRun struct {
	stats   sgx.Stats
	results string
	hostDB  []byte // raw bytes of the database file on the untrusted host
}

// runDBWorkload drives a file-backed embedded database through a mixed
// insert/query/delete workload under the given switchless mode and file
// backend, and snapshots counters plus observable results.
func runDBWorkload(t *testing.T, mode SwitchlessMode, fs FSKind) dbRun {
	t.Helper()
	host := hostfs.NewMemFS()
	rt, err := NewRuntime(testConfig(func(c *Config) {
		c.HostFS = host
		c.FS = fs
		c.Switchless = mode
	}))
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	db, err := rt.OpenDB(DBConfig{Name: "diff.db", CachePages: 32})
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := db.Exec(`BEGIN`); err != nil {
		t.Fatalf("begin: %v", err)
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO t (v) VALUES ('row-%04d')`, i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if _, err := db.Exec(`COMMIT`); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if _, err := db.Exec(`DELETE FROM t WHERE id % 7 = 0`); err != nil {
		t.Fatalf("delete: %v", err)
	}
	var out bytes.Buffer
	rows, err := db.Query(`SELECT COUNT(*), MIN(v), MAX(v) FROM t`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	for _, row := range rows.All() {
		for _, v := range row {
			fmt.Fprintf(&out, "%v|", v)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	run := dbRun{stats: rt.Enclave.Stats(), results: out.String()}
	if f, err := host.OpenFile("diff.db", hostfs.ORead); err == nil {
		info, _ := f.Stat()
		run.hostDB = make([]byte, info.Size)
		f.ReadAt(run.hostDB, 0)
		f.Close()
	}
	return run
}

// TestSwitchlessOffCountsBitIdentical is the off-mode half of the PR 2
// acceptance criteria: with the ring disabled the refactored dispatch
// helpers must produce exactly the pre-switchless counters — no switchless
// activity, deterministic ECALL/OCALL counts across identical runs.
func TestSwitchlessOffCountsBitIdentical(t *testing.T) {
	a := runDBWorkload(t, SwitchlessOff, FSIPFS)
	b := runDBWorkload(t, SwitchlessOff, FSIPFS)

	if a.stats.SwitchlessCalls != 0 || a.stats.FallbackOCalls != 0 || a.stats.WorkerWakeups != 0 {
		t.Errorf("switchless counters moved with the ring off: %+v", a.stats)
	}
	if a.stats.ECalls != b.stats.ECalls || a.stats.OCalls != b.stats.OCalls {
		t.Errorf("off-mode counts not deterministic: %+v vs %+v", a.stats, b.stats)
	}
	if a.stats.PageFaults != b.stats.PageFaults || a.stats.Evictions != b.stats.Evictions {
		t.Errorf("off-mode paging not deterministic: %+v vs %+v", a.stats, b.stats)
	}
	if a.stats.OCalls == 0 {
		t.Fatal("workload performed no OCALLs; the differential proves nothing")
	}
	if a.results != b.results {
		t.Errorf("off-mode results differ: %q vs %q", a.results, b.results)
	}
}

// TestSwitchlessDifferentialIPFS is the on-mode half over the trusted
// backend: every boundary request
// must either ride the ring or fall back, conserving the total —
// OCalls_off == OCalls_on + SwitchlessCalls_on — with byte-identical
// observable results and bit-identical EPC paging.
func TestSwitchlessDifferentialIPFS(t *testing.T) {
	off := runDBWorkload(t, SwitchlessOff, FSIPFS)
	on := runDBWorkload(t, SwitchlessAuto, FSIPFS)

	if off.stats.ECalls != on.stats.ECalls {
		t.Errorf("ECalls: off=%d on=%d", off.stats.ECalls, on.stats.ECalls)
	}
	if got := on.stats.OCalls + on.stats.SwitchlessCalls; got != off.stats.OCalls {
		t.Errorf("request conservation violated: off OCalls=%d, on OCalls+Switchless=%d (%+v)",
			off.stats.OCalls, got, on.stats)
	}
	if on.stats.SwitchlessCalls == 0 {
		t.Error("ring never engaged; the differential proves nothing")
	}
	if off.stats.PageFaults != on.stats.PageFaults || off.stats.Evictions != on.stats.Evictions {
		t.Errorf("EPC paging diverged: off=%+v on=%+v", off.stats, on.stats)
	}
	if off.results != on.results {
		t.Errorf("query results differ:\noff: %q\non:  %q", off.results, on.results)
	}
}

// TestSwitchlessDifferentialHostFS is the same differential over the
// untrusted-POSIX backend, where every database write is a host call: the
// database file on the host must be byte-identical, and requests are
// conserved exactly — a host call is one crossing, ridden or not.
func TestSwitchlessDifferentialHostFS(t *testing.T) {
	off := runDBWorkload(t, SwitchlessOff, FSHost)
	on := runDBWorkload(t, SwitchlessAuto, FSHost)

	if off.results != on.results {
		t.Errorf("query results differ:\noff: %q\non:  %q", off.results, on.results)
	}
	if !bytes.Equal(off.hostDB, on.hostDB) {
		t.Errorf("host database bytes differ: off=%d bytes, on=%d bytes",
			len(off.hostDB), len(on.hostDB))
	}
	if off.stats.ECalls != on.stats.ECalls {
		t.Errorf("ECalls: off=%d on=%d", off.stats.ECalls, on.stats.ECalls)
	}
	if got := on.stats.OCalls + on.stats.SwitchlessCalls; got != off.stats.OCalls {
		t.Errorf("request conservation violated: off OCalls=%d, on OCalls+Switchless=%d (%+v)",
			off.stats.OCalls, got, on.stats)
	}
	if on.stats.SwitchlessCalls == 0 {
		t.Error("ring never engaged on the host backend")
	}
}

// TestSwitchlessStdoutByteIdentical runs the hello-world guest in both
// modes: stdout and the exit code are WASI-visible results and must match.
func TestSwitchlessStdoutByteIdentical(t *testing.T) {
	run := func(mode SwitchlessMode) (string, uint32) {
		var out bytes.Buffer
		rt, err := NewRuntime(testConfig(func(c *Config) {
			c.Stdout = &out
			c.Switchless = mode
		}))
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		mod, err := rt.LoadModule(helloModule("switchless says hi\n", 3))
		if err != nil {
			t.Fatalf("LoadModule: %v", err)
		}
		inst, err := rt.NewInstance(mod)
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		code, err := inst.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out.String(), code
	}
	offOut, offCode := run(SwitchlessOff)
	onOut, onCode := run(SwitchlessAuto)
	if offOut != onOut || offCode != onCode {
		t.Errorf("observable run differs: off=(%q,%d) on=(%q,%d)", offOut, offCode, onOut, onCode)
	}
}
