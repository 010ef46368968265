package tsql

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"twine/internal/hostfs"
)

// TestGroupCommitFallbackRunsInEnclave pins the replay half of
// commitBatch: when a statement fails, the batch rolls back and every
// request re-runs alone, and that re-run is trusted code, so it happens
// inside an ECALL of its own. Only the failing statement reports an
// error; its batch-mates commit.
func TestGroupCommitFallbackRunsInEnclave(t *testing.T) {
	svc, err := OpenService(ShardConfig{Base: svcCfg(hostfs.NewMemFS(), "fallback")})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	sh := svc.shards[0]
	ecalls := func() int64 { return sh.writer.rt.Enclave.Stats().ECalls }
	ids := func() [][]Value {
		t.Helper()
		rows, err := svc.Query(`SELECT id FROM t ORDER BY id`)
		if err != nil {
			t.Fatal(err)
		}
		return rows.All()
	}

	// One request, two statements: the batch ECALL fails on the second,
	// the replay ECALL commits the first and fails on the second again.
	e0, s0 := ecalls(), svc.Stats()
	_, err = svc.Exec(`INSERT INTO t VALUES (1, 'a'); INSERT INTO t VALUES (1, 'b')`)
	if err == nil || !strings.Contains(err.Error(), "UNIQUE") {
		t.Fatalf("duplicate key: got %v", err)
	}
	if d := ecalls() - e0; d != 2 {
		t.Errorf("one replayed request: %d ECALLs, want 2 (batch + replay)", d)
	}
	if st := svc.Stats(); st.GroupFallbacks-s0.GroupFallbacks != 1 {
		t.Errorf("GroupFallbacks moved by %d, want 1", st.GroupFallbacks-s0.GroupFallbacks)
	}
	if got := ids(); !reflect.DeepEqual(got, [][]Value{{Int(1)}}) {
		t.Fatalf("rows after the failed pair: %v", got)
	}

	// Three requests in one batch, the middle one bad. Holding the writer
	// handle parks the commit loop inside commitBatch with the blocker in
	// hand (GroupCommits moves before the lock is taken), so the next
	// three submissions are drained together once it is released.
	e0, s0 = ecalls(), svc.Stats()
	sh.wh.mu.Lock()
	blocker := svc.submit(0, &writeReq{sql: `INSERT INTO t VALUES (2, 'c')`, stmtIdx: -1})
	for svc.Stats().GroupCommits == s0.GroupCommits {
		runtime.Gosched()
	}
	good1 := svc.submit(0, &writeReq{sql: `INSERT INTO t VALUES (3, 'd')`, stmtIdx: -1})
	bad := svc.submit(0, &writeReq{sql: `INSERT INTO t VALUES (1, 'e')`, stmtIdx: -1})
	good2 := svc.submit(0, &writeReq{sql: `INSERT INTO t VALUES (4, 'f')`, stmtIdx: -1})
	sh.wh.mu.Unlock()
	for name, w := range map[string]chan writeResp{"blocker": blocker, "good1": good1, "good2": good2} {
		if r := <-w; r.err != nil || r.n != 1 {
			t.Errorf("%s: n=%d err=%v, want 1 row and no error", name, r.n, r.err)
		}
	}
	if r := <-bad; r.err == nil || !strings.Contains(r.err.Error(), "UNIQUE") {
		t.Errorf("bad request: got %v", r.err)
	}
	st := svc.Stats()
	if st.GroupCommits-s0.GroupCommits != 2 || st.GroupedStmts-s0.GroupedStmts != 4 ||
		st.GroupFallbacks-s0.GroupFallbacks != 1 {
		t.Fatalf("batching did not take the planned shape: before %+v after %+v", s0, st)
	}
	// blocker's batch + the failed batch + one replay per request in it.
	if d := ecalls() - e0; d != 1+1+3 {
		t.Errorf("three replayed requests: %d ECALLs, want 5", d)
	}
	if got := ids(); !reflect.DeepEqual(got, [][]Value{{Int(1)}, {Int(2)}, {Int(3)}, {Int(4)}}) {
		t.Fatalf("rows after the failed batch: %v", got)
	}
	if _, err := svc.Exec(`INSERT INTO t VALUES (5, 'g')`); err != nil {
		t.Fatalf("Exec after a fallback: %v", err)
	}
}
