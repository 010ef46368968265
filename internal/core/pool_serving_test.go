package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twine/internal/hostfs"
	"twine/internal/wasi"
	"twine/internal/wasm"
	"twine/wasmgen"
)

// openerModule builds a WASI-dirtying guest: run(x) opens (creating)
// "req.txt" against the preopened root (fd 3) without closing it, so each
// call grows the descriptor table by one. run(0) returns errno*256 + the
// new fd, which exposes whether WASI state persists across requests: the
// table NewSystem builds always hands out fd 4 (0..2 stdio, 3 preopen), a
// dirty one counts up. run(x≠0) traps after the open.
func openerModule() []byte {
	return wasiStateModule(func(f *wasmgen.Func, w wasiImports) {
		w.openReq(f)
		f.Unreachable()
	}, func(f *wasmgen.Func, w wasiImports) {
		w.openReq(f)
		f.I32Const(256).I32Mul()
		f.I32Const(128).I32Load(0).I32Add()
	})
}

// TestPoolFIFONoStarvation is the PR 8 fairness regression: two hot
// submitters looping against a one-worker pool must not starve a queued
// third. The episode is fully sequenced — worker held, hot A queued, hot
// B queued, victim queued, worker released — and the pool's HostIO is a
// turnstile: each request waits there for the test's go-ahead, so exactly
// one request completes per turn and the order in which Submits return is
// the order the pool served them (the test lets the submitter just served
// queue again before it gives the next turn). FIFO handoff makes that order A, B,
// victim, then A and B strictly alternating, even though both hot
// submitters re-queue the moment they complete. The pre-PR 8 pool handed
// freed workers to whichever Submit won a channel race, which let the hot
// pair leapfrog the victim arbitrarily long. Run under -race in CI.
func TestPoolFIFONoStarvation(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(pureModule())
	if err != nil {
		t.Fatal(err)
	}
	turn := make(chan struct{})
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1, HostIO: func() error {
		<-turn
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	w := pool.takeWorker(t)

	const hotRounds = 25
	served := make(chan string)
	var wg sync.WaitGroup
	submitter := func(name string, rounds int) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := pool.Submit(0); err != nil {
				t.Errorf("%s submit: %v", name, err)
			}
			served <- name
		}
	}
	// Sequence the queue: hot A, then hot B, then the victim.
	for depth, name := range []string{"A", "B", "victim"} {
		rounds := hotRounds
		if name == "victim" {
			rounds = 1
		}
		wg.Add(1)
		go submitter(name, rounds)
		waitQueueDepth(t, pool, int64(depth+1))
	}

	pool.release(w)
	left := map[string]int{"A": hotRounds, "B": hotRounds, "victim": 1}
	var order []string
	for i := 0; i < 2*hotRounds+1; i++ {
		turn <- struct{}{}
		name := <-served
		order = append(order, name)
		// Let the submitter just served queue again before the next turn:
		// every submitter with requests left but one is waiting.
		left[name]--
		active := 0
		for _, n := range left {
			if n > 0 {
				active++
			}
		}
		if active > 0 {
			waitQueueDepth(t, pool, int64(active-1))
		}
	}
	wg.Wait()
	want := []string{"A", "B", "victim"}
	for len(want) < len(order) {
		want = append(want, "A", "B")
	}
	for i := range order {
		if order[i] != want[i] {
			t.Fatalf("served order %v, want %v (FIFO broken at request %d)", order, want, i+1)
		}
	}
	if s := pool.Stats(); s.Requests != 2*hotRounds+1 || s.WarmResets != s.Requests {
		t.Errorf("stats = %+v, want %d requests and one reset each", s, 2*hotRounds+1)
	}
}

// TestPoolQueueDepthCapped (satellite 2): QueueDepth is captured under
// the pool lock together with the admission counters, so it can never be
// observed above MaxQueue — here a held worker turns 10 concurrent
// Submits into a deterministic admission episode (3 queued, 7 rejected)
// while a sampler hammers Stats() the whole time.
func TestPoolQueueDepthCapped(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(pureModule())
	if err != nil {
		t.Fatal(err)
	}
	const maxQueue = 3
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1, MaxQueue: maxQueue})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	w := pool.takeWorker(t)

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := pool.Stats().QueueDepth; d > maxQueue {
				t.Errorf("QueueDepth = %d > MaxQueue = %d", d, maxQueue)
				return
			}
		}
	}()

	const submits = 10
	var rejected int64
	var wg sync.WaitGroup
	for i := 0; i < submits; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Submit(1); err != nil {
				if !errors.Is(err, ErrOverloaded) {
					t.Errorf("submit failed with %v, want ErrOverloaded", err)
				}
				atomic.AddInt64(&rejected, 1)
			}
		}()
	}
	// All 10 race admission against the held worker: exactly maxQueue are
	// admitted, the rest bounce. Wait for the episode to settle before
	// releasing, so the queued trio drains deterministically.
	waitQueueDepth(t, pool, maxQueue)
	// The rejected goroutines may still be racing admission; converge on
	// the counter before releasing so the queued trio drains alone.
	deadline := time.Now().Add(5 * time.Second)
	for pool.Stats().Rejected != submits-maxQueue {
		if time.Now().After(deadline) {
			t.Fatalf("Rejected never reached %d (now %d)", submits-maxQueue, pool.Stats().Rejected)
		}
		time.Sleep(50 * time.Microsecond)
	}
	pool.release(w)
	wg.Wait()
	close(stop)
	sampler.Wait()

	s := pool.Stats()
	want := PoolStats{Requests: maxQueue, WarmResets: maxQueue, Waits: submits, Rejected: submits - maxQueue}
	if s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
	if got := atomic.LoadInt64(&rejected); got != submits-maxQueue {
		t.Errorf("rejected submits = %d, want %d", got, submits-maxQueue)
	}
}

// TestPoolResetServing: every request sees the golden snapshot — the
// counter module reports 1 on every request, on every worker, because a
// worker is reset in place before it re-enters the free list. The
// WarmResets counter proves each request paid its reset.
func TestPoolResetServing(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(counterModule())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const n = 20
	if err := pool.Serve(n, nil, func(i int, out []uint64, err error) {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			return
		}
		if out[0] != 1 {
			t.Errorf("request %d saw counter %d; state leaked across requests", i, out[0])
		}
	}); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	s := pool.Stats()
	if s.Requests != n || s.WarmResets != n {
		t.Errorf("stats = %+v, want Requests=WarmResets=%d", s, n)
	}
	if l := pool.Latency(); l.Count != n || l.P50 <= 0 || l.P99 < l.P50 {
		t.Errorf("latency summary inconsistent: %+v", l)
	}
}

// TestPoolFdIsolation (descriptor-table half of the reset): a guest that
// opens a file per request — without closing it — must see an identical
// fd table on every one of 100 serve/reset cycles. The opener module
// returns errno*256 + the fd it was handed: always errno 0 and fd 4 on
// the table NewSystem builds.
func TestPoolFdIsolation(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(openerModule())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	for i := 0; i < 100; i++ {
		out, err := pool.Submit(0)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if out[0] != 4 {
			t.Fatalf("cycle %d returned %d, want errno 0 / fd 4 (WASI state leaked)", i, out[0])
		}
	}
}

// TestPoolColdStartServing holds the pool against its reference, a cold
// start per request: for every request, a fresh instance (NewInstance,
// one Invoke, Release) and the pool give the same answer or the same
// trap. The references run inside an 8 MiB heap, so 50 of them would
// exhaust it (a leaked arena per request fills it in ~14) unless
// Instance.Release really returns arenas.
func TestPoolColdStartServing(t *testing.T) {
	cfg := testConfig(func(c *Config) {
		c.SGX.TCSNum = 2
		c.SGX.HeapSize = 8 << 20
	})
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(trapModule())
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	arg := func(i int) uint64 { return uint64(i % 5 / 4) } // every fifth request traps
	answer := func(out []uint64, err error) string {
		var trap *wasm.Trap
		if errors.As(err, &trap) {
			return trap.Kind.String()
		}
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprint(out)
	}
	want := make([]string, n)
	for i := range want {
		ref, err := rt.NewInstance(mod)
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		want[i] = answer(ref.Invoke("run", arg(i)))
		if err := ref.Release(); err != nil {
			t.Fatal(err)
		}
	}

	pool, err := rt.NewPool(mod, PoolConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	got := make([]string, n)
	// Serve's error is the first trap, which is one of the answers
	// compared below.
	_ = pool.Serve(n, func(i int) []uint64 { return []uint64{arg(i)} }, func(i int, out []uint64, err error) {
		got[i] = answer(out, err)
	})
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: pool %s, fresh instance %s", i, got[i], want[i])
		}
	}
	if s := pool.Stats(); s.Requests != n || s.WarmResets != n {
		t.Errorf("stats = %+v, want Requests=WarmResets=%d", s, n)
	}
}

// wasiImports are the descriptor-table calls wasiStateModule's requests
// are built from.
type wasiImports struct {
	pathOpen, setRights, setFlags, fdstatGet *wasmgen.Func
}

// openReq emits path_open(3, "req.txt", CREAT, all rights) and leaves its
// errno on the stack; the new fd lands at 128.
func (w wasiImports) openReq(f *wasmgen.Func) {
	f.I32Const(3).I32Const(0).I32Const(64).I32Const(7).
		I32Const(1).                                     // oflags: CREAT
		I64Const((1 << 29) - 1).I64Const((1 << 29) - 1). // rights: all
		I32Const(0).I32Const(128).Call(w.pathOpen)
}

// wasiStateModule builds a guest with two kinds of request: run(x≠0)
// changes the descriptor table through change, run(0) observes it through
// probe; each returns what its code leaves on the stack.
func wasiStateModule(change, probe func(f *wasmgen.Func, w wasiImports)) []byte {
	m := wasmgen.NewModule()
	const ns = "wasi_snapshot_preview1"
	w := wasiImports{
		pathOpen: m.ImportFunc(ns, "path_open",
			wasmgen.Sig(wasmgen.I32, wasmgen.I32, wasmgen.I32, wasmgen.I32, wasmgen.I32,
				wasmgen.I64, wasmgen.I64, wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32)),
		setRights: m.ImportFunc(ns, "fd_fdstat_set_rights",
			wasmgen.Sig(wasmgen.I32, wasmgen.I64, wasmgen.I64).Returns(wasmgen.I32)),
		setFlags:  m.ImportFunc(ns, "fd_fdstat_set_flags", wasmgen.Sig(wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32)),
		fdstatGet: m.ImportFunc(ns, "fd_fdstat_get", wasmgen.Sig(wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32)),
	}
	m.Memory(1, 1)
	m.Data(64, []byte("req.txt"))
	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	f.Block(wasmgen.BlockVoid)
	f.LocalGet(0).I32Eqz().BrIf(0)
	change(f, w)
	f.Return()
	f.End()
	probe(f, w)
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// tenantAnswers registers module as a one-worker tenant, submits one
// request per element of requests (its arguments), and returns the
// answers in order.
func tenantAnswers(t *testing.T, rt *Runtime, module []byte, requests ...[]uint64) []uint64 {
	t.Helper()
	reg := rt.NewRegistry(RegistryConfig{})
	t.Cleanup(func() { reg.Close() })
	if _, err := reg.Register("t", module, TenantConfig{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	var got []uint64
	for _, args := range requests {
		out, err := reg.Submit("t", args...)
		if err != nil {
			t.Fatalf("Submit(%v): %v", args, err)
		}
		got = append(got, out[0])
	}
	return got
}

// TestResetFlushesGuestWrites: a request that writes a protected file and
// leaves it open loses nothing — the reset closes the descriptor, which
// flushes the write inside the serve ECALL. Three appending requests
// leave three records; dropping the descriptor unclosed left the file
// empty (logical size 0, only the metadata node on the host).
func TestResetFlushesGuestWrites(t *testing.T) {
	rt, err := NewRuntime(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Enclave.Destroy()
	for i, errno := range tenantAnswers(t, rt, logModule(), nil, nil, nil) {
		if errno != 0 {
			t.Fatalf("request %d: errno %d", i, errno)
		}
	}
	f, err := rt.PFS.Open("/log.txt", hostfs.ORead)
	if err != nil {
		t.Fatalf("open protected log: %v", err)
	}
	defer f.Close()
	if got := f.Size(); got != 3*16 {
		t.Errorf("protected log holds %d bytes after 3 requests, want %d", got, 3*16)
	}
}

// TestResetRestoresRights: a request that shrinks the preopen's rights in
// place (fd_fdstat_set_rights, no open or close) does not shrink them for
// the next request, whose path_open succeeds (errno 0, not ENOTCAPABLE).
func TestResetRestoresRights(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	module := wasiStateModule(func(f *wasmgen.Func, w wasiImports) {
		f.I32Const(3).I64Const(0).I64Const(0).Call(w.setRights)
	}, func(f *wasmgen.Func, w wasiImports) {
		w.openReq(f)
	})
	got := tenantAnswers(t, rt, module, []uint64{1}, []uint64{0})
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("shrink errno %d, then path_open errno %d; want 0 and 0 (%d is ENOTCAPABLE: the rights leaked)",
			got[0], got[1], wasi.ErrnoNotcapable)
	}
}

// TestResetRestoresFdflags: descriptor flags set in place are reset too.
// A request sets APPEND on the preopen (accepted) and on stdout (refused:
// stdout holds only the write right); the next request reads the
// preopen's flags back as 0 through fd_fdstat_get.
func TestResetRestoresFdflags(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	module := wasiStateModule(func(f *wasmgen.Func, w wasiImports) {
		f.I32Const(1).I32Const(1).Call(w.setFlags).I32Const(256).I32Mul() // stdout
		f.I32Const(3).I32Const(1).Call(w.setFlags).I32Add()               // preopen
	}, func(f *wasmgen.Func, w wasiImports) {
		// errno*65536 + the fdflags u16 at 130 (fdstat: filetype, pad, flags).
		f.I32Const(3).I32Const(128).Call(w.fdstatGet).I32Const(65536).I32Mul()
		f.I32Const(128).I32Load(0).I32Const(16).I32ShrU().I32Add()
	})
	got := tenantAnswers(t, rt, module, []uint64{1}, []uint64{0})
	if want := uint64(wasi.ErrnoNotcapable) * 256; got[0] != want {
		t.Errorf("set_flags errnos = %d, want %d (stdout refused, preopen accepted)", got[0], want)
	}
	if got[1] != 0 {
		t.Errorf("next request's fd_fdstat_get = errno %d, flags %d; want 0 and 0 (the flags leaked)", got[1]>>16, got[1]&0xffff)
	}
}

// growModule has memory (1, 4) and run(x): grow by one page, store x at
// 65536 (the grown page's first word) if x != 0, return load(65536).
func growModule() []byte {
	m := wasmgen.NewModule()
	m.Memory(1, 4)
	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	f.I32Const(1).MemoryGrow().Drop()
	f.LocalGet(0).If(wasmgen.BlockVoid)
	f.I32Const(65536).LocalGet(0).I32Store(0)
	f.End()
	f.I32Const(65536).I32Load(0)
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// TestPoolGrowDoesNotLeakAcrossRequests: request A grows memory and writes
// the new page; request B, on the same worker after its reset, grows
// memory and writes nothing. B must read the spec's zeroed page, not A's
// word — through a pool and through a registry tenant.
func TestPoolGrowDoesNotLeakAcrossRequests(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	t.Run("pool", func(t *testing.T) {
		mod, err := rt.LoadModule(growModule())
		if err != nil {
			t.Fatal(err)
		}
		pool, err := rt.NewPool(mod, PoolConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		for i, x := range []uint64{0xdead, 0, 0xbeef, 0} {
			out, err := pool.Submit(x)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if out[0] != x {
				t.Fatalf("request %d: run(%#x) read %#x from the grown page, want %#x", i, x, out[0], x)
			}
		}
	})
	t.Run("registry", func(t *testing.T) {
		got := tenantAnswers(t, rt, growModule(), []uint64{0xdead}, []uint64{0})
		if got[0] != 0xdead || got[1] != 0 {
			t.Fatalf("answers = %#x, want [0xdead 0]", got)
		}
	})
}
