package core

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"twine/wasmgen"
)

// pureModule builds a read-only kernel: run(x) folds a data segment into
// a checksum and adds x. No writes — every invocation on any worker must
// return the same value for the same argument, which is what lets the
// pool tests compare concurrent results against a sequential reference.
func pureModule() []byte {
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	seg := make([]byte, 256)
	for i := range seg {
		seg[i] = byte(i*7 + 3)
	}
	m.Data(0, seg)

	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	i, s := f.AddLocal(wasmgen.I32), f.AddLocal(wasmgen.I32)
	f.I32Const(0).LocalSet(i)
	f.Block(wasmgen.BlockVoid)
	f.Loop(wasmgen.BlockVoid)
	f.LocalGet(i).I32Const(int32(len(seg))).I32GeS().BrIf(1)
	f.LocalGet(s).LocalGet(i).I32Load8U(0).I32Add().LocalSet(s)
	f.LocalGet(i).I32Const(1).I32Add().LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(s).LocalGet(0).I32Add()
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// counterModule builds a stateful worker: run() bumps a memory cell and
// returns the new value, exposing whether instances share state.
func counterModule() []byte {
	m := wasmgen.NewModule()
	m.Memory(1, 1)
	f := m.Func(wasmgen.Sig().Returns(wasmgen.I32))
	f.I32Const(0).I32Const(0).I32Load(0).I32Const(1).I32Add().I32Store(0)
	f.I32Const(0).I32Load(0)
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// White-box free-list access for tests that hold workers out of service
// or inspect them directly. Workers taken this way go back through
// p.release, the same path a completing Submit uses.
func (p *Pool) takeWorker(t *testing.T) *worker {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		t.Fatal("free list empty")
	}
	w := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return w
}

// freeLen reports the current free-list size.
func (p *Pool) freeLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

func poolRuntime(t *testing.T, tcs int) *Runtime {
	t.Helper()
	cfg := testConfig(func(c *Config) {
		c.SGX.TCSNum = tcs
	})
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	return rt
}

// TestPoolServeMatchesSequential: a batch served concurrently over the
// pool must compute exactly what a lone instance computes.
func TestPoolServeMatchesSequential(t *testing.T) {
	rt := poolRuntime(t, 4)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(pureModule())
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}

	ref, err := rt.NewInstance(mod)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	want := make([]uint64, 16)
	for i := range want {
		out, err := ref.Invoke("run", uint64(i))
		if err != nil {
			t.Fatalf("reference Invoke: %v", err)
		}
		want[i] = out[0]
	}

	pool, err := rt.NewPool(mod, PoolConfig{Workers: 4})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer pool.Close()

	got := make([]uint64, len(want))
	var mu sync.Mutex
	err = pool.Serve(len(want),
		func(i int) []uint64 { return []uint64{uint64(i)} },
		func(i int, out []uint64, err error) {
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			mu.Lock()
			got[i] = out[0]
			mu.Unlock()
		})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d = %d, want %d", i, got[i], want[i])
		}
	}
	if s := pool.Stats(); s.Requests != int64(len(want)) {
		t.Errorf("pool Requests = %d, want %d", s.Requests, len(want))
	}
	if es := rt.Enclave.Stats(); es.TCSMaxBusy > 4 {
		t.Errorf("TCSMaxBusy = %d with 4 TCS", es.TCSMaxBusy)
	}
}

// TestPoolWorkersIsolated (white-box): every worker owns a distinct wasm
// instance, WASI System and guest memory; writing one worker's memory
// must not show in another's.
func TestPoolWorkersIsolated(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(counterModule())
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 3})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	defer pool.Close()

	var workers []*worker
	for i := 0; i < pool.Size(); i++ {
		workers = append(workers, pool.takeWorker(t))
	}
	defer func() {
		for _, w := range workers {
			pool.release(w)
		}
	}()
	for i := 0; i < len(workers); i++ {
		for j := i + 1; j < len(workers); j++ {
			if workers[i].In == workers[j].In {
				t.Errorf("workers %d and %d share a wasm instance", i, j)
			}
			if workers[i].Sys == workers[j].Sys {
				t.Errorf("workers %d and %d share a WASI System", i, j)
			}
			if workers[i].arena == workers[j].arena {
				t.Errorf("workers %d and %d share an enclave arena", i, j)
			}
		}
		if workers[i].Sys == rt.Sys {
			t.Errorf("worker %d uses the runtime's primary System", i)
		}
	}

	// Mutate worker 0's guest memory through its counter; the others stay
	// untouched.
	if _, err := workers[0].Invoke("run"); err != nil {
		t.Fatal(err)
	}
	out1, err := workers[1].Invoke("run")
	if err != nil {
		t.Fatal(err)
	}
	if out1[0] != 1 {
		t.Errorf("worker 1 counter = %d after worker 0 ran; state leaked", out1[0])
	}
}

// TestPoolGoldenAnswers pins the serving contract: a worker is reset to
// the golden snapshot at the end of every request, so the default pool
// answers every request like a fresh instance — the counter module
// returns 1, 1, 1 on one worker, never 1, 2, 3 — and every served
// request paid exactly one reset.
func TestPoolGoldenAnswers(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(counterModule())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 1; i <= 3; i++ {
		out, err := pool.Submit()
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if out[0] != 1 {
			t.Errorf("submit %d returned %d, want 1: the worker kept the previous request's state", i, out[0])
		}
	}
	if s := pool.Stats(); s.Requests != 3 || s.WarmResets != s.Requests {
		t.Errorf("stats = %+v, want 3 requests and one reset each", s)
	}
}

// TestPoolSubmitAfterClose: a closed pool rejects new requests.
func TestPoolSubmitAfterClose(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(pureModule())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = pool.Close()
	if _, err := pool.Submit(0); err != ErrPoolClosed {
		t.Errorf("Submit after Close = %v, want ErrPoolClosed", err)
	}
}

// TestPoolCloseReleasesArenas: Close returns every worker's arena to the
// enclave — the idle ones at once, one held across Close when it comes
// back — and leaves its swap group, so building and closing pools for as
// long as a runtime lives never exhausts the enclave heap.
func TestPoolCloseReleasesArenas(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(pureModule())
	if err != nil {
		t.Fatal(err)
	}
	_, _, baseline := rt.Enclave.Allocator().Stats()
	for i := 0; i < 2000; i++ {
		pool, err := rt.NewPool(mod, PoolConfig{Workers: 2})
		if err != nil {
			t.Fatalf("pool %d: %v", i, err)
		}
		if _, err := pool.Submit(1); err != nil {
			t.Fatalf("pool %d Submit: %v", i, err)
		}
		if err := pool.Close(); err != nil {
			t.Fatalf("pool %d Close: %v", i, err)
		}
	}
	inUse := func() int64 { _, _, n := rt.Enclave.Allocator().Stats(); return n }
	if got := inUse(); got != baseline {
		t.Fatalf("allocator in-use %d after 2000 closed pools, want %d", got, baseline)
	}

	sg := &swapGroup{max: 4}
	pool, err := rt.NewPool(mod, PoolConfig{Workers: 2, swap: sg})
	if err != nil {
		t.Fatal(err)
	}
	held := pool.takeWorker(t)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if inUse() == baseline {
		t.Fatal("Close released the arena of a worker still serving")
	}
	pool.release(held)
	if got := inUse(); got != baseline {
		t.Errorf("allocator in-use %d after the held worker came back, want %d", got, baseline)
	}
	if n := pool.freeLen(); n != pool.Size() {
		t.Errorf("free list holds %d workers after Close, want %d", n, pool.Size())
	}
	sg.mu.Lock()
	pools, resident := len(sg.pools), sg.resident.Load()
	sg.mu.Unlock()
	if pools != 0 || resident != 0 {
		t.Errorf("swap group kept the closed pool: %d pools, %d resident", pools, resident)
	}

	last, err := rt.NewPool(mod, PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt.Enclave.Destroy()
	if err := last.Close(); err != nil {
		t.Errorf("Close after Destroy = %v, want nil", err)
	}
}

// TestNewPoolFailureReleasesArenas: a pool that fails to build, here
// because Init names an export the module lacks, hands back the arenas
// it had taken, so the allocator returns to its baseline; so does a
// tenant whose Register fails the same way.
func TestNewPoolFailureReleasesArenas(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(pureModule())
	if err != nil {
		t.Fatal(err)
	}
	_, _, baseline := rt.Enclave.Allocator().Stats()
	for i := 0; i < 5; i++ {
		if _, err := rt.NewPool(mod, PoolConfig{Workers: 2, Init: "missing"}); err == nil {
			t.Fatalf("pool %d: NewPool with a missing Init export succeeded", i)
		}
	}
	if _, _, got := rt.Enclave.Allocator().Stats(); got != baseline {
		t.Fatalf("allocator in-use %d after 5 failed pools, want %d", got, baseline)
	}
	reg := rt.NewRegistry(RegistryConfig{})
	defer reg.Close()
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("t%d", i)
		if _, err := reg.Register(name, pureModule(), TenantConfig{Workers: 2, Init: "missing"}); err == nil {
			t.Fatalf("Register %s with a missing Init export succeeded", name)
		}
	}
	if _, _, got := rt.Enclave.Allocator().Stats(); got != baseline {
		t.Fatalf("allocator in-use %d after 5 failed Registers, want %d", got, baseline)
	}
}

// TestConcurrentPlainInstancesWASI: plain NewInstance instances carry
// their own WASI System clones, so concurrent guests doing WASI traffic
// (fd_write + proc_exit here) never race on a shared descriptor table —
// the regression this pins ran all WASI calls of every instance through
// one System.
func TestConcurrentPlainInstancesWASI(t *testing.T) {
	cfg := testConfig(func(c *Config) {
		c.SGX.TCSNum = 4
		c.Stdout = io.Discard // shared writer must be concurrency-safe
	})
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(helloModule("concurrent wasi traffic\n", 7))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}

	const n = 6
	instances := make([]*Instance, n)
	for i := range instances {
		if instances[i], err = rt.NewInstance(mod); err != nil {
			t.Fatalf("NewInstance %d: %v", i, err)
		}
		if instances[i].Sys == rt.Sys {
			t.Fatal("plain instance shares the runtime's primary System")
		}
	}
	var wg sync.WaitGroup
	for i := range instances {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, err := instances[i].Run()
			if err != nil {
				t.Errorf("instance %d Run: %v", i, err)
				return
			}
			if code != 7 {
				t.Errorf("instance %d exit code = %d, want 7", i, code)
			}
		}()
	}
	wg.Wait()
	// Exit state is per-instance: each clone recorded its own proc_exit.
	for i := range instances {
		if exited, code := instances[i].Sys.Exited(); !exited || code != 7 {
			t.Errorf("instance %d Sys exited=%v code=%d", i, exited, code)
		}
	}
	if exited, _ := rt.Sys.Exited(); exited {
		t.Error("primary System saw a proc_exit; instance state leaked")
	}
}

// TestConcurrencyFidelity is the PR 3 acceptance guard: with one TCS (and
// switchless off, the bit-exact dispatch) a sequential workload's
// ECALL/OCALL/fault/eviction counters must be identical to the same
// workload on a many-TCS enclave driven sequentially — the TCS pool adds
// capacity, never costs.
func TestConcurrencyFidelity(t *testing.T) {
	run := func(tcs int) (sgxStats [4]int64, checksum uint64) {
		cfg := testConfig(func(c *Config) {
			c.SGX.EPCSize = 128 << 10
			c.SGX.EPCUsable = 64 << 10
			c.SGX.HeapSize = 8 << 20
			c.SGX.TCSNum = tcs
			c.Switchless = SwitchlessOff
		})
		rt, err := NewRuntime(cfg)
		if err != nil {
			t.Fatalf("NewRuntime: %v", err)
		}
		defer rt.Enclave.Destroy()
		mod, err := rt.LoadModule(sweepModule(16<<10, 2))
		if err != nil {
			t.Fatalf("LoadModule: %v", err)
		}
		inst, err := rt.NewInstance(mod)
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		var sum uint64
		for i := 0; i < 2; i++ {
			out, err := inst.Invoke("run")
			if err != nil {
				t.Fatalf("Invoke: %v", err)
			}
			sum = out[0]
		}
		s := rt.Enclave.Stats()
		return [4]int64{s.ECalls, s.OCalls, s.PageFaults, s.Evictions}, sum
	}

	one, sum1 := run(1)
	many, sumN := run(8)
	if one != many {
		t.Errorf("counter fidelity broken: TCS=1 %v, TCS=8 %v (ECalls, OCalls, faults, evictions)", one, many)
	}
	if sum1 != sumN {
		t.Errorf("checksum diverged: TCS=1 %#x, TCS=8 %#x", sum1, sumN)
	}
	if one[2] == 0 || one[3] == 0 {
		t.Fatal("workload did not page; fidelity test proves nothing")
	}
}

// TestInstanceConcurrentInvoke: distinct plain instances (not a pool) of
// one module run concurrently through the TCS pool and compute the
// sequential answer.
func TestInstanceConcurrentInvoke(t *testing.T) {
	rt := poolRuntime(t, 4)
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(pureModule())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rt.NewInstance(mod)
	if err != nil {
		t.Fatal(err)
	}
	refOut, err := ref.Invoke("run", 11)
	if err != nil {
		t.Fatal(err)
	}

	const n = 6
	instances := make([]*Instance, n)
	for i := range instances {
		if instances[i], err = rt.NewInstance(mod); err != nil {
			t.Fatalf("NewInstance %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for i := range instances {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				out, err := instances[i].Invoke("run", 11)
				if err != nil {
					t.Errorf("instance %d: %v", i, err)
					return
				}
				if out[0] != refOut[0] {
					t.Errorf("instance %d = %d, want %d", i, out[0], refOut[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}
