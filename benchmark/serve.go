package main

import (
	"fmt"
	"math/bits"
	"time"

	"twine"
	"twine/internal/sgx"
	"twine/internal/wasm"
	"twine/wasmgen"
)

// serve_tenants: eight tenants of one small shared guest behind the
// multi-tenant registry. The guest does almost nothing, so the cost of a
// request is the front door itself: lookup, queue, ECALL, warm reset and
// one fd_write ring ride. It stresses exactly what `kernels` bypasses.
const (
	serveTenants = 8
	serveClients = 2
	segOff       = 64  // guest address of the checksummed segment
	segLen       = 256 // its length
	bodyOff      = 512 // guest address of the 16-byte response body
	loopWrites   = 1000
)

func serveSegment() []byte {
	seg := make([]byte, segLen)
	for i := range seg {
		seg[i] = byte(i*29 + 7)
	}
	return seg
}

// segmentSum is what folding the segment adds to the guest's seed.
var segmentSum = func() (s uint32) {
	for _, b := range serveSegment() {
		s += uint32(b)
	}
	return s
}()

// serveChecksum is the host's own computation of what run(x) returns.
func serveChecksum(x uint32) uint32 { return x + segmentSum }

// result32 is the i32 result of a guest call.
func result32(out []uint64, err error) (uint32, error) {
	if err != nil {
		return 0, err
	}
	return uint32(out[0]), nil
}

// serveGuest assembles the tenant module. run(x) folds the 256-byte
// segment into a checksum seeded by x, writes the 16-byte body to stdout
// through one fd_write, and returns the checksum. loop() issues
// loopWrites such writes and nothing else (the wasi.fd_write_ns unit).
func serveGuest() []byte {
	m := wasmgen.NewModule()
	fdWrite := m.ImportFunc("wasi_snapshot_preview1", "fd_write",
		wasmgen.Sig(wasmgen.I32, wasmgen.I32, wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	m.Memory(1, 1)
	m.Data(segOff, serveSegment())
	m.Data(bodyOff, []byte("twine-bench-ok!\n"))

	// emitWrite stores the iovec {bodyOff, 16} at 0 and calls
	// fd_write(1, 0, 1, 32).
	emitWrite := func(f *wasmgen.Func) {
		f.I32Const(0).I32Const(bodyOff).I32Store(0)
		f.I32Const(4).I32Const(16).I32Store(0)
		f.I32Const(1).I32Const(0).I32Const(1).I32Const(32).Call(fdWrite).Drop()
	}
	// emitCount runs body while local i counts 0..n-1.
	emitCount := func(f *wasmgen.Func, i uint32, n int32, body func()) {
		f.I32Const(0).LocalSet(i)
		f.Block(wasmgen.BlockVoid)
		f.Loop(wasmgen.BlockVoid)
		f.LocalGet(i).I32Const(n).I32GeS().BrIf(1)
		body()
		f.LocalGet(i).I32Const(1).I32Add().LocalSet(i)
		f.Br(0)
		f.End()
		f.End()
	}

	run := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	i, s := run.AddLocal(wasmgen.I32), run.AddLocal(wasmgen.I32)
	run.LocalGet(0).LocalSet(s)
	emitCount(run, i, segLen, func() {
		run.LocalGet(s).LocalGet(i).I32Load8U(segOff).I32Add().LocalSet(s)
	})
	emitWrite(run)
	run.LocalGet(s)
	run.End()
	m.Export("run", run)

	loop := m.Func(wasmgen.Sig())
	j := loop.AddLocal(wasmgen.I32)
	emitCount(loop, j, loopWrites, func() { emitWrite(loop) })
	loop.End()
	m.Export("loop", loop)
	m.ExportMemory("memory")
	return m.Bytes()
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i) }

// serveDraw turns an op's random draw into (tenant, argument).
func serveDraw(seed int64, client int, i int64) (int, uint32) {
	h := mix(seed, client, i)
	return int(h % serveTenants), uint32(h >> 16)
}

// submitter serves one request for a tenant and returns the checksum.
type submitter func(tenant int, x uint32) (uint32, error)

func serveStack(name string, clients int, seed int64, submit submitter, closeFn func()) *stack {
	return &stack{name: name, clients: clients, close: closeFn,
		op: func(c int, i int64) error {
			tenant, x := serveDraw(seed, c, i)
			got, err := submit(tenant, x)
			if err != nil {
				return err
			}
			if want := serveChecksum(x); got != want {
				return fmt.Errorf("serve: tenant %d run(%d) = %d, want %d", tenant, x, got, want)
			}
			return nil
		}}
}

// newRegistryStack is the front door: one zero-value runtime, a
// zero-value registry and serveTenants zero-value tenants of one binary.
func newRegistryStack(cfg twine.Config, clients int, seed int64) (*stack, *twine.Runtime, *twine.Registry, error) {
	rt, err := twine.NewRuntime(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	reg := rt.NewRegistry(twine.RegistryConfig{})
	bin := serveGuest()
	for i := 0; i < serveTenants; i++ {
		if _, err := reg.Register(tenantName(i), bin, twine.TenantConfig{}); err != nil {
			reg.Close()
			rt.Enclave.Destroy()
			return nil, nil, nil, err
		}
	}
	names := make([]string, serveTenants)
	for i := range names {
		names[i] = tenantName(i)
	}
	st := serveStack("Registry.Submit", clients, seed, func(tenant int, x uint32) (uint32, error) {
		return result32(reg.Submit(names[tenant], uint64(x)))
	}, func() { _ = reg.Close(); rt.Enclave.Destroy() })
	st.probe = &probe{enclaves: []*sgx.Enclave{rt.Enclave}, retries: func() int64 { return rt.HostRetryStats().Retries }}
	// After the run every tenant must have served, and none may have
	// quarantined a worker: a fault-free run repairs nothing.
	st.finish = func() error {
		rs := reg.Stats()
		for name, ts := range rs.PerTenant {
			if ts.Pool.Requests == 0 || ts.Pool.Quarantined != 0 {
				return fmt.Errorf("serve: %s served %d requests, quarantined %d workers", name, ts.Pool.Requests, ts.Pool.Quarantined)
			}
		}
		return nil
	}
	return st, rt, reg, nil
}

func serveWorkload() workload {
	return workload{
		name:    "serve_tenants",
		why:     "Registry.Submit to 8 tenants of one tiny guest from 2 clients: core, sgx and wasi overhead dominate, the multi-tenant front door of the north star",
		warmOps: sz.warmServe,
		front: func(seed int64) (*stack, error) {
			st, _, _, err := newRegistryStack(twine.Config{}, serveClients, seed)
			return st, err
		},
		trace: traceServe,
	}
}

func traceServe(t *tracer) error {
	bin := serveGuest()
	var stacks []*stack
	defer func() { closeAll(stacks) }()

	// a: the bare guest, outside any enclave, fd_write stubbed out.
	bare, err := bareServeInstance(bin)
	if err != nil {
		return err
	}
	stacks = append(stacks, serveStack("a wasm.Instance.Invoke", 1, t.seed, func(_ int, x uint32) (uint32, error) {
		return result32(bare.Invoke("run", uint64(x)))
	}, func() {}))

	// b: one instance in the enclave. Stdout is a sink, as the pool's
	// is, so the guest's fd_write rides the ring like it does behind
	// the front door.
	rtB, err := twine.NewRuntime(twine.Config{Stdout: twine.Discard})
	if err != nil {
		return err
	}
	modB, err := rtB.LoadModule(bin)
	if err != nil {
		rtB.Enclave.Destroy()
		return err
	}
	instB, err := rtB.NewInstance(modB)
	if err != nil {
		rtB.Enclave.Destroy()
		return err
	}
	stacks = append(stacks, serveStack("b core.Instance.Invoke", 1, t.seed, func(_ int, x uint32) (uint32, error) {
		return result32(instB.Invoke("run", uint64(x)))
	}, rtB.Enclave.Destroy))

	// c: a pool of one stateful worker.
	rtC, err := twine.NewRuntime(twine.Config{})
	if err != nil {
		return err
	}
	modC, err := rtC.LoadModule(bin)
	if err != nil {
		rtC.Enclave.Destroy()
		return err
	}
	pool, err := rtC.NewPool(modC, twine.PoolConfig{Workers: 1})
	if err != nil {
		rtC.Enclave.Destroy()
		return err
	}
	stacks = append(stacks, serveStack("c Pool.Submit", 1, t.seed, func(_ int, x uint32) (uint32, error) {
		return result32(pool.Submit(uint64(x)))
	}, func() { _ = pool.Close(); rtC.Enclave.Destroy() }))

	// d: the registry, one client, on the interposer; then the untraced
	// front door, also with one client, to close the ladder against.
	top, rtD, regD, err := newRegistryStack(twine.Config{HostFS: t.fs}, 1, t.seed)
	if err != nil {
		return err
	}
	top.name = "d Registry.Submit traced"
	top.probe.fs = t.fs
	stacks = append(stacks, top)
	full, _, _, err := newRegistryStack(twine.Config{}, 1, t.seed)
	if err != nil {
		return err
	}
	stacks = append(stacks, full)

	t.warm(stacks, sz.ladderWarmServe)
	pre := regD.Stats()
	before, after, n := t.counted(top, sz.countServe)
	t.setCounts(before, after, n, 0)
	post := regD.Stats()
	var waits, resets, colds, quarantined int64
	for name, ts := range post.PerTenant {
		p0 := pre.PerTenant[name].Pool
		waits += ts.Pool.Waits - p0.Waits
		resets += ts.Pool.WarmResets - p0.WarmResets
		colds += ts.Pool.ColdStarts - p0.ColdStarts
		quarantined += ts.Pool.Quarantined
	}
	t.set("core.pool_waits_per_op", float64(waits)/float64(n))
	t.set("core.warm_resets_per_op", float64(resets)/float64(n))
	t.set("core.cold_starts_per_op", float64(colds)/float64(n))
	t.set("core.quarantined", float64(quarantined))
	t.set("core.compiled_modules", float64(post.CompiledModules))
	t.set("core.compile_hits", float64(post.CompileHits))

	r := t.interleave(stacks, t.seconds)
	t.set("wasm.guest_self_us", r[0].p50us)
	t.set("core.invoke_self_us", r[1].p50us-r[0].p50us)
	t.set("core.pool_self_us", r[2].p50us-r[1].p50us)
	t.set("core.registry_self_us", r[3].p50us-r[2].p50us)
	t.closure(r[3], r[4])
	for i, st := range stacks {
		t.note("rung %-28s p50 %9.2f us  %9.0f ops/s", st.name, r[i].p50us, r[i].opsPerS)
	}

	// The registry's own histogram must tell the same story as the
	// clock outside: same power-of-two bucket, give or take one.
	hist := regD.Stats().PerTenant[tenantName(0)].Latency.P50
	histUs := float64(hist) / 1e3
	t.set("core.hist_p50_us", histUs)
	if d := bucketOf(histUs/2) - bucketOf(r[3].p50us); d < -1 || d > 1 {
		t.note("core.hist_p50_us %.0f us disagrees with the outside p50 %.2f us by more than one bucket", histUs, r[3].p50us)
	}
	t.finish(top)
	t.finish(full)

	unitsSGX(t, rtD.Enclave)
	if err := unitsWasmInstance(t, bin); err != nil {
		return err
	}
	if err := unitsWASI(t, bin); err != nil {
		return err
	}
	return unitsSwap(t, bin)
}

// bucketOf is the index of the power-of-two microsecond bucket holding us
// (the registry histogram's own bucketing). The histogram reports a
// bucket's upper bound, so callers halve it first.
func bucketOf(us float64) int {
	if us < 1 {
		return 0
	}
	return bits.Len64(uint64(us))
}

// bareServeInstance instantiates the guest outside the enclave with a
// stub fd_write that accepts the bytes and does nothing.
func bareServeInstance(bin []byte) (*wasm.Instance, error) {
	mod, err := wasm.Decode(bin)
	if err != nil {
		return nil, err
	}
	c, err := wasm.Compile(mod)
	if err != nil {
		return nil, err
	}
	return wasm.Instantiate(c, stubImports(), wasm.Config{})
}

func stubImports() *wasm.ImportObject {
	imp := wasm.NewImportObject()
	imp.AddFunc(wasm.HostFunc{Module: "wasi_snapshot_preview1", Name: "fd_write",
		Type: wasm.FuncType{Params: []wasm.ValueType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, Results: []wasm.ValueType{wasm.I32}},
		Fn: func(in *wasm.Instance, a []uint64) ([]uint64, error) {
			if err := in.Memory().WriteU32(uint32(a[3]), 16); err != nil {
				return nil, err
			}
			return in.Ret1(0), nil
		}})
	return imp
}

// unitsWasmInstance times the three ways a worker's guest state comes to
// be: full instantiation, instantiation from a snapshot, and in-place
// reset. Warm serving rests on reset being the cheapest; if it is not,
// the run fails (ROADMAP item 1 calls that inversion a bug either way).
func unitsWasmInstance(t *tracer, bin []byte) error {
	mod, err := wasm.Decode(bin)
	if err != nil {
		return err
	}
	c, err := wasm.Compile(mod)
	if err != nil {
		return err
	}
	imp := stubImports()
	in, err := wasm.Instantiate(c, imp, wasm.Config{})
	if err != nil {
		return err
	}
	snap := in.Snapshot()
	var ierr error
	// The three are timed in turn over several passes so that a burst of
	// host noise cannot invert their order.
	var full, fromSnap, reset []float64
	for pass := 0; pass < 5; pass++ {
		full = append(full, timeCalls(unitCalls/5, func() {
			if _, err := wasm.Instantiate(c, imp, wasm.Config{}); err != nil {
				ierr = err
			}
		})/1e3)
		fromSnap = append(fromSnap, timeCalls(unitCalls/5, func() {
			if _, err := wasm.InstantiateFromSnapshot(c, imp, snap, wasm.Config{}); err != nil {
				ierr = err
			}
		})/1e3)
		reset = append(reset, timeCalls(unitCalls/5, func() {
			if err := in.ResetFromSnapshot(snap); err != nil {
				ierr = err
			}
		})/1e3)
	}
	if ierr != nil {
		return ierr
	}
	f, s, r := median(full), median(fromSnap), median(reset)
	t.set("wasm.instantiate_us", f)
	t.set("wasm.snapshot_instantiate_us", s)
	t.set("wasm.reset_us", r)
	if r > f || r > s {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("wasm: in-place reset (%.2f us) is not the cheapest way to a fresh guest (instantiate %.2f us, from snapshot %.2f us)", r, f, s)
		}
	}
	return nil
}

// unitsWASI times one fd_write from inside the enclave: a guest loop of
// loopWrites writes to a sink stdout, per write.
func unitsWASI(t *tracer, bin []byte) error {
	rt, err := twine.NewRuntime(twine.Config{Stdout: twine.Discard})
	if err != nil {
		return err
	}
	defer rt.Enclave.Destroy()
	mod, err := rt.LoadModule(bin)
	if err != nil {
		return err
	}
	inst, err := rt.NewInstance(mod)
	if err != nil {
		return err
	}
	var ierr error
	perLoop := timeCalls(unitCalls/loopWrites*4, func() {
		if _, err := inst.Invoke("loop"); err != nil {
			ierr = err
		}
	})
	t.set("wasi.fd_write_ns", perLoop/loopWrites)
	return ierr
}

// unitsSwap prices the swap tier: two tenants, room for one resident
// worker, requests alternating between them, so every request suspends
// one worker and resumes the other.
func unitsSwap(t *tracer, bin []byte) error {
	rt, err := twine.NewRuntime(twine.Config{})
	if err != nil {
		return err
	}
	defer rt.Enclave.Destroy()
	reg := rt.NewRegistry(twine.RegistryConfig{MaxResident: 1})
	defer reg.Close()
	for i := 0; i < 2; i++ {
		if _, err := reg.Register(tenantName(i), bin, twine.TenantConfig{}); err != nil {
			return err
		}
	}
	const swaps = 400
	lat := make([]float64, 0, swaps)
	for i := 0; i < swaps; i++ {
		t0 := time.Now()
		out, err := reg.Submit(tenantName(i%2), uint64(i))
		if err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
		if uint32(out[0]) != serveChecksum(uint32(i)) {
			return fmt.Errorf("swap: resumed tenant answered %d", out[0])
		}
	}
	t.set("core.suspend_resume_us", median(lat))
	if rs := reg.Stats(); rs.Suspends > 0 {
		t.set("core.seal_kib_per_suspend", float64(rs.SealBytes)/float64(rs.Suspends)/1024)
	}
	return nil
}
