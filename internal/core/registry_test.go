package core

import (
	"errors"
	"testing"

	"twine/internal/wasm"
	"twine/wasmgen"
)

// TestTenantFidelity is the PR 8 acceptance guard: one tenant on one TCS
// with switchless dispatch (and thus batching) off must be bit-identical
// to a sequential baseline — same results, same ECALL/OCALL/fault/
// eviction counters on a workload that actually pages, same trap kinds on
// failure. The baseline mirrors the tenant's construction exactly: one
// WASI clone, one instantiation, one snapshot, then per request one
// composite ECALL running {invoke; reset-from-snapshot} — what the
// registry's default FreshState serving does. The front door may add
// capacity; it must never add or reorder enclave transitions.
func TestTenantFidelity(t *testing.T) {
	const requests = 2
	workload := func(module []byte, drive func(rt *Runtime, module []byte) (uint64, error)) (stats [4]int64, checksum uint64, err error) {
		cfg := testConfig(func(c *Config) {
			c.SGX.EPCSize = 128 << 10
			c.SGX.EPCUsable = 64 << 10
			c.SGX.HeapSize = 8 << 20
			c.SGX.TCSNum = 1
			c.Switchless = SwitchlessOff
		})
		rt, nerr := NewRuntime(cfg)
		if nerr != nil {
			t.Fatalf("NewRuntime: %v", nerr)
		}
		defer rt.Enclave.Destroy()
		checksum, err = drive(rt, module)
		s := rt.Enclave.Stats()
		return [4]int64{s.ECalls, s.OCalls, s.PageFaults, s.Evictions}, checksum, err
	}

	// Sequential baseline: one load, one instance, one snapshot, then the
	// composite serve ECALL hand-rolled per request.
	sequential := func(rt *Runtime, module []byte) (uint64, error) {
		mod, err := rt.LoadModule(module)
		if err != nil {
			t.Fatalf("LoadModule: %v", err)
		}
		inst, err := rt.NewInstance(mod)
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		snap := inst.In.Snapshot()
		var sum uint64
		for i := 0; i < requests; i++ {
			var out []uint64
			serr := rt.guestECallSys("twine_serve", inst.Sys, func() error {
				var ierr error
				out, ierr = inst.In.Invoke("run")
				if ierr != nil {
					return ierr
				}
				return inst.In.ResetFromSnapshot(snap)
			})
			if serr != nil {
				return 0, serr
			}
			sum = out[0]
		}
		return sum, nil
	}

	// The front door: a one-tenant registry in its default serving mode
	// (one worker, FreshState). Register performs the same single load.
	tenant := func(rt *Runtime, module []byte) (uint64, error) {
		reg := rt.NewRegistry(RegistryConfig{})
		defer reg.Close()
		ten, err := reg.Register("solo", module, TenantConfig{})
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		var sum uint64
		for i := 0; i < requests; i++ {
			out, err := reg.Submit("solo")
			if err != nil {
				return 0, err
			}
			sum = out[0]
		}
		if s := ten.Stats(); s.Pool.WarmResets != requests || s.Pool.Quarantined != 0 {
			t.Fatalf("tenant run off the warm path: %+v", s)
		}
		// A zero RegistryConfig never touches the swap tier, even with
		// the EPC paging under it.
		if s := reg.Stats(); s.Suspends != 0 || s.Resumes != 0 || s.Suspended != 0 {
			t.Fatalf("zero RegistryConfig suspended a worker: %+v", s)
		}
		return sum, nil
	}

	seqStats, seqSum, seqErr := workload(sweepModule(16<<10, 2), sequential)
	tenStats, tenSum, tenErr := workload(sweepModule(16<<10, 2), tenant)
	if seqErr != nil || tenErr != nil {
		t.Fatalf("sweep errored: sequential %v, tenant %v", seqErr, tenErr)
	}
	if seqStats != tenStats {
		t.Errorf("fidelity broken: sequential %v, tenant %v (ECalls, OCalls, faults, evictions)", seqStats, tenStats)
	}
	if seqSum != tenSum {
		t.Errorf("checksum diverged: sequential %#x, tenant %#x", seqSum, tenSum)
	}
	if seqStats[2] == 0 || seqStats[3] == 0 {
		t.Fatal("workload did not page; fidelity test proves nothing")
	}

	// Trap kinds must match too: a guest trap surfaces through the front
	// door as the same *wasm.Trap the sequential path sees.
	trapDrive := func(drive func(rt *Runtime, module []byte) (uint64, error)) *wasm.Trap {
		_, _, err := workload(trapModule(), drive)
		var tr *wasm.Trap
		if !errors.As(err, &tr) {
			t.Fatalf("trap workload returned %v, want *wasm.Trap", err)
		}
		return tr
	}
	seqTrap := trapDrive(func(rt *Runtime, module []byte) (uint64, error) {
		mod, err := rt.LoadModule(module)
		if err != nil {
			t.Fatalf("LoadModule: %v", err)
		}
		inst, err := rt.NewInstance(mod)
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		serr := rt.guestECallSys("twine_serve", inst.Sys, func() error {
			_, ierr := inst.In.Invoke("run", 1) // nonzero arg = trap
			return ierr
		})
		return 0, serr
	})
	tenTrap := trapDrive(func(rt *Runtime, module []byte) (uint64, error) {
		reg := rt.NewRegistry(RegistryConfig{})
		defer reg.Close()
		if _, err := reg.Register("solo", module, TenantConfig{}); err != nil {
			t.Fatalf("Register: %v", err)
		}
		_, err := reg.Submit("solo", 1)
		return 0, err
	})
	if seqTrap.Kind != tenTrap.Kind {
		t.Errorf("trap kind diverged: sequential %v, tenant %v", seqTrap.Kind, tenTrap.Kind)
	}
}

// TestRegistrySharedCompiledCode (the tentpole's cache): two tenants
// registering identical bytes share one *Module — one twine_load_module
// ECALL, one reserved-region footprint — while a third with different
// bytes compiles its own.
func TestRegistrySharedCompiledCode(t *testing.T) {
	rt := poolRuntime(t, 4)
	defer rt.Enclave.Destroy()
	reg := rt.NewRegistry(RegistryConfig{})
	defer reg.Close()

	before := rt.Enclave.Stats().ECalls
	a, err := reg.Register("tenant-a", pureModule(), TenantConfig{})
	if err != nil {
		t.Fatalf("register a: %v", err)
	}
	afterFirst := rt.Enclave.Stats().ECalls
	b, err := reg.Register("tenant-b", pureModule(), TenantConfig{})
	if err != nil {
		t.Fatalf("register b: %v", err)
	}
	if a.Module() != b.Module() {
		t.Error("identical bytes produced distinct compiled modules")
	}
	if _, err := reg.Register("tenant-c", counterModule(), TenantConfig{}); err != nil {
		t.Fatalf("register c: %v", err)
	}

	s := reg.Stats()
	if s.Tenants != 3 || s.CompiledModules != 2 || s.CompileHits != 1 {
		t.Errorf("registry stats = %+v, want 3 tenants / 2 modules / 1 hit", s)
	}
	// The cache hit must have skipped the load ECALL: registering b costs
	// the same number of load ECALLs as registering nothing (pool
	// construction ECALLs remain, so compare loads via the module count).
	loadsFirst := afterFirst - before
	if loadsFirst < 1 {
		t.Fatalf("first register did %d ECalls, expected at least the module load", loadsFirst)
	}

	// Both tenants of the shared module still compute correctly.
	outA, err := reg.Submit("tenant-a", 5)
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	outB, err := reg.Submit("tenant-b", 5)
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if outA[0] != outB[0] {
		t.Errorf("shared module diverged: %d vs %d", outA[0], outB[0])
	}
}

// TestRegistryTenantIsolation: tenants sharing compiled code never share
// mutable state — each pool has its own workers and its own golden
// snapshot, so a stateful tenant's counter advances independently.
func TestRegistryTenantIsolation(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	reg := rt.NewRegistry(RegistryConfig{})
	defer reg.Close()

	a, err := reg.Register("a", counterModule(), TenantConfig{Stateful: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Register("b", counterModule(), TenantConfig{Stateful: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Module() != b.Module() {
		t.Fatal("tenants should share the compiled module")
	}
	for i := 1; i <= 3; i++ {
		out, err := a.Submit()
		if err != nil {
			t.Fatalf("a submit %d: %v", i, err)
		}
		if out[0] != uint64(i) {
			t.Errorf("a submit %d = %d", i, out[0])
		}
	}
	out, err := b.Submit()
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Errorf("b's first request saw counter %d; tenant state leaked", out[0])
	}

	s := reg.Stats()
	if s.PerTenant["a"].Pool.Requests != 3 || s.PerTenant["b"].Pool.Requests != 1 {
		t.Errorf("per-tenant accounting wrong: %+v", s.PerTenant)
	}
	if s.PerTenant["a"].Latency.Count != 3 {
		t.Errorf("tenant a latency count = %d, want 3", s.PerTenant["a"].Latency.Count)
	}
}

// TestRegistryPerTenantBackpressure: one tenant exhausting its queue
// share is rejected with ErrOverloaded while another tenant keeps being
// served — overload is contained to the tenant that caused it.
func TestRegistryPerTenantBackpressure(t *testing.T) {
	rt := poolRuntime(t, 2)
	defer rt.Enclave.Destroy()
	reg := rt.NewRegistry(RegistryConfig{})
	defer reg.Close()

	a, err := reg.Register("hog", pureModule(), TenantConfig{Workers: 1, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("quiet", pureModule(), TenantConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	// Hold the hog's only worker and fill its single queue slot.
	w := a.Pool().takeWorker(t)
	queued := make(chan error, 1)
	go func() {
		_, err := reg.Submit("hog", 1)
		queued <- err
	}()
	waitQueueDepth(t, a.Pool(), 1)

	if _, err := reg.Submit("hog", 1); !errors.Is(err, ErrOverloaded) {
		t.Errorf("hog over its share = %v, want ErrOverloaded", err)
	}
	// The quiet tenant is untouched by the hog's overload.
	if _, err := reg.Submit("quiet", 1); err != nil {
		t.Errorf("quiet tenant rejected during hog overload: %v", err)
	}

	a.Pool().release(w)
	if err := <-queued; err != nil {
		t.Errorf("hog's queued request failed after release: %v", err)
	}
	s := reg.Stats()
	if s.PerTenant["hog"].Pool.Rejected != 1 || s.PerTenant["quiet"].Pool.Rejected != 0 {
		t.Errorf("rejection not contained to the hog: %+v", s.PerTenant)
	}
}

// TestRegistryAdmissionErrors: unknown tenants, duplicate names and
// invalid configs fail cleanly; a closed registry refuses new tenants.
func TestRegistryAdmissionErrors(t *testing.T) {
	rt := poolRuntime(t, 1)
	defer rt.Enclave.Destroy()
	reg := rt.NewRegistry(RegistryConfig{})

	if _, err := reg.Submit("nobody"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant = %v, want ErrUnknownTenant", err)
	}
	if _, err := reg.Register("", pureModule(), TenantConfig{}); err == nil {
		t.Error("empty tenant name accepted")
	}
	if _, err := reg.Register("x", pureModule(), TenantConfig{Stateful: true, ColdStart: true}); err == nil {
		t.Error("Stateful+ColdStart accepted")
	}
	if _, err := reg.Register("x", pureModule(), TenantConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("x", counterModule(), TenantConfig{}); err == nil {
		t.Error("duplicate tenant name accepted")
	}
	if reg.Tenant("x") == nil || reg.Tenant("y") != nil {
		t.Error("Tenant lookup inconsistent")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("y", pureModule(), TenantConfig{}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("register after close = %v, want ErrPoolClosed", err)
	}
	if _, err := reg.Submit("x"); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("submit after close = %v, want ErrPoolClosed", err)
	}
}

// serveModule is the serving-benchmark guest in miniature: run(x) writes
// a 16-byte body to stdout through one fd_write and returns x + 1.
func serveModule() []byte {
	m := wasmgen.NewModule()
	fdWrite := m.ImportFunc("wasi_snapshot_preview1", "fd_write",
		wasmgen.Sig(wasmgen.I32, wasmgen.I32, wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	m.Memory(1, 1)
	m.Data(64, []byte("twine-serve-ok!\n"))
	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	f.I32Const(0).I32Const(64).I32Store(0)
	f.I32Const(4).I32Const(16).I32Store(0)
	f.I32Const(1).I32Const(0).I32Const(1).I32Const(32).Call(fdWrite).Drop()
	f.LocalGet(0).I32Const(1).I32Add()
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// TestSubmitAllocs guards the front door's steady-state garbage. The
// enclave arena puts the GC goal far above what a serving window
// allocates, so per-request garbage is never collected within one and is
// resident memory that grows with the requests served; one request
// through the default front door (ECALL, warm reset, one fd_write ring
// ride) may allocate its result slice and nothing else.
func TestSubmitAllocs(t *testing.T) {
	rt, err := NewRuntime(testConfig())
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	defer rt.Enclave.Destroy()
	reg := rt.NewRegistry(RegistryConfig{})
	defer reg.Close()
	if _, err := reg.Register("solo", serveModule(), TenantConfig{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	submit := func() {
		out, err := reg.Submit("solo", 41)
		if err != nil || len(out) != 1 || out[0] != 42 {
			t.Fatalf("Submit = %v, %v; want [42]", out, err)
		}
	}
	submit() // spawn the ring worker, size the per-instance buffers
	if allocs := testing.AllocsPerRun(200, submit); allocs > 1 {
		t.Errorf("Registry.Submit allocates %.1f objects per request, want at most 1", allocs)
	}
	if s := rt.Enclave.Stats(); s.SwitchlessCalls == 0 {
		t.Errorf("no fd_write rode the ring (%+v): the guard is not measuring the serving path", s)
	}
}
