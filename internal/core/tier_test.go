package core

import (
	"testing"

	"twine/internal/wasm"
)

// runTierSweep executes the Fig5-style paging sweep (fidelity_test.go)
// under one engine and reports the paging outcome.
func runTierSweep(t *testing.T, eng wasm.Engine, elems, rounds int, epcUsable int64) paging {
	t.Helper()
	cfg := testConfig(func(c *Config) {
		c.SGX.EPCSize = 2 * epcUsable
		c.SGX.EPCUsable = epcUsable
		c.SGX.HeapSize = 8 << 20
		c.Engine = eng
	})
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	mod, err := rt.LoadModule(sweepModule(elems, rounds))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	inst, err := rt.NewInstance(mod)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	var sum uint64
	for i := 0; i < 2; i++ { // cold and warm EPC-TLB
		out, err := inst.Invoke("run")
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		sum = out[0]
	}
	m := rt.Enclave.Memory()
	return paging{faults: m.Faults(), evictions: m.Evictions(), checksum: sum}
}

// TestTierFidelityPaging is the register-tier acceptance guard for SGX
// accounting: under a paging-heavy sweep all four engines must report
// bit-identical fault and eviction counts and checksums. The register
// loop checks and touches every access the stack tiers do; the
// superblock tier's idiom traces skip touches only for a trip proven
// hot, and under eviction pressure that proof keeps failing into the
// checked per-iteration replay.
func TestTierFidelityPaging(t *testing.T) {
	interp := runTierSweep(t, wasm.EngineInterp, 32<<10, 3, 64<<10)
	aot := runTierSweep(t, wasm.EngineAOT, 32<<10, 3, 64<<10)
	reg := runTierSweep(t, wasm.EngineRegister, 32<<10, 3, 64<<10)
	super := runTierSweep(t, wasm.EngineSuperblock, 32<<10, 3, 64<<10)

	if aot != interp {
		t.Errorf("aot diverged from interp: %+v vs %+v", aot, interp)
	}
	if reg != interp {
		t.Errorf("register tier diverged from interp: %+v vs %+v", reg, interp)
	}
	if super != interp {
		t.Errorf("superblock tier diverged from interp: %+v vs %+v", super, interp)
	}
	if interp.evictions == 0 {
		t.Fatal("sweep caused no evictions; enlarge the workload")
	}
}

// TestTierFidelityHotEPC repeats the comparison with the working set
// resident: here the idiom traces' trip guards PASS (pages stay hot), the
// raw trips run, and the counters must still match — the regime where
// an unsoundly-skipped touch would show up.
func TestTierFidelityHotEPC(t *testing.T) {
	interp := runTierSweep(t, wasm.EngineInterp, 2<<10, 3, 24<<20)
	aot := runTierSweep(t, wasm.EngineAOT, 2<<10, 3, 24<<20)
	reg := runTierSweep(t, wasm.EngineRegister, 2<<10, 3, 24<<20)
	super := runTierSweep(t, wasm.EngineSuperblock, 2<<10, 3, 24<<20)

	if aot != interp {
		t.Errorf("aot diverged from interp: %+v vs %+v", aot, interp)
	}
	if reg != interp {
		t.Errorf("register tier diverged from interp: %+v vs %+v", reg, interp)
	}
	if super != interp {
		t.Errorf("superblock tier diverged from interp: %+v vs %+v", super, interp)
	}
	if interp.evictions != 0 {
		t.Fatalf("resident working set evicted (%d); shrink the workload", interp.evictions)
	}
}
