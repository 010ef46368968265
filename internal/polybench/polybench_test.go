package polybench

import (
	"math"
	"testing"

	"twine/internal/core"
	"twine/internal/sgx"
	"twine/internal/wasm"
)

// TestAllKernelsAgree is the central validation of the Figure 3 pipeline:
// for every one of the 30 kernels, the native Go implementation and the
// Wasm module (under the interpreter and the zero-value engine, the tier
// Figure 3 runs on) must produce matching checksums. TestTierDifferential
// holds all four tiers bit-identical to each other.
func TestAllKernelsAgree(t *testing.T) {
	const n = 18
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			want, _ := RunNative(k, n)
			if math.IsNaN(want) || math.IsInf(want, 0) {
				t.Fatalf("native checksum not finite: %v", want)
			}
			for _, eng := range []wasm.Engine{wasm.EngineInterp, wasm.Engine(0)} {
				got, _, err := RunWasm(k, n, eng)
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				if !closeEnough(got, want) {
					t.Errorf("%v checksum = %v, native = %v", eng, got, want)
				}
			}
		})
	}
}

// closeEnough tolerates last-ulp differences (we expect bit-equality on
// amd64, but stay portable).
func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

func TestKernelCount(t *testing.T) {
	if got := len(All()); got != 30 {
		t.Fatalf("kernel count = %d, want 30 (the paper's Figure 3 set)", got)
	}
	seen := map[string]bool{}
	for _, k := range All() {
		if seen[k.Name] {
			t.Errorf("duplicate kernel %s", k.Name)
		}
		seen[k.Name] = true
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("gemm"); !ok {
		t.Error("gemm not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ghost kernel found")
	}
}

func TestTwineExecutionMatches(t *testing.T) {
	// A representative subset through the full enclave stack.
	cfg := core.Config{PlatformSeed: "pb", SGX: sgx.TestConfig()}
	cfg.SGX.HeapSize = 128 << 20
	cfg.SGX.EPCSize = 32 << 20
	cfg.SGX.EPCUsable = 24 << 20
	cfg.SGX.ReservedSize = 8 << 20
	const n = 14
	for _, name := range []string{"gemm", "jacobi-2d", "cholesky", "deriche"} {
		k, ok := ByName(name)
		if !ok {
			t.Fatalf("kernel %s missing", name)
		}
		want, _ := RunNative(k, n)
		got, _, err := RunTwine(k, n, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !closeEnough(got, want) {
			t.Errorf("%s: twine = %v, native = %v", name, got, want)
		}
	}
}

func TestMinMemoryPages(t *testing.T) {
	k, _ := ByName("2mm")
	small, err := MinMemoryPages(k, 16)
	if err != nil {
		t.Fatalf("MinMemoryPages: %v", err)
	}
	big, err := MinMemoryPages(k, 64)
	if err != nil {
		t.Fatalf("MinMemoryPages: %v", err)
	}
	if big <= small {
		t.Errorf("memory need did not grow with n: %d -> %d", small, big)
	}
	// Instantiation under a too-small cap fails (the §V-B sweep endpoint).
	bin := k.Build(64)
	mod, _ := wasm.Decode(bin)
	c, _ := wasm.Compile(mod)
	imp := wasm.NewImportObject()
	MathImports(imp)
	if _, err := wasm.Instantiate(c, imp, wasm.Config{MaxMemoryPages: big - 1}); err == nil {
		t.Error("instantiated below the kernel's memory floor")
	}
}

func TestWasmIsSlowerThanNative(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// Directional sanity for Figure 3: Wasm, even on the zero-value
	// engine, costs more than native execution on a compute-bound kernel.
	k, _ := ByName("gemm")
	const n = 64
	_, tn := RunNative(k, n)
	_, tw, err := RunWasm(k, n, wasm.Engine(0))
	if err != nil {
		t.Fatal(err)
	}
	if tw < tn {
		t.Errorf("wasm (%v) faster than native (%v)?", tw, tn)
	}
}
