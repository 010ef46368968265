package polybench

import (
	"math"
	"testing"

	"twine/internal/wasm"
)

// TestTierDifferential runs every PolyBench kernel under all four
// execution tiers — interpreter, fused AoT, the PR 4 register tier and
// the PR 7 superblock tier — and requires bit-identical checksums. The
// interpreter is the reference semantics; the register tier's folding,
// propagation and fusion, and the superblock tier's loop traces, must
// never change a result bit (floats are deliberately never folded at
// translation time for exactly this reason).
func TestTierDifferential(t *testing.T) {
	const n = 12
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			bin := k.Build(n)
			mod, err := wasm.Decode(bin)
			if err != nil {
				t.Fatal(err)
			}
			c, err := wasm.Compile(mod)
			if err != nil {
				t.Fatal(err)
			}
			var sums [4]uint64
			for i, eng := range []wasm.Engine{wasm.EngineInterp, wasm.EngineAOT, wasm.EngineRegister, wasm.EngineSuperblock} {
				imp := wasm.NewImportObject()
				MathImports(imp)
				in, err := wasm.Instantiate(c, imp, wasm.Config{Engine: eng})
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				// Two invocations: the second runs over dirtied memory,
				// exercising re-initialisation under each tier.
				for r := 0; r < 2; r++ {
					out, err := in.Invoke("run")
					if err != nil {
						t.Fatalf("%v: %v", eng, err)
					}
					sums[i] = out[0]
				}
			}
			if sums[0] != sums[1] || sums[0] != sums[2] || sums[0] != sums[3] {
				t.Errorf("checksum mismatch: interp=%x (%v) aot=%x reg=%x super=%x",
					sums[0], math.Float64frombits(sums[0]), sums[1], sums[2], sums[3])
			}
			// The register and superblock tiers must actually have engaged
			// (no silent wholesale bailout to the fused form / register
			// interpreter). Instantiated without a touch hook above:
			// unguarded form.
			if st := c.RegStats(false); st.Funcs == 0 {
				t.Errorf("register translation bailed out entirely: %+v", st)
			}
			if st := c.SuperStats(false); st.Idioms == 0 {
				t.Errorf("superblock translation traced no loops: %+v", st)
			}
		})
	}
}

// idiomCensus is, per kernel, how many innermost loops the superblock tier
// compiles to idiom traces in the guarded form (hoisted EPC-TLB guards:
// what every front door runs). It does not depend on n. The unguarded form
// is held to the structural checks only: it differs on gemm (3).
var idiomCensus = map[string]int{
	"2mm": 3, "3mm": 4, "adi": 1, "atax": 4, "bicg": 3, "cholesky": 6,
	"correlation": 3, "covariance": 4, "deriche": 2, "doitgen": 3, "durbin": 2, "fdtd-2d": 2,
	"floyd-warshall": 2, "gemm": 2, "gemver": 4, "gesummv": 1, "gramschmidt": 5, "heat-3d": 1,
	"jacobi-1d": 3, "jacobi-2d": 3, "lu": 6, "ludcmp": 4, "mvt": 4, "nussinov": 2,
	"seidel-2d": 1, "symm": 1, "syr2k": 1, "syrk": 1, "trisolv": 1, "trmm": 2,
}

// TestIdiomCensus makes a matcher regression loud: a loop that stops
// matching its template is not wrong, only demoted to the register
// interpreter, and no checksum notices.
func TestIdiomCensus(t *testing.T) {
	for _, k := range All() {
		mod, err := wasm.Decode(k.Build(12))
		if err != nil {
			t.Fatal(err)
		}
		c, err := wasm.Compile(mod)
		if err != nil {
			t.Fatal(err)
		}
		for _, guarded := range []bool{true, false} {
			st := c.SuperStats(guarded)
			if st.RegBail != 0 || st.Loops != st.Idioms+st.Bailouts {
				t.Errorf("%s guarded=%v: %+v", k.Name, guarded, st)
			}
			if guarded && st.Idioms != idiomCensus[k.Name] {
				t.Errorf("%s: %d idiom traces, census says %d", k.Name, st.Idioms, idiomCensus[k.Name])
			}
		}
	}
	if len(idiomCensus) != len(All()) {
		t.Errorf("census lists %d kernels, the suite has %d", len(idiomCensus), len(All()))
	}
}
