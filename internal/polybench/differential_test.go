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
			// interpreter).
			if st := c.RegStats(); st.Funcs == 0 {
				t.Errorf("register translation bailed out entirely: %+v", st)
			}
			if st := c.SuperStats(); st.Idioms == 0 {
				t.Errorf("superblock translation traced no loops: %+v", st)
			}
		})
	}
}

// idiomCensus is, per kernel, how many innermost loops the superblock tier
// finds and how many of them it compiles to idiom traces — 82 of 179 over
// the suite. It does not depend on n. One register form serves every
// instance, with or without a touch hook, so there is one census.
var idiomCensus = map[string]struct{ idioms, loops int }{
	"2mm": {3, 7}, "3mm": {4, 8}, "adi": {1, 6}, "atax": {4, 6}, "bicg": {3, 7},
	"cholesky": {6, 7}, "correlation": {3, 6}, "covariance": {4, 5}, "deriche": {2, 5},
	"doitgen": {3, 5}, "durbin": {2, 5}, "fdtd-2d": {2, 9}, "floyd-warshall": {2, 3},
	"gemm": {3, 6}, "gemver": {4, 13}, "gesummv": {1, 5}, "gramschmidt": {5, 7},
	"heat-3d": {1, 4}, "jacobi-1d": {3, 4}, "jacobi-2d": {3, 5}, "lu": {6, 7},
	"ludcmp": {4, 10}, "mvt": {4, 9}, "nussinov": {2, 4}, "seidel-2d": {1, 3},
	"symm": {1, 5}, "syr2k": {1, 6}, "syrk": {1, 5}, "trisolv": {1, 3}, "trmm": {2, 4},
}

// TestIdiomCensus makes a matcher regression loud: a loop that stops
// matching its template is not wrong, only demoted to the register
// interpreter, and no checksum notices. Pinning the loop count as well
// catches code that hides an innermost loop from the matcher (a
// backward branch inside its body makes it look like an outer loop).
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
		st, want := c.SuperStats(), idiomCensus[k.Name]
		if st.RegBail != 0 || st.Loops != st.Idioms+st.Bailouts {
			t.Errorf("%s: %+v", k.Name, st)
		}
		if st.Idioms != want.idioms || st.Loops != want.loops {
			t.Errorf("%s: %d idiom traces over %d loops, census says %d over %d",
				k.Name, st.Idioms, st.Loops, want.idioms, want.loops)
		}
	}
	if len(idiomCensus) != len(All()) {
		t.Errorf("census lists %d kernels, the suite has %d", len(idiomCensus), len(All()))
	}
}
