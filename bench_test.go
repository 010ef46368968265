// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V). Each Benchmark* maps to one artefact; the cmd/ tools
// produce the full-resolution versions with the paper's parameters.
//
//	go test -bench=. -benchmem
package twine_test

import (
	"fmt"
	"testing"

	"twine"
	"twine/internal/bench"
	"twine/internal/core"
	"twine/internal/ipfs"
	"twine/internal/litedb"
	"twine/internal/polybench"
	"twine/internal/sgx"
	"twine/internal/wasm"
	"twine/wasmgen"
)

// benchSGX is a scaled-down enclave so benchmarks finish quickly while
// preserving the cost model (EPC pressure still occurs in the Fig5 sweep).
func benchSGX() sgx.Config {
	cfg := sgx.DefaultConfig()
	cfg.EPCSize = 24 << 20
	cfg.EPCUsable = 16 << 20
	cfg.HeapSize = 192 << 20
	cfg.ReservedSize = 16 << 20
	cfg.TransitionCost = 1700 // ns
	return cfg
}

// --- Figure 3: PolyBench/C, native vs WAMR vs TWINE ---

var fig3Kernels = []string{"gemm", "2mm", "atax", "jacobi-2d", "cholesky", "floyd-warshall"}

func BenchmarkFig3PolyBench(b *testing.B) {
	const n = 32
	for _, name := range fig3Kernels {
		k, ok := polybench.ByName(name)
		if !ok {
			b.Fatalf("kernel %s missing", name)
		}
		b.Run(name+"/native", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				polybench.RunNative(k, n)
			}
		})
		b.Run(name+"/wamr", func(b *testing.B) {
			bin := k.Build(n)
			mod, err := wasm.Decode(bin)
			if err != nil {
				b.Fatal(err)
			}
			c, err := wasm.Compile(mod)
			if err != nil {
				b.Fatal(err)
			}
			imp := wasm.NewImportObject()
			polybench.MathImports(imp)
			in, err := wasm.Instantiate(c, imp, wasm.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Invoke("run"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/twine", func(b *testing.B) {
			cfg := core.Config{PlatformSeed: "fig3", SGX: benchSGX()}
			rt, err := core.NewRuntime(cfg)
			if err != nil {
				b.Fatal(err)
			}
			mod, err := rt.LoadModule(k.Build(n))
			if err != nil {
				b.Fatal(err)
			}
			inst, err := rt.NewInstance(mod)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inst.Invoke("run"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 4: Speedtest1 across the variant matrix ---

func BenchmarkFig4Speedtest(b *testing.B) {
	opt := bench.Options{CachePages: 256, SGX: benchSGX(), ImageBlocks: 6 << 10}
	for _, v := range []bench.Variant{bench.Native, bench.WAMR, bench.Twine, bench.SGXLKL} {
		for _, s := range []bench.Storage{bench.Mem, bench.File} {
			b.Run(fmt.Sprintf("%v/%v", v, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.RunSpeedtest(v, s, 12, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 5 + Table II: micro-benchmarks vs database size ---

func BenchmarkFig5Micro(b *testing.B) {
	cfg := bench.MicroConfig{MaxRecords: 2000, Step: 1000, RandReads: 100}
	cfg.Options = bench.Options{CachePages: 256, SGX: benchSGX(), ImageBlocks: 4 << 10}
	for _, v := range []bench.Variant{bench.Native, bench.WAMR, bench.Twine, bench.SGXLKL} {
		for _, s := range []bench.Storage{bench.Mem, bench.File} {
			b.Run(fmt.Sprintf("%v/%v", v, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.RunMicro(v, s, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Table III: cost factors ---

func BenchmarkTable3Costs(b *testing.B) {
	opt := bench.Options{CachePages: 128, SGX: benchSGX(), ImageBlocks: 2 << 10}
	for i := 0; i < b.N; i++ {
		if _, err := bench.Costs(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: HW vs SW SGX mode ---

func BenchmarkFig6Modes(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode sgx.Mode
	}{{"hw", sgx.ModeHardware}, {"sw", sgx.ModeSimulation}} {
		b.Run("twine-file/"+tc.name, func(b *testing.B) {
			cfg := bench.MicroConfig{MaxRecords: 1000, Step: 1000, RandReads: 100}
			cfg.Options = bench.Options{CachePages: 256, SGX: benchSGX(), SGXMode: tc.mode}
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunMicro(bench.Twine, bench.File, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7: IPFS profiling, standard vs optimised ---

func BenchmarkFig7Breakdown(b *testing.B) {
	opt := bench.Options{CachePages: 128, SGX: benchSGX()}
	for _, tc := range []struct {
		name      string
		optimised bool
	}{{"standard", false}, {"optimized", true}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bd, err := bench.RunBreakdown(600, 400, tc.optimised, opt)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(bd.Memset.Nanoseconds()), "memset-ns")
					b.ReportMetric(float64(bd.Boundary.Nanoseconds()), "boundary-ns")
				}
			}
		})
	}
}

// --- supporting micro-benchmarks (ablations beyond the paper's figures) ---

// serveGuest builds the per-request serving kernel, the same guest the
// serve_tenants workload of benchmark/ submits: run(x) folds a 256-byte
// data segment into a checksum seeded by x, writes a 16-byte response
// through fd_write (one host call per request) and returns the checksum.
func serveGuest() []byte {
	m := wasmgen.NewModule()
	fdWrite := m.ImportFunc("wasi_snapshot_preview1", "fd_write",
		wasmgen.Sig(wasmgen.I32, wasmgen.I32, wasmgen.I32, wasmgen.I32).Returns(wasmgen.I32))
	m.Memory(1, 1)
	seg := make([]byte, 256)
	for i := range seg {
		seg[i] = byte(i*13 + 5)
	}
	m.Data(64, seg)
	m.Data(512, []byte("response-body-ok"))

	f := m.Func(wasmgen.Sig(wasmgen.I32).Returns(wasmgen.I32))
	i, s := f.AddLocal(wasmgen.I32), f.AddLocal(wasmgen.I32)
	f.LocalGet(0).LocalSet(s)
	f.I32Const(0).LocalSet(i)
	f.Block(wasmgen.BlockVoid)
	f.Loop(wasmgen.BlockVoid)
	f.LocalGet(i).I32Const(int32(len(seg))).I32GeS().BrIf(1)
	f.LocalGet(s).LocalGet(i).I32Const(64).I32Add().I32Load8U(0).I32Add().LocalSet(s)
	f.LocalGet(i).I32Const(1).I32Add().LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	// iovec at 0: base 512, len 16; fd_write(stdout, iovec, 1, nwritten@32)
	f.I32Const(0).I32Const(512).I32Store(0)
	f.I32Const(4).I32Const(16).I32Store(0)
	f.I32Const(1).I32Const(0).I32Const(1).I32Const(32).Call(fdWrite).Drop()
	f.LocalGet(s)
	f.End()
	m.Export("run", f)
	m.ExportMemory("memory")
	return m.Bytes()
}

// BenchmarkTierMatrix is the tier x workload matrix behind the choice of
// zero-value engine (BENCHMARKS.md): the six Fig. 3 kernels and the
// serving guest above, on every engine, as
// <workload>/<engine>/{translate,outside,enclave} — deriving the engine's
// form from a Compiled, one call on a bare wasm.Instance, and one call
// through core.Instance.Invoke (ECALL, EPC accounting, WASI over the ring).
func BenchmarkTierMatrix(b *testing.B) {
	type workload struct {
		name string
		bin  []byte
		args []uint64
	}
	workloads := []workload{{"serve", serveGuest(), []uint64{7}}}
	for _, name := range fig3Kernels {
		k, _ := polybench.ByName(name)
		workloads = append(workloads, workload{name: name, bin: k.Build(32)})
	}
	for _, w := range workloads {
		name, bin, args := w.name, w.bin, w.args
		mod, err := wasm.Decode(bin)
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []wasm.Engine{wasm.EngineSuperblock, wasm.EngineRegister, wasm.EngineAOT, wasm.EngineInterp} {
			b.Run(fmt.Sprintf("%s/%v/translate", name, eng), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c, err := wasm.Compile(mod)
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := c.Translate(eng); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/%v/outside", name, eng), func(b *testing.B) {
				c, err := wasm.Compile(mod)
				if err != nil {
					b.Fatal(err)
				}
				imp := wasm.NewImportObject()
				polybench.MathImports(imp)
				imp.AddFunc(wasm.HostFunc{Module: "wasi_snapshot_preview1", Name: "fd_write",
					Type: wasm.FuncType{Params: []wasm.ValueType{wasm.I32, wasm.I32, wasm.I32, wasm.I32}, Results: []wasm.ValueType{wasm.I32}},
					Fn:   func(in *wasm.Instance, _ []uint64) ([]uint64, error) { return in.Ret1(0), nil }})
				in, err := wasm.Instantiate(c, imp, wasm.Config{Engine: eng})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := in.Invoke("run", args...); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/%v/enclave", name, eng), func(b *testing.B) {
				rt, err := core.NewRuntime(core.Config{PlatformSeed: "matrix", SGX: benchSGX(), Engine: eng, Stdout: twine.Discard})
				if err != nil {
					b.Fatal(err)
				}
				m, err := rt.LoadModule(bin)
				if err != nil {
					b.Fatal(err)
				}
				inst, err := rt.NewInstance(m)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := inst.Invoke("run", args...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIPFSModes isolates the protected-FS optimisation (§V-F ablation)
// without the database on top.
func BenchmarkIPFSModes(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode ipfs.Mode
	}{{"standard", ipfs.ModeStandard}, {"optimized", ipfs.ModeOptimized}} {
		b.Run(tc.name, func(b *testing.B) {
			opt := bench.Options{CachePages: 128, SGX: benchSGX(), IPFSMode: tc.mode}
			db, err := bench.Open(bench.Twine, bench.File, opt)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, d BLOB)`); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(`BEGIN`); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				if _, err := db.Exec(`INSERT INTO t (d) VALUES (zeroblob(1024))`); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := db.Exec(`COMMIT`); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(`SELECT length(d) FROM t WHERE id = ?`,
					litedb.IntVal(int64(i%400+1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
