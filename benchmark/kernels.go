package main

import (
	"fmt"
	"math"
	"time"

	"twine"
	"twine/internal/polybench"
	"twine/internal/sgx"
	"twine/internal/wasm"
)

// kernelNames are the six PolyBench kernels of the workload; kernelN is
// their problem size. One op is one round-robin round of all six.
var kernelNames = []string{"gemm", "2mm", "atax", "jacobi-2d", "cholesky", "floyd-warshall"}

const kernelN = 32

func kernelsWorkload() workload {
	return workload{
		name:    "kernels",
		why:     "six PolyBench kernels as Wasm in the enclave, zero-value engine: CPU-bound, wasm does the work and ipfs/litedb/tsql none (Fig. 3); set-up is launch + translate (Table III)",
		warmOps: sz.warmKernels,
		front: func(seed int64) (*stack, error) {
			ks, err := newEnclaveKernels(twine.Config{})
			if err != nil {
				return nil, err
			}
			return ks.stack("twine.Runtime"), nil
		},
		trace: traceKernels,
	}
}

// kernelSet is one rung of the kernel ladder: a way to run kernel k and
// get its checksum, plus the per-kernel timings of the rounds run so far.
type kernelSet struct {
	run   [](func() (float64, error))
	want  []float64
	times [][]float64 // per kernel, ms; kept only when keep is set
	keep  bool
	close func()
	rt    *twine.Runtime
	insts []*twine.Instance
	// loadMs and instUs are the set-up costs the enclave rung reports.
	loadMs float64
	instUs []float64
}

func lookupKernels() ([]polybench.Kernel, error) {
	var ks []polybench.Kernel
	for _, name := range kernelNames {
		k, ok := polybench.ByName(name)
		if !ok {
			return nil, fmt.Errorf("kernels: polybench has no kernel %q", name)
		}
		ks = append(ks, k)
	}
	return ks, nil
}

func newKernelSet(ks []polybench.Kernel) *kernelSet {
	s := &kernelSet{times: make([][]float64, len(ks)), close: func() {}}
	for _, k := range ks {
		s.want = append(s.want, k.Native(kernelN))
	}
	return s
}

// newEnclaveKernels loads and instantiates the six kernels in one enclave:
// NewRuntime -> LoadModule -> NewInstance, one instance per kernel.
func newEnclaveKernels(cfg twine.Config) (*kernelSet, error) {
	ks, err := lookupKernels()
	if err != nil {
		return nil, err
	}
	s := newKernelSet(ks)
	rt, err := twine.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	s.rt = rt
	s.close = rt.Enclave.Destroy
	for _, k := range ks {
		mod, err := rt.LoadModule(k.Build(kernelN))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("kernels: load %s: %w", k.Name, err)
		}
		s.loadMs += float64(mod.LoadTime) / 1e6
		t0 := time.Now()
		inst, err := rt.NewInstance(mod)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("kernels: instantiate %s: %w", k.Name, err)
		}
		s.instUs = append(s.instUs, float64(time.Since(t0))/1e3)
		s.insts = append(s.insts, inst)
		s.run = append(s.run, func() (float64, error) { return resultF64(inst.Invoke("run")) })
	}
	return s, nil
}

// newWasmKernels instantiates the kernels outside any enclave, on the
// given engine.
func newWasmKernels(engine wasm.Engine) (*kernelSet, error) {
	ks, err := lookupKernels()
	if err != nil {
		return nil, err
	}
	s := newKernelSet(ks)
	imp := wasm.NewImportObject()
	polybench.MathImports(imp)
	for _, k := range ks {
		mod, err := wasm.Decode(k.Build(kernelN))
		if err != nil {
			return nil, err
		}
		c, err := wasm.Compile(mod)
		if err != nil {
			return nil, err
		}
		in, err := wasm.Instantiate(c, imp, wasm.Config{Engine: engine})
		if err != nil {
			return nil, err
		}
		s.run = append(s.run, func() (float64, error) { return resultF64(in.Invoke("run")) })
	}
	return s, nil
}

// resultF64 is the f64 result of a guest call: a kernel's checksum.
func resultF64(out []uint64, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(out[0]), nil
}

// newNativeKernels is the Go twin of every kernel.
func newNativeKernels() (*kernelSet, error) {
	ks, err := lookupKernels()
	if err != nil {
		return nil, err
	}
	s := newKernelSet(ks)
	for _, k := range ks {
		native := k.Native
		s.run = append(s.run, func() (float64, error) { return native(kernelN), nil })
	}
	return s, nil
}

// sameChecksum is the comparison cmd/polybench applies to the same pair.
func sameChecksum(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(math.Abs(a)+1)
}

// round runs all six kernels once, checking every checksum against the
// native twin's.
func (s *kernelSet) round(measured bool) error {
	for k, run := range s.run {
		t0 := time.Now()
		got, err := run()
		if s.keep && measured {
			s.times[k] = append(s.times[k], float64(time.Since(t0))/1e6)
		}
		if err != nil {
			return fmt.Errorf("kernels: %s: %w", kernelNames[k], err)
		}
		if !sameChecksum(got, s.want[k]) {
			return fmt.Errorf("kernels: %s: checksum %v, native twin says %v", kernelNames[k], got, s.want[k])
		}
	}
	return nil
}

func (s *kernelSet) stack(name string) *stack {
	st := &stack{name: name, clients: 1, close: s.close,
		op: func(_ int, i int64) error { return s.round(i < warmOffset) }}
	if s.rt != nil {
		st.probe = &probe{enclaves: []*sgx.Enclave{s.rt.Enclave}}
	}
	return st
}

// insRetired sums the guest instructions retired by the set's instances.
func (s *kernelSet) insRetired() int64 {
	var n int64
	for _, inst := range s.insts {
		n += inst.In.InsRetired()
	}
	return n
}

// engineTiers is how many engine slots wasm.exec_ms.tier<i> reports. The
// metric set is fixed, so the slots are too; the engine behind slot i is
// wasm.Engine(i), whatever the repo names it, and no tier constant is
// named here.
const engineTiers = 4

func traceKernels(t *tracer) error {
	native, err := newNativeKernels()
	if err != nil {
		return err
	}
	outside, err := newWasmKernels(wasm.Engine(0))
	if err != nil {
		return err
	}
	top, err := newEnclaveKernels(twine.Config{HostFS: t.fs})
	if err != nil {
		return err
	}
	full, err := newEnclaveKernels(twine.Config{})
	if err != nil {
		top.close()
		return err
	}
	for _, s := range []*kernelSet{native, outside, top, full} {
		s.keep = true
	}
	stacks := []*stack{native.stack("native twin"), outside.stack("wasm.Instantiate outside"),
		top.stack("in-enclave traced"), full.stack("twine.Runtime")}
	stacks[2].probe.fs = t.fs
	defer closeAll(stacks)
	t.warm(stacks, 3)

	ins0 := top.insRetired()
	before, after, n := t.counted(stacks[2], sz.countKernels)
	t.setCounts(before, after, n, 0)
	t.set("wasm.ins_retired_per_round", float64(top.insRetired()-ins0)/float64(n))

	r := t.interleave(stacks, t.seconds)
	t.set("wasm.self_ms", (r[1].p50us-r[0].p50us)/1e3)
	t.set("sgx.self_ms", (r[2].p50us-r[1].p50us)/1e3)
	t.closure(r[2], r[3])
	logSlow := 0.0
	for k, name := range kernelNames {
		inEnclave, nat := median(top.times[k]), median(native.times[k])
		t.set("wasm.kernel_ms."+name, inEnclave)
		logSlow += math.Log(inEnclave / nat)
	}
	t.set("wasm.slowdown_vs_native", math.Exp(logSlow/float64(len(kernelNames))))
	for i, st := range stacks {
		t.note("rung %-28s p50 %9.3f ms  %9.1f rounds/s", st.name, r[i].p50us/1e3, r[i].opsPerS)
	}

	t.set("sgx.launch_ms", (float64(top.rt.LaunchTime)+float64(full.rt.LaunchTime))/2e6)
	t.set("core.load_module_ms", (top.loadMs+full.loadMs)/2)
	t.set("core.new_instance_us", median(append(append([]float64(nil), top.instUs...), full.instUs...)))
	return unitsWasmTranslate(t)
}

// unitsWasmTranslate times decode and compile of the six kernels, and one
// round on each engine tier outside the enclave.
func unitsWasmTranslate(t *tracer) error {
	ks, err := lookupKernels()
	if err != nil {
		return err
	}
	bins := make([][]byte, len(ks))
	for i, k := range ks {
		bins[i] = k.Build(kernelN)
	}
	var decode, compile []float64
	for rep := 0; rep < 5; rep++ {
		var d, c time.Duration
		for _, bin := range bins {
			t0 := time.Now()
			mod, err := wasm.Decode(bin)
			d += time.Since(t0)
			if err != nil {
				return err
			}
			t0 = time.Now()
			if _, err := wasm.Compile(mod); err != nil {
				return err
			}
			c += time.Since(t0)
		}
		decode = append(decode, float64(d)/1e6)
		compile = append(compile, float64(c)/1e6)
	}
	t.set("wasm.decode_ms", median(decode))
	t.set("wasm.compile_ms", median(compile))

	for tier := 0; tier < engineTiers; tier++ {
		engine := wasm.Engine(tier)
		s, err := newWasmKernels(engine)
		if err != nil {
			return err
		}
		var rounds []float64
		for rep := 0; rep < 4; rep++ {
			t0 := time.Now()
			if err := s.round(false); err != nil {
				return fmt.Errorf("engine %v: %w", engine, err)
			}
			if rep > 0 { // the first round also translates lazily
				rounds = append(rounds, float64(time.Since(t0))/1e6)
			}
		}
		t.set(fmt.Sprintf("wasm.exec_ms.tier%d", tier), median(rounds))
		t.note("wasm.exec_ms.tier%d is engine %q", tier, engine.String())
	}
	return nil
}
