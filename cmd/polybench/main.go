// Command polybench regenerates the paper's Figure 3: the 30 PolyBench/C
// kernels executed natively, as WebAssembly (the WAMR configuration), and
// as WebAssembly inside the TWINE enclave, reported as run time normalised
// to native.
//
// Usage:
//
//	polybench [-n size] [-kernels a,b,c] [-memsweep kernel] [-engine super|reg|aot|interp]
//
// Without -engine the kernels run on the zero-value engine, the tier every
// front door runs with no option set.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"twine/internal/core"
	"twine/internal/polybench"
	"twine/internal/sgx"
	"twine/internal/wasm"
)

func main() {
	n := flag.Int("n", 48, "problem size per kernel")
	names := flag.String("kernels", "", "comma-separated kernel subset (default: all 30)")
	memsweep := flag.String("memsweep", "", "report the memory floor sweep for one kernel (paper §V-B)")
	var engine wasm.Engine
	flag.Func("engine", "Wasm execution tier: super, reg, aot or interp (default: the zero-value engine)", func(name string) (err error) {
		engine, err = wasm.ParseEngine(name)
		return err
	})
	flag.Parse()

	if *memsweep != "" {
		if err := runMemSweep(*memsweep, *n); err != nil {
			fmt.Fprintln(os.Stderr, "polybench:", err)
			os.Exit(1)
		}
		return
	}

	kernels := polybench.All()
	if *names != "" {
		var subset []polybench.Kernel
		for _, name := range strings.Split(*names, ",") {
			k, ok := polybench.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "polybench: unknown kernel %q\n", name)
				os.Exit(1)
			}
			subset = append(subset, k)
		}
		kernels = subset
	}

	cfg := core.Config{PlatformSeed: "fig3", SGX: sgx.DefaultConfig(), Engine: engine}
	cfg.SGX.ReservedSize = 64 << 20
	cfg.SGX.HeapSize = 512 << 20

	fmt.Printf("Figure 3 — PolyBench/C, run time normalised to native (n=%d, engine=%v)\n", *n, engine)
	fmt.Printf("%-16s %12s %10s %10s\n", "kernel", "native", "wamr", "twine")
	for _, k := range kernels {
		sumN, tn := polybench.RunNative(k, *n)
		sumW, tw, err := polybench.RunWasm(k, *n, engine)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polybench: %s (wamr): %v\n", k.Name, err)
			os.Exit(1)
		}
		sumT, tt, err := polybench.RunTwine(k, *n, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "polybench: %s (twine): %v\n", k.Name, err)
			os.Exit(1)
		}
		if !close(sumN, sumW) || !close(sumN, sumT) {
			fmt.Fprintf(os.Stderr, "polybench: %s: checksum divergence (%v / %v / %v)\n",
				k.Name, sumN, sumW, sumT)
			os.Exit(1)
		}
		fmt.Printf("%-16s %12s %9.2fx %9.2fx\n",
			k.Name, tn, float64(tw)/float64(tn), float64(tt)/float64(tn))
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	s := a
	if s < 0 {
		s = -s
	}
	return d <= 1e-9*(s+1)
}

// runMemSweep shrinks the runtime memory cap until the kernel no longer
// instantiates, reproducing the paper's §V-B memory analysis.
func runMemSweep(name string, n int) error {
	k, ok := polybench.ByName(name)
	if !ok {
		return fmt.Errorf("unknown kernel %q", name)
	}
	floor, err := polybench.MinMemoryPages(k, n)
	if err != nil {
		return err
	}
	fmt.Printf("§V-B memory sweep — %s (n=%d), floor %d pages (%d KiB)\n",
		name, n, floor, floor*64)
	for pages := floor + 8; ; pages -= 2 {
		bin := k.Build(n)
		mod, err := wasm.Decode(bin)
		if err != nil {
			return err
		}
		c, err := wasm.Compile(mod)
		if err != nil {
			return err
		}
		imp := wasm.NewImportObject()
		polybench.MathImports(imp)
		_, err = wasm.Instantiate(c, imp, wasm.Config{MaxMemoryPages: pages})
		status := "ok"
		if err != nil {
			status = "allocation failed"
		}
		fmt.Printf("  cap %4d pages (%5d KiB): %s\n", pages, pages*64, status)
		if err != nil || pages <= 2 {
			return nil
		}
	}
}
