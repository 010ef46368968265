// Command microbench regenerates the paper's Figure 5 (insertion,
// sequential and random reading against database size, with the EPC-full
// annotation) and Table II (run times normalised to native, split at the
// EPC limit).
//
// Usage:
//
//	microbench [-max records] [-step n] [-reads n] [-epc MiB] [-table2]
package main

import (
	"flag"
	"fmt"
	"os"

	"twine/internal/bench"
	"twine/internal/sgx"
)

func main() {
	max := flag.Int("max", 20000, "maximum records (paper: 175000)")
	step := flag.Int("step", 2000, "records per batch (paper: 1000)")
	reads := flag.Int("reads", 300, "random reads per point")
	epcMiB := flag.Int("epc", 24, "usable EPC in MiB (paper testbed: 93)")
	table2 := flag.Bool("table2", false, "print Table II instead of the Figure 5 series")
	flag.Parse()

	cfg := bench.MicroConfig{MaxRecords: *max, Step: *step, RandReads: *reads}
	cfg.Options.SGX = sgx.DefaultConfig()
	cfg.Options.SGX.EPCSize = int64(*epcMiB+8) << 20
	cfg.Options.SGX.EPCUsable = int64(*epcMiB) << 20
	cfg.Options.SGX.HeapSize = int64(*max)*bench.RecordBytes*3 + (256 << 20)
	cfg.Options.ImageBlocks = (*max*bench.RecordBytes*2)/4096 + 8192

	epcRecords := bench.EPCRecordEstimate(cfg.Options.SGX)
	fmt.Printf("EPC limit ≈ %d records (usable EPC %d MiB)\n", epcRecords, *epcMiB)

	series := map[bench.Variant]map[bench.Storage]bench.Series{}
	var flat []bench.Series
	for _, v := range []bench.Variant{bench.Native, bench.WAMR, bench.Twine, bench.SGXLKL} {
		series[v] = map[bench.Storage]bench.Series{}
		for _, s := range []bench.Storage{bench.Mem, bench.File} {
			fmt.Fprintf(os.Stderr, "sweeping %v/%v...\n", v, s)
			sr, err := bench.RunMicro(v, s, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "microbench: %v/%v: %v\n", v, s, err)
				os.Exit(1)
			}
			series[v][s] = sr
			flat = append(flat, sr)
		}
	}

	if *table2 {
		fmt.Println("Table II — normalised run time (native = 1)")
		fmt.Printf("%-10s %-5s %12s %12s %12s %12s %10s\n",
			"op", "store", "lkl<EPC", "lkl>EPC", "twine<EPC", "twine>EPC", "wamr")
		for _, s := range []bench.Storage{bench.Mem, bench.File} {
			byVariant := map[bench.Variant]bench.Series{}
			for v := range series {
				byVariant[v] = series[v][s]
			}
			for _, row := range bench.Table2(byVariant, s, epcRecords) {
				fmt.Printf("%-10s %-5s %12.1f %12.1f %12.1f %12.1f %10.1f\n",
					row.Op, row.Storage, row.SGXLKLBelow, row.SGXLKLAbove,
					row.TwineBelow, row.TwineAbove, row.WAMRAll)
			}
		}
		return
	}

	fmt.Println("Figure 5 — micro-benchmark series")
	bench.WriteSeries(os.Stdout, flat)
}
