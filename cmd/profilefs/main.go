// Command profilefs regenerates the paper's Figure 7: the time breakdown
// of random reads over a Twine on-file database (SQLite inner work, other
// read operations, OCALLs, memory clearing), before and after the §V-F
// protected-file-system optimisations, plus the resulting speedups.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"twine/internal/bench"
	"twine/internal/sgx"
)

func main() {
	records := flag.Int("records", 4000, "database records (paper: 175000)")
	reads := flag.Int("reads", 2000, "random reads to profile")
	flag.Parse()

	// The cache must be smaller than the database or random reads never
	// reach the protected FS (the paper uses 175k records vs an 8 MiB
	// cache; keep the same ratio).
	opt := bench.Options{SGX: sgx.DefaultConfig(), CachePages: *records / 4}
	if opt.CachePages < 64 {
		opt.CachePages = 64
	}
	opt.SGX.HeapSize = int64(*records)*bench.RecordBytes*3 + (128 << 20)

	fmt.Fprintln(os.Stderr, "profiling standard IPFS...")
	std, err := bench.RunBreakdown(*records, *reads, false, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profilefs:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "profiling optimized IPFS...")
	optm, err := bench.RunBreakdown(*records, *reads, true, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profilefs:", err)
		os.Exit(1)
	}

	fmt.Printf("Figure 7 — random-read breakdown (%d records, %d reads)\n", *records, *reads)
	print := func(name string, b bench.Breakdown) {
		pct := func(d time.Duration) float64 {
			if b.Total == 0 {
				return 0
			}
			return 100 * float64(d) / float64(b.Total)
		}
		fmt.Printf("%-10s total %10s | sqlite %5.1f%% | read-other %5.1f%% | crypto %5.1f%% | boundary %5.1f%% (%d rides, %d classic OCALLs) | memset %5.1f%%\n",
			name, b.Total, pct(b.SQLite), pct(b.ReadOther), pct(b.Crypto), pct(b.Boundary), b.Rides, b.OCalls, pct(b.Memset))
	}
	print("standard", std)
	print("optimized", optm)
	if optm.Total > 0 {
		fmt.Printf("random-read speedup (standard/optimized): %.2fx\n",
			float64(std.Total)/float64(optm.Total))
	}
}
