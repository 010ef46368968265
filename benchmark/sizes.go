package main

// scale is the one size constant of the benchmark: every data-set size
// and every fixed op count is the figure in the comments below times
// scale. At 0.5 a run (three set-ups plus the measured window) fits the
// driver's per-run budget. To shrink or grow the benchmark change scale,
// never one workload's numbers on their own.
const scale = 0.5

// sizes are the data-set sizes and the fixed op counts: warm-ups (per
// client, unmeasured) and the traced pass's counted windows.
type sizes struct {
	scale float64

	sqlRows   int // rows of 1 KiB in sql_read / sql_write
	svcRows   int // small text rows in sql_service
	svcWindow int // keys covered by one fan-out range query
	ipfsBytes int // file size of the ipfs unit instruments

	warmKernels, warmSQLRead, warmSQLWrite, warmServe, warmService int64
	// The ladder warm-ups apply to every rung of a traced pass.
	ladderWarmSQLRead, ladderWarmSQLWrite, ladderWarmServe, ladderWarmService int64
	countKernels, countSQLRead, countSQLWrite, countServe, countService       int64
}

func sizesAt(scale float64) sizes {
	n := func(full int) int {
		if v := int(float64(full) * scale); v > 1 {
			return v
		}
		return 1
	}
	ops := func(full int) int64 { return int64(n(full)) }
	s := sizes{
		scale:     scale,
		sqlRows:   n(64_000), // 8x the default page cache at scale 1
		svcRows:   n(16_000),
		svcWindow: 256,
		ipfsBytes: n(16<<20) &^ (nodeBytes - 1),

		warmKernels: 5,
		// A point read only settles into its steady latency mix after
		// some 20 000 ops on a fresh handle; the read warm-ups cover it.
		warmSQLRead:  ops(60_000),
		warmSQLWrite: ops(10_000),
		warmServe:    ops(4_000),
		// Long enough that every lazily opened replica of both shards
		// has served (handles rotate), so no 0.4 s replica open lands in
		// a measured window.
		warmService: ops(3_000),

		ladderWarmSQLRead:  ops(60_000),
		ladderWarmSQLWrite: ops(6_000),
		ladderWarmServe:    ops(2_000),
		ladderWarmService:  ops(3_000),

		countKernels:  ops(40),
		countSQLRead:  ops(40_000),
		countSQLWrite: ops(10_000),
		countServe:    ops(20_000),
		countService:  ops(8_000),
	}
	if s.svcWindow > s.svcRows/4 {
		s.svcWindow = n(s.svcRows / 4)
	}
	if s.ipfsBytes < 64*nodeBytes {
		s.ipfsBytes = 64 * nodeBytes
	}
	return s
}

// sz is what the run uses; benchmark_test.go lowers it to about 1 %.
var sz = sizesAt(scale)
