package main

// metricDef names one metric the benchmark emits. The lists below are the
// program's side of BENCHMARK.json; benchmark_test.go holds the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// p50Bound is the share by which a ladder's traced top rung may miss the
// untraced front door before the traced pass says the ladder does not
// close. It is the starting regression bound of p50_us.
const p50Bound = 0.10

// endToEnd are the metrics of the untraced pass, the same four on every
// workload. Two of the issue's six are reported elsewhere. failed_share is
// the result line's own failed/attempted pair: it is 0 at seed, and the
// contract wants end-to-end metrics that are never 0. p95_us swings by
// 20-35 % between runs of unchanged code on this host, more than any
// bound the contract allows, so by the issue's own rule it is demoted to
// the per-layer metric front.p95_us (and still printed by every run).
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher"},
	{"p50_us", "us", "lower"},
	{"setup_s", "s", "lower"},
	{"mem_mib", "MiB", "lower"},
}

const (
	lower  = "lower"
	higher = "higher"
)

// perLayer are the metrics of the traced pass. Every traced run prints all
// of them; a metric whose layer does no work on the workload, or whose
// instrument belongs to another workload's pass, reads 0 there.
var perLayer = []metricDef{
	// [rung] SQL ladder (sql_read, sql_write)
	{"litedb.self_us", "us", lower},
	{"hostfs.self_us", "us", lower},
	{"wasi.self_us", "us", lower},
	{"sgx.self_us", "us", lower},
	{"ipfs.self_us", "us", lower},
	// [rung] kernel ladder
	{"wasm.self_ms", "ms", lower},
	{"sgx.self_ms", "ms", lower},
	{"wasm.slowdown_vs_native", "x", lower},
	{"wasm.kernel_ms.gemm", "ms", lower},
	{"wasm.kernel_ms.2mm", "ms", lower},
	{"wasm.kernel_ms.atax", "ms", lower},
	{"wasm.kernel_ms.jacobi-2d", "ms", lower},
	{"wasm.kernel_ms.cholesky", "ms", lower},
	{"wasm.kernel_ms.floyd-warshall", "ms", lower},
	// [rung] serve ladder
	{"wasm.guest_self_us", "us", lower},
	{"core.invoke_self_us", "us", lower},
	{"core.pool_self_us", "us", lower},
	{"core.registry_self_us", "us", lower},
	// [rung] service ladder and per-class timing
	{"tsql.route_self_us", "us", lower},
	{"tsql.group_commit_self_us", "us", lower},
	{"tsql.shard_replica_self_us", "us", lower},
	{"tsql.concurrency_gain_x", "x", higher},
	{"tsql.read_p50_us", "us", lower},
	{"tsql.write_p50_us", "us", lower},
	{"tsql.scan_p50_us", "us", lower},
	// [count] enclave boundary and EPC
	{"sgx.ecalls_per_op", "count", lower},
	{"sgx.ocalls_per_op", "count", lower},
	{"sgx.switchless_per_op", "count", lower},
	{"sgx.fallback_ocalls_per_op", "count", lower},
	{"sgx.wakeups_per_op", "count", lower},
	{"sgx.tcs_waits_per_op", "count", lower},
	{"sgx.epc_faults_per_op", "count", lower},
	{"sgx.evictions_per_op", "count", lower},
	{"sgx.epc_resident_mib", "MiB", lower},
	// [unit] enclave boundary
	{"sgx.ecall_ns", "ns", lower},
	{"sgx.ocall_ns", "ns", lower},
	{"sgx.switchless_ns", "ns", lower},
	{"sgx.seal_mib_per_s", "MiB/s", higher},
	{"sgx.launch_ms", "ms", lower},
	// [unit] / [count] wasm
	{"wasm.decode_ms", "ms", lower},
	{"wasm.compile_ms", "ms", lower},
	{"wasm.instantiate_us", "us", lower},
	{"wasm.snapshot_instantiate_us", "us", lower},
	{"wasm.reset_us", "us", lower},
	{"wasm.ins_retired_per_round", "count", lower},
	{"wasm.exec_ms.tier0", "ms", lower},
	{"wasm.exec_ms.tier1", "ms", lower},
	{"wasm.exec_ms.tier2", "ms", lower},
	{"wasm.exec_ms.tier3", "ms", lower},
	// wasi
	{"wasi.fd_write_ns", "ns", lower},
	{"wasi.host_retries", "count", lower},
	// ipfs
	{"ipfs.cache_hit_share", "ratio", higher},
	{"ipfs.node_reads_per_op", "count", lower},
	{"ipfs.node_writes_per_op", "count", lower},
	{"ipfs.read_node_us", "us", lower},
	{"ipfs.write_node_us", "us", lower},
	{"ipfs.flush_ms", "ms", lower},
	{"ipfs.bytes_stored_per_user_byte", "ratio", lower},
	// hostfs (interposer)
	{"hostfs.reads_per_op", "count", lower},
	{"hostfs.writes_per_op", "count", lower},
	{"hostfs.syncs_per_op", "count", lower},
	{"hostfs.bytes_written_per_user_byte", "ratio", lower},
	// litedb / tsql units
	{"litedb.parse_us", "us", lower},
	{"litedb.scan_us_per_krow", "us", lower},
	{"tsql.scan_ms", "ms", lower},
	{"tsql.bulk_insert_us_per_row", "us", lower},
	// core
	{"core.load_module_ms", "ms", lower},
	{"core.new_instance_us", "us", lower},
	{"core.pool_waits_per_op", "count", lower},
	{"core.warm_resets_per_op", "count", lower},
	{"core.cold_starts_per_op", "count", lower},
	{"core.quarantined", "count", lower},
	{"core.compiled_modules", "count", lower},
	{"core.compile_hits", "count", higher},
	{"core.hist_p50_us", "us", lower},
	{"core.suspend_resume_us", "us", lower},
	{"core.seal_kib_per_suspend", "KiB", lower},
	// tsql service counts
	{"tsql.stmts_per_group_commit", "count", higher},
	{"tsql.replica_refreshes_per_write", "count", lower},
	{"tsql.fanouts_per_op", "count", lower},
	{"tsql.max_shard_share", "ratio", lower},
	// the untraced front door inside the traced pass, and validity
	{"front.p50_us", "us", lower},
	{"front.p95_us", "us", lower},
	{"trace_overhead_share", "ratio", lower},
	{"host.calib_ms", "ms", lower},
}
