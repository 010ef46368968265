package main

import (
	"fmt"
	"io"
	"time"

	"twine/internal/hostfs"
	"twine/internal/ipfs"
	"twine/internal/litedb"
	"twine/internal/sgx"
)

// The [unit] instruments: one public function of one layer, timed alone.
// A count metric times its unit cost approximates the time that layer's
// boundary takes in an op.

// unitsSGX prices the enclave boundary on a live enclave: an empty ECALL,
// an empty classic OCALL, an empty switchless ride, and sealing.
func unitsSGX(t *tracer, e *sgx.Enclave) {
	nop := func() error { return nil }
	t.set("sgx.ecall_ns", timeCalls(unitCalls, func() { _ = e.ECall("bench_nop", nop) }))
	var ocall, ride float64
	_ = e.ECall("bench_ocalls", func() error {
		ocall = timeCalls(unitCalls, func() { _ = e.OCall("bench_nop", nop) })
		ride = timeCalls(unitCalls, func() { _ = e.SwitchlessOCall("bench_nop", 0, nop) })
		return nil
	})
	t.set("sgx.ocall_ns", ocall)
	t.set("sgx.switchless_ns", ride)

	buf := make([]byte, 1<<20)
	const seals = 32
	perSeal := timeCalls(seals, func() { _, _ = e.Seal("bench", buf) })
	t.set("sgx.seal_mib_per_s", 1e9/perSeal)
}

// unitsIPFS times the protected file system alone, with no enclave under
// it: sequential node writes while a file of ipfsFileBytes is created,
// the flush that ends it, and random node reads after a cold reopen.
func unitsIPFS(t *tracer) error {
	ipfsFileBytes := sz.ipfsBytes
	host := hostfs.NewMemFS()
	fs := ipfs.New(nil, host, ipfs.Options{Mode: ipfs.ModeOptimized})
	f, err := fs.Open("unit.dat", hostfs.OCreate|hostfs.OWrite|hostfs.ORead)
	if err != nil {
		return fmt.Errorf("ipfs unit: %w", err)
	}
	node := make([]byte, nodeBytes)
	fillPayload(node, t.seed, 0, 0)
	nodes := ipfsFileBytes / nodeBytes
	var werr error
	t.set("ipfs.write_node_us", timeCalls(nodes, func() {
		if _, err := f.Write(node); err != nil {
			werr = err
		}
	})/1e3)
	if werr != nil {
		return fmt.Errorf("ipfs unit: write: %w", werr)
	}
	t0 := time.Now()
	if err := f.Flush(); err != nil {
		return fmt.Errorf("ipfs unit: flush: %w", err)
	}
	t.set("ipfs.flush_ms", float64(time.Since(t0))/1e6)
	if err := f.Close(); err != nil {
		return fmt.Errorf("ipfs unit: close: %w", err)
	}
	t.set("ipfs.bytes_stored_per_user_byte", float64(host.TotalBytes())/float64(ipfsFileBytes))

	f, err = fs.Open("unit.dat", hostfs.ORead)
	if err != nil {
		return fmt.Errorf("ipfs unit: reopen: %w", err)
	}
	defer f.Close()
	var i int64
	var rerr error
	t.set("ipfs.read_node_us", timeCalls(unitCalls, func() {
		off := int64(mix(t.seed, 5, i)%uint64(nodes)) * nodeBytes
		i++
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			rerr = err
			return
		}
		if _, err := io.ReadFull(f, node); err != nil {
			rerr = err
		}
	})/1e3)
	if rerr != nil {
		return fmt.Errorf("ipfs unit: read: %w", rerr)
	}
	return nil
}

// parseUs is the mean time litedb.ParseAll takes on the given statements.
func parseUs(stmts []string) float64 {
	var i int
	return timeCalls(unitCalls, func() {
		_, _ = litedb.ParseAll(stmts[i%len(stmts)])
		i++
	}) / 1e3
}

// unitsSQL reports the SQL layer's own costs: parsing the workload's
// statements, the full scan natively (rung A) and through the front door
// (the ladder's exact final checks, timed), and the front door's bulk
// insert rate (its population, timed).
func unitsSQL(t *tracer, l *sqlLadder, scanMs []float64) {
	t.set("litedb.parse_us", parseUs([]string{sqlPoint, sqlPointData, sqlUpdate, sqlInsert}))
	t.set("litedb.scan_us_per_krow", scanMs[0]*1e3/(float64(sz.sqlRows)/1e3))
	t.set("tsql.scan_ms", scanMs[len(scanMs)-1])
	t.set("tsql.bulk_insert_us_per_row", l.frontPopSeconds*1e6/float64(sz.sqlRows))
}
