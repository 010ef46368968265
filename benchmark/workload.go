package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"twine/internal/ipfs"
	"twine/internal/sgx"
)

// stack is one runnable configuration of a workload: its front door, or
// one rung of its ladder. op is safe to call from `clients` goroutines at
// once, each with its own client number.
type stack struct {
	name    string
	clients int
	op      opFunc
	// finish runs the end-of-run correctness check (exact counts, reopen).
	finish func() error
	close  func()
	// probe reaches the layers' public Stats() (nil on rungs that have
	// no enclave under them).
	probe *probe
	// next is where each client's op stream continues.
	next []int64
}

// probe holds the public handles whose Stats() deltas the traced pass
// reads around a window.
type probe struct {
	enclaves []*sgx.Enclave
	pfs      []*ipfs.FS
	fs       *tracedFS
	retries  func() int64
}

// counters is one reading of a probe.
type counters struct {
	sgx          sgx.Stats
	hits, misses int64
	host         hostCounts
	resident     int
	retries      int64
}

func (p *probe) read() counters {
	var c counters
	for _, e := range p.enclaves {
		s := e.Stats()
		c.sgx.ECalls += s.ECalls
		c.sgx.OCalls += s.OCalls
		c.sgx.SwitchlessCalls += s.SwitchlessCalls
		c.sgx.FallbackOCalls += s.FallbackOCalls
		c.sgx.WorkerWakeups += s.WorkerWakeups
		c.sgx.TCSWaits += s.TCSWaits
		c.sgx.PageFaults += s.PageFaults
		c.sgx.Evictions += s.Evictions
		c.resident += e.Memory().Resident()
	}
	for _, f := range p.pfs {
		h, m := f.CacheStats()
		c.hits += h
		c.misses += m
	}
	if p.fs != nil {
		c.host = p.fs.counts()
	}
	if p.retries != nil {
		c.retries = p.retries()
	}
	return c
}

// warmOffset keeps warm-up ops out of the measured op stream.
const warmOffset = int64(1) << 40

// workload is one named set of inputs. front builds the front-door stack
// the end-to-end pass measures; trace runs the workload's ladder and
// instruments and records per-layer metrics.
type workload struct {
	name, why string
	// warmOps is the unmeasured warm-up, in ops per client.
	warmOps int64
	front   func(seed int64) (*stack, error)
	trace   func(t *tracer) error
}

func workloads() []workload {
	return []workload{
		kernelsWorkload(),
		{
			name:    "sql_read",
			why:     "uniform point SELECTs over a table 4x the page cache: every layer from litedb down to hostfs blocks the answer (Figs. 5c, 7)",
			warmOps: sz.warmSQLRead,
			front:   sqlFront(false),
			trace:   func(t *tracer) error { return traceSQL(t, false) },
		},
		{
			name:    "sql_write",
			why:     "autocommit UPDATEs on the same table: journal and flush path, ~8x the boundary rides of a read; reopen-and-verify catches faster-by-not-persisting",
			warmOps: sz.warmSQLWrite,
			front:   sqlFront(true),
			trace:   func(t *tracer) error { return traceSQL(t, true) },
		},
		serveWorkload(),
		serviceWorkload(),
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A run builds the front door at least minSetupReps times, and up to
// maxSetupReps times while that has taken under setupBudget in all, so the
// cheap set-ups (an enclave launch is 0.3 s, two thirds of it page faults)
// get the most repetitions. setup_s is the median, which keeps the
// process's cold first launch and any slow one from deciding it.
const (
	minSetupReps = 3
	maxSetupReps = 7
	setupBudget  = 2 * time.Second
)

// e2eResult is what the untraced pass of one workload yields.
type e2eResult struct {
	sum       summary
	setups    []float64
	memMiB    float64
	attempted int64
	failed    int64
	err       error
	fp        fingerprint
}

// runE2E measures one workload through its front door with tracing off.
func runE2E(w workload, seed int64, seconds float64) e2eResult {
	res := e2eResult{fp: newFingerprint(seed, seconds)}
	var st *stack
	var spent time.Duration
	for r := 0; r < maxSetupReps && (r < minSetupReps || spent < setupBudget); r++ {
		if st != nil {
			st.close()
			st = nil
			// Collect the torn-down stack so the next one reuses its
			// memory: peak RSS then reflects one stack. The memory is
			// deliberately not handed back to the OS; faulting it in
			// again costs more on this kind of host than anything the
			// benchmark measures.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		st, err = w.front(seed)
		if err != nil {
			res.err = fmt.Errorf("%s: set-up: %w", w.name, err)
			return res
		}
		took := time.Since(t0)
		spent += took
		res.setups = append(res.setups, took.Seconds())
	}
	defer st.close()

	res.fp.CalibBefore = calibMs()
	warm := closedLoop(st.clients, 0, w.warmOps, offsets(st.clients, warmOffset), st.op)
	if warm.firstErr != nil {
		res.err = fmt.Errorf("%s: warm-up: %w", w.name, warm.firstErr)
		return res
	}
	runtime.GC()

	win := closedLoop(st.clients, time.Duration(seconds*float64(time.Second)), 0, nil, st.op)
	res.sum = summarize(win)
	res.attempted = int64(len(win.samples))
	res.failed = win.failed
	res.err = win.firstErr
	if st.finish != nil {
		if err := st.finish(); err != nil {
			// A failed end-of-run check condemns the whole run: no op
			// of it can be trusted.
			res.failed = res.attempted
			res.err = fmt.Errorf("%s: final check: %w", w.name, err)
		}
	}
	res.fp.closeCalib(calibMs())
	res.memMiB = peakRSSMiB()
	return res
}

func offsets(clients int, at int64) []int64 {
	o := make([]int64, clients)
	for i := range o {
		o[i] = at
	}
	return o
}

// tracer carries one traced pass: its budget, the host interposer, and
// the per-layer metrics found so far.
type tracer struct {
	seed      int64
	seconds   float64
	fs        *tracedFS
	metrics   map[string]float64
	notes     []string
	attempted int64
	failed    int64
	firstErr  error
	fp        fingerprint
}

func (t *tracer) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	t.metrics[name] = v
}

func (t *tracer) note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// account books a window's ops and failures; the first error of the pass
// is kept, named after the stack it happened on.
func (t *tracer) account(st *stack, w window) {
	t.attempted += int64(len(w.samples))
	t.failed += w.failed
	if t.firstErr == nil && w.firstErr != nil {
		t.firstErr = fmt.Errorf("%s: %w", st.name, w.firstErr)
	}
}

// finish runs a stack's end-of-run check and books a failure of it.
func (t *tracer) finish(st *stack) {
	if st.finish == nil {
		return
	}
	if err := st.finish(); err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s: final check: %w", st.name, err)
		}
	}
}

// tracedOp wraps the op of a rung that sits on the interposer, so each
// host call's span names the request that caused it.
func (t *tracer) tracedOp(st *stack) opFunc {
	if st.probe == nil || st.probe.fs == nil || st.clients != 1 {
		return st.op
	}
	fs := st.probe.fs
	return func(c int, i int64) error {
		fs.req.Store(i)
		err := st.op(c, i)
		fs.req.Store(-1)
		return err
	}
}

// warm runs the fixed warm-up on every rung.
func (t *tracer) warm(stacks []*stack, ops int64) {
	t.fp.CalibBefore = calibMs()
	for _, st := range stacks {
		runtime.GC()
		w := closedLoop(st.clients, 0, ops, offsets(st.clients, warmOffset), st.op)
		t.failed += w.failed
		if w.firstErr != nil && t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s: warm-up: %w", st.name, w.firstErr)
		}
	}
	runtime.GC()
}

// ladderPasses is how many times the rungs are visited in turn; host
// drift during a run then lands on every rung alike.
const ladderPasses = 8

// rungResult is one rung's view over the interleaved passes: the best
// pass's value of each figure, as the end-to-end metrics take the best
// segment's.
type rungResult struct {
	p50us, p95us, opsPerS float64
}

// interleave shares `budget` seconds equally between the rungs, visiting
// them A, B, ..., A, B, ... over ladderPasses passes. Each rung continues
// its own op stream from pass to pass.
func (t *tracer) interleave(stacks []*stack, budget float64) []rungResult {
	slice := time.Duration(budget / float64(len(stacks)*ladderPasses) * float64(time.Second))
	out := make([]rungResult, len(stacks))
	for pass := 0; pass < ladderPasses; pass++ {
		for i, st := range stacks {
			traced := st.probe != nil && st.probe.fs != nil
			if traced {
				st.probe.fs.on.Store(true)
			}
			// Every slice starts from a collected heap. A ladder holds
			// several stacks, so its heap is too large for the collector
			// to start on its own within a run; without this every
			// allocation would land on never-touched memory, and the
			// page faults would be charged to the rungs.
			runtime.GC()
			w := closedLoop(st.clients, slice, 0, st.next, t.tracedOp(st))
			if traced {
				st.probe.fs.on.Store(false)
			}
			st.next = w.next
			t.account(st, w)
			p50, p95 := latencyQuantiles(w)
			thr := float64(len(w.samples)) / w.elapsed.Seconds()
			if r := &out[i]; pass == 0 {
				*r = rungResult{p50, p95, thr}
			} else {
				r.p50us, r.p95us, r.opsPerS = math.Min(r.p50us, p50), math.Min(r.p95us, p95), math.Max(r.opsPerS, thr)
			}
		}
	}
	return out
}

// counted runs a fixed number of ops on st from a fixed state and returns
// the probe's delta. With one client nothing in it depends on time, so
// two runs with one seed print identical counts.
func (t *tracer) counted(st *stack, ops int64) (counters, counters, int64) {
	runtime.GC()
	before := st.probe.read()
	w := closedLoop(st.clients, 0, ops, st.next, t.tracedOp(st))
	st.next = w.next
	t.account(st, w)
	return before, st.probe.read(), int64(len(w.samples))
}

// setCounts records the boundary and storage counts of a window.
// userBytes is the payload the client wrote in it (0 for read-only work).
func (t *tracer) setCounts(before, after counters, ops int64, userBytes int64) {
	n := float64(ops)
	d := after.sgx
	t.set("sgx.ecalls_per_op", float64(d.ECalls-before.sgx.ECalls)/n)
	t.set("sgx.ocalls_per_op", float64(d.OCalls-before.sgx.OCalls)/n)
	t.set("sgx.switchless_per_op", float64(d.SwitchlessCalls-before.sgx.SwitchlessCalls)/n)
	t.set("sgx.fallback_ocalls_per_op", float64(d.FallbackOCalls-before.sgx.FallbackOCalls)/n)
	t.set("sgx.wakeups_per_op", float64(d.WorkerWakeups-before.sgx.WorkerWakeups)/n)
	t.set("sgx.tcs_waits_per_op", float64(d.TCSWaits-before.sgx.TCSWaits)/n)
	t.set("sgx.epc_faults_per_op", float64(d.PageFaults-before.sgx.PageFaults)/n)
	t.set("sgx.evictions_per_op", float64(d.Evictions-before.sgx.Evictions)/n)
	t.set("sgx.epc_resident_mib", float64(after.resident)*sgx.PageSize/(1<<20))
	t.set("wasi.host_retries", float64(after.retries-before.retries))
	if lookups := (after.hits - before.hits) + (after.misses - before.misses); lookups > 0 {
		t.set("ipfs.cache_hit_share", float64(after.hits-before.hits)/float64(lookups))
	}
	h := after.host.sub(before.host)
	t.set("ipfs.node_reads_per_op", float64(h.NodeReads)/n)
	t.set("ipfs.node_writes_per_op", float64(h.NodeWrites)/n)
	t.set("hostfs.reads_per_op", float64(h.Reads)/n)
	t.set("hostfs.writes_per_op", float64(h.Writes)/n)
	t.set("hostfs.syncs_per_op", float64(h.Syncs)/n)
	if userBytes > 0 {
		t.set("hostfs.bytes_written_per_user_byte", float64(h.BytesWritten)/float64(userBytes))
	}
}

// closure compares the traced top rung with the untraced front door. The
// difference is what tracing (and, for the SQL ladder, building the stack
// from core constructors rather than through tsql.Open) adds; the ladder
// only adds up if it stays inside the p50_us bound.
func (t *tracer) closure(top, full rungResult) {
	share := top.p50us/full.p50us - 1
	t.set("trace_overhead_share", share)
	t.set("front.p50_us", full.p50us)
	t.set("front.p95_us", full.p95us)
	if math.Abs(share) > p50Bound {
		t.note("ladder does not close: traced top rung p50 %.2f us vs untraced front door %.2f us (%.1f %%, bound %.0f %%)",
			top.p50us, full.p50us, share*100, p50Bound*100)
	}
}

// closeAll tears a ladder down.
func closeAll(stacks []*stack) {
	for _, st := range stacks {
		if st != nil && st.close != nil {
			st.close()
		}
	}
}

// timeCalls returns the mean wall time of n calls of fn, in nanoseconds.
func timeCalls(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}

// unitCalls is the call count of the [unit] instruments whose subject
// takes microseconds or less.
const unitCalls = 10_000
