// Command benchmark is the repository's one reproducible benchmark. It
// drives the public front doors (twine, twine/tsql) end to end on five
// named workloads with tracing off, and in a separate traced pass
// attributes each workload's latency to the repo's layers from outside:
// by replaying the same seeded op stream over a ladder of progressively
// thicker stacks built from public constructors, and by reading each
// layer's public Stats() around a fixed window. See README.md.
//
//	bash benchmark/run.sh --workload sql_read --seed 1 --seconds 8 --trace 0
//	bash benchmark/run.sh --workload sql_read --seed 1 --seconds 8 --trace 1
//	bash benchmark/run.sh                       # every workload once
//	bash benchmark/run.sh -repeat 5 -out A.json # measure the spreads
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a single run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the line before it: what a reader needs to judge the run but
// the driver does not parse.
type detail struct {
	Workload    string      `json:"workload"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Summary     *summary    `json:"summary,omitempty"`
	SetupsS     []float64   `json:"setups_s,omitempty"`
	FailedShare float64     `json:"failed_share"`
	Notes       []string    `json:"notes,omitempty"`
	Error       string      `json:"error,omitempty"`
	TraceOut    string      `json:"trace_out,omitempty"`
	Spans       int         `json:"spans,omitempty"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: every workload once, each in its own process)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 8, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass, per-layer metrics")
		traceOut = flag.String("trace-out", "", "where the traced pass writes its spans (default .bench_build/trace-<workload>.jsonl)")
		repeat   = flag.Int("repeat", 0, "run the whole end-to-end suite N times and print min/median/max/spread per metric x workload")
		out      = flag.String("out", "", "with -repeat: write every run's result to this JSON file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare A.json B.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *name == "" || *repeat > 0:
		n := *repeat
		if n < 1 {
			n = 1
		}
		os.Exit(runRepeat(n, *name, *seed, *seconds, *out))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(2, "unknown workload %q", *name)
	}
	if *seconds <= 0 {
		fatal(2, "-seconds must be positive")
	}
	var (
		res resultLine
		det detail
	)
	if *trace != 0 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "trace-"+w.name+".jsonl")
		}
		res, det = traceRun(w, *seed, *seconds, path)
	} else {
		res, det = e2eRun(w, *seed, *seconds)
	}
	if res.Attempted < 1 {
		// Nothing ran: there is no result to print.
		fatal(1, "%s", det.Error)
	}
	emit(det)
	emit(res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d ops failed: %s\n", w.name, res.Failed, res.Attempted, det.Error)
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(1, "encode: %v", err)
	}
	fmt.Println(string(b))
}

// e2eRun is the untraced pass of one workload in this process.
func e2eRun(w workload, seed int64, seconds float64) (resultLine, detail) {
	r := runE2E(w, seed, seconds)
	det := detail{Workload: w.name, Fingerprint: r.fp, SetupsS: r.setups}
	if r.err != nil {
		det.Error = r.err.Error()
	}
	res := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if r.attempted < 1 {
		return res, det
	}
	det.Summary = &r.sum
	det.FailedShare = float64(r.failed) / float64(r.attempted)
	res.Correct = r.failed == 0 && r.err == nil
	values := map[string]float64{
		"ops_per_s": r.sum.OpsPerS,
		"p50_us":    r.sum.P50us,
		"setup_s":   median(r.setups),
		"mem_mib":   r.memMiB,
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	fmt.Fprintf(os.Stderr, "%s  seed %d  %d ops in %.1f s, %d failed\n", w.name, seed, r.attempted, seconds, r.failed)
	for _, m := range endToEnd {
		fmt.Fprintf(os.Stderr, "  %-10s %14.3f %s\n", m.Name, values[m.Name], m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  best of %d segments; beside it      median across segments   quartiles              pooled\n", r.sum.Segments)
	fmt.Fprintf(os.Stderr, "  %-10s %14.3f %14.3f   %10.3f..%-10.3f %14.3f\n", "ops_per_s", r.sum.OpsPerS, r.sum.MedianOpsPerS, r.sum.OpsPerSQuartiles[0], r.sum.OpsPerSQuartiles[1], r.sum.PooledOpsPerS)
	fmt.Fprintf(os.Stderr, "  %-10s %14.3f %14.3f   %10.3f..%-10.3f %14.3f\n", "p50_us", r.sum.P50us, r.sum.MedianP50us, r.sum.P50usQuartiles[0], r.sum.P50usQuartiles[1], r.sum.PooledP50us)
	fmt.Fprintf(os.Stderr, "  %-10s %14.3f %14.3f   %10.3f..%-10.3f %14.3f\n", "p95_us", r.sum.P95us, r.sum.MedianP95us, r.sum.P95usQuartiles[0], r.sum.P95usQuartiles[1], r.sum.PooledP95us)
	fmt.Fprintf(os.Stderr, "  setups_s %v  host.calib_ms %.3f -> %.3f  noisy=%v\n", r.setups, r.fp.CalibBefore, r.fp.CalibAfter, r.fp.Noisy)
	return res, det
}

// traceRun is the traced pass of one workload in this process.
func traceRun(w workload, seed int64, seconds float64, spansPath string) (resultLine, detail) {
	t := &tracer{seed: seed, seconds: seconds, metrics: map[string]float64{}, fp: newFingerprint(seed, seconds)}
	t.fs = newTracedFS()
	err := w.trace(t)
	t.fp.closeCalib(calibMs())
	t.set("host.calib_ms", (t.fp.CalibBefore+t.fp.CalibAfter)/2)

	det := detail{Workload: w.name, Trace: true, Fingerprint: t.fp, Notes: t.notes}
	if err == nil {
		err = t.firstErr
	}
	if err != nil {
		det.Error = err.Error()
	}
	res := resultLine{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	if t.attempted < 1 {
		return res, det
	}
	det.FailedShare = float64(t.failed) / float64(t.attempted)
	res.Correct = t.failed == 0 && err == nil
	if d := t.fs.dropped.Load(); d > 0 {
		det.Notes = append(det.Notes, fmt.Sprintf("%d spans beyond the first %d were counted but not kept", d, maxSpans))
	}
	if n, werr := t.fs.writeSpans(spansPath); werr != nil {
		det.Notes = append(det.Notes, "spans not written: "+werr.Error())
	} else {
		det.TraceOut, det.Spans = spansPath, n
	}
	fmt.Fprintf(os.Stderr, "%s  traced pass  seed %d  %d ops, %d failed\n", w.name, seed, t.attempted, t.failed)
	for _, m := range perLayer {
		v, ok := t.metrics[m.Name]
		res.Metrics[m.Name] = metricValue{v, m.Unit}
		if ok {
			fmt.Fprintf(os.Stderr, "  %-36s %16.4f %s\n", m.Name, v, m.Unit)
		}
	}
	for _, n := range det.Notes {
		fmt.Fprintf(os.Stderr, "  note: %s\n", n)
	}
	fmt.Fprintf(os.Stderr, "  %d spans -> %s  host.calib_ms %.3f -> %.3f  noisy=%v\n",
		det.Spans, det.TraceOut, t.fp.CalibBefore, t.fp.CalibAfter, t.fp.Noisy)
	return res, det
}
