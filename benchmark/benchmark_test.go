package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The tests run every workload and every traced pass at about 1 % of the
// benchmark's size, so the tool cannot rot unnoticed. They check the
// tool, not the repo's speed: names, correctness gates, that the ladders
// add up, and that counts repeat.

func TestMain(m *testing.M) {
	sz = sizesAt(0.01)
	os.Exit(m.Run())
}

const (
	testWindow = 0.3 // seconds of measured window per pass
	// testSlack is how far a timing relation may be off at 1 % size, with
	// windows of a few hundred ops and possibly the race detector on.
	testSlack = 0.5
)

func TestManifestMatchesProgram(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads() {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program runs %v", names, have)
	}
	var e2e []metricDef
	for _, e := range m.EndToEnd {
		e2e = append(e2e, e.metricDef)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program emits %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json and the program's list differ")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func metricNames(defs []metricDef) []string {
	var n []string
	for _, d := range defs {
		n = append(n, d.Name)
	}
	return n
}

func checkNames(t *testing.T, res resultLine, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not emitted", d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("metric %s emitted in %q, want %q", d.Name, v.Unit, d.Unit)
		}
	}
}

func TestEndToEndPass(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res, det := e2eRun(w, 1, testWindow)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, det.Error)
			}
			checkNames(t, res, endToEnd)
			for _, name := range metricNames(endToEnd) {
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive value", name, v)
				}
			}
			if n := len(det.SetupsS); n < minSetupReps || n > maxSetupReps {
				t.Errorf("%d set-ups timed, want %d to %d", n, minSetupReps, maxSetupReps)
			}
		})
	}
}

// rungMetrics are the ladder differences of each workload, with the
// metric holding the ladder's top (the untraced front door's p50).
var rungMetrics = map[string][]string{
	"kernels":       {"wasm.self_ms", "sgx.self_ms"},
	"sql_read":      {"litedb.self_us", "hostfs.self_us", "wasi.self_us", "sgx.self_us", "ipfs.self_us"},
	"sql_write":     {"litedb.self_us", "hostfs.self_us", "wasi.self_us", "sgx.self_us", "ipfs.self_us"},
	"serve_tenants": {"wasm.guest_self_us", "core.invoke_self_us", "core.pool_self_us", "core.registry_self_us"},
	"sql_service":   {"tsql.route_self_us", "tsql.group_commit_self_us", "tsql.shard_replica_self_us"},
}

// exactCounts are the [count] metrics that may not differ between two
// runs of a 1-client workload with one seed. Which of a ring ride or a
// classic OCALL a host call became depends on whether the ring worker had
// parked, which is a matter of timing; their sum is not.
var exactCounts = []string{
	"sgx.ecalls_per_op", "sgx.epc_faults_per_op", "sgx.evictions_per_op", "sgx.epc_resident_mib",
	"ipfs.cache_hit_share", "ipfs.node_reads_per_op", "ipfs.node_writes_per_op",
	"hostfs.reads_per_op", "hostfs.writes_per_op", "hostfs.syncs_per_op", "hostfs.bytes_written_per_user_byte",
	"wasm.ins_retired_per_round", "wasi.host_retries",
}

func tracedOnce(t *testing.T, w workload) resultLine {
	t.Helper()
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	res, det := traceRun(w, 1, 2*testWindow, spans)
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d: %s", res.Correct, res.Attempted, res.Failed, det.Error)
	}
	if _, err := os.Stat(spans); err != nil {
		t.Errorf("spans not written: %v", err)
	}
	return res
}

func TestTracedPass(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			res := tracedOnce(t, w)
			checkNames(t, res, perLayer)
			val := func(name string) float64 { return res.Metrics[name].Value }

			// The ladder adds up: no rung is cheaper than the one below it
			// by more than noise, and the traced top rung lands on the
			// untraced front door.
			top := val("front.p50_us")
			if !(top > 0) {
				t.Fatalf("front.p50_us = %v", top)
			}
			sum := 0.0
			for _, name := range rungMetrics[w.name] {
				v := val(name)
				if strings.HasSuffix(name, "_ms") {
					v *= 1e3
				}
				if v < -testSlack*top {
					t.Errorf("%s = %.2f us is below -%.0f %% of the top rung (%.2f us)", name, v, testSlack*100, top)
				}
				sum += v
			}
			if share := val("trace_overhead_share"); math.Abs(share) > testSlack {
				t.Errorf("ladder does not close: traced top rung is %.0f %% off the untraced front door", share*100)
			}
			// Where the bottom rung is itself a self-time (SQL, serve), the
			// parts add back up to the traced top rung exactly.
			if w.name == "sql_read" || w.name == "sql_write" || w.name == "serve_tenants" {
				tracedTop := top * (1 + val("trace_overhead_share"))
				if math.Abs(sum-tracedTop) > 0.001*tracedTop {
					t.Errorf("self-times sum to %.3f us, traced top rung is %.3f us", sum, tracedTop)
				}
			}

			if w.name == "kernels" || w.name == "sql_read" || w.name == "sql_write" {
				again := tracedOnce(t, w)
				for _, name := range exactCounts {
					if a, b := val(name), again.Metrics[name].Value; a != b {
						t.Errorf("%s differs between two runs of one seed: %v, then %v", name, a, b)
					}
				}
				rides := func(r resultLine) float64 {
					return r.Metrics["sgx.ocalls_per_op"].Value + r.Metrics["sgx.switchless_per_op"].Value
				}
				if a, b := rides(res), rides(again); math.Abs(a-b) > 1e-9 {
					t.Errorf("boundary rides per op differ between two runs of one seed: %v, then %v", a, b)
				}
			}
		})
	}
}

func TestSummaryTakesBestSegment(t *testing.T) {
	var w window
	at := int64(0)
	for i := 0; i < 4000; i++ {
		lat := int64(10_000)
		if i >= 2000 { // the second half of the window is twice as slow
			lat = 20_000
		}
		at += lat
		w.samples = append(w.samples, sample{end: at, lat: lat})
	}
	s := summarize(w)
	if s.Segments != maxSegments {
		t.Fatalf("%d segments, want %d", s.Segments, maxSegments)
	}
	if math.Abs(s.P50us-10) > 1e-9 || math.Abs(s.OpsPerS-100_000) > 1 {
		t.Errorf("best segment: p50 %v us, %v ops/s; want 10 us, 100000 ops/s", s.P50us, s.OpsPerS)
	}
	if math.Abs(s.MedianP50us-15) > 1e-9 {
		t.Errorf("median across segments: p50 %v us, want 15 us", s.MedianP50us)
	}
}

func TestPyQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}
