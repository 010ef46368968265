package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is the part of BENCHMARK.json this program reads back: the
// workload names and the end-to-end bounds.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadManifest finds BENCHMARK.json in the working directory (the
// checkout root, where run.sh starts the program) or one level up (where
// `go test` runs).
func loadManifest() (*manifest, error) {
	var last error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			last = err
			continue
		}
		var m manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, last
}

// runRecord is one run of one workload inside a report.
type runRecord struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Result   resultLine `json:"result"`
	Detail   detail     `json:"detail"`
}

// report is what -repeat writes to -out and -compare reads.
type report struct {
	Runs []runRecord `json:"runs"`
}

// cell gathers one metric of one workload across a report's runs.
func (r *report) cell(workload, metric string) []float64 {
	var v []float64
	for _, run := range r.Runs {
		if run.Workload == workload {
			if m, ok := run.Result.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

func (r *report) failedShare(workload string) float64 {
	var failed, attempted int64
	for _, run := range r.Runs {
		if run.Workload == workload {
			failed += run.Result.Failed
			attempted += run.Result.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// pyQuartiles is Python's statistics.quantiles(v, n=4) (the exclusive
// method), so that the spreads printed here are the ones the driver
// computes.
func pyQuartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrShare is the distance between the quartiles as a share of the
// median: the spread the bounds are judged against.
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := pyQuartiles(v)
	return (q3 - q1) / median(v)
}

// runChild runs one workload in its own process (a re-exec of this
// binary), so no workload inherits another's heap, caches or peak RSS.
func runChild(workload string, seed int64, seconds float64) (runRecord, error) {
	rec := runRecord{Workload: workload, Seed: seed}
	self, err := os.Executable()
	if err != nil {
		return rec, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	outBytes, runErr := cmd.Output()
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(outBytes))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) < 2 {
		return rec, fmt.Errorf("%s: no result (%v)", workload, runErr)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
		return rec, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &rec.Detail); err != nil {
		return rec, fmt.Errorf("%s: detail line: %w", workload, err)
	}
	return rec, nil
}

// runRepeat runs the end-to-end suite n times (one workload when only is
// set) and prints, per metric x workload, min, median, max, the range and
// the quartile distance as shares of the median. Repetition r uses seed
// base+r, as the driver varies seeds between runs.
func runRepeat(n int, only string, base int64, seconds float64, outPath string) int {
	var names []string
	for _, w := range workloads() {
		if only == "" || only == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fatal(2, "unknown workload %q", only)
	}
	rep := &report{}
	code := 0
	for r := 0; r < n; r++ {
		for _, name := range names {
			rec, err := runChild(name, base+int64(r), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
				continue
			}
			if !rec.Result.Correct {
				code = 1
			}
			rep.Runs = append(rep.Runs, rec)
		}
	}
	bounds := map[string]float64{}
	if m, err := loadManifest(); err == nil {
		for _, e := range m.EndToEnd {
			bounds[e.Name] = e.Bound
		}
	}
	fmt.Printf("%-14s %-10s %-6s %14s %14s %14s %9s %9s %7s\n",
		"workload", "metric", "unit", "min", "median", "max", "range/med", "iqr/med", "bound")
	for _, name := range names {
		for _, m := range endToEnd {
			v := rep.cell(name, m.Name)
			if len(v) == 0 {
				continue
			}
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			med := median(s)
			fmt.Printf("%-14s %-10s %-6s %14.3f %14.3f %14.3f %9.4f %9.4f %7.2f\n",
				name, m.Name, m.Unit, s[0], med, s[len(s)-1], (s[len(s)-1]-s[0])/med, iqrShare(v), bounds[m.Name])
		}
		noisy := 0
		for _, run := range rep.Runs {
			if run.Workload == name && run.Detail.Fingerprint.Noisy {
				noisy++
			}
		}
		fmt.Printf("%-14s %-10s %-6s %14.6f   (%d of %d runs flagged noisy)\n", name, "failed_share", "ratio",
			rep.failedShare(name), noisy, n)
	}
	if outPath != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -out: %v\n", err)
			return 1
		}
	}
	return code
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runCompare prints only the metric x workload cells where B is worse
// than A by more than the metric's bound. A cell whose own run-to-run
// spread exceeds the bound, on either side, is reported as unresolved
// rather than as unchanged. The exit code is non-zero on a regression or
// on a higher failed share.
func runCompare(pathA, pathB string) int {
	m, err := loadManifest()
	if err != nil {
		fatal(2, "BENCHMARK.json: %v", err)
	}
	a, err := readReport(pathA)
	if err != nil {
		fatal(2, "%v", err)
	}
	b, err := readReport(pathB)
	if err != nil {
		fatal(2, "%v", err)
	}
	if len(a.Runs) > 0 && len(b.Runs) > 0 {
		fa, fb := a.Runs[0].Detail.Fingerprint, b.Runs[0].Detail.Fingerprint
		fmt.Printf("A: nproc %d GOMAXPROCS %d %s scale %g seconds %g calib %.3f ms\nB: nproc %d GOMAXPROCS %d %s scale %g seconds %g calib %.3f ms\n",
			fa.NProc, fa.GOMAXPROCS, fa.GoVersion, fa.Scale, fa.Seconds, fa.CalibBefore,
			fb.NProc, fb.GOMAXPROCS, fb.GoVersion, fb.Scale, fb.Seconds, fb.CalibBefore)
	}
	code := 0
	for _, w := range m.Workloads {
		for _, e := range m.EndToEnd {
			va, vb := a.cell(w.Name, e.Name), b.cell(w.Name, e.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if e.Better == higher {
				worse = (ma - mb) / ma
			}
			spread := math.Max(iqrShare(va), iqrShare(vb))
			switch {
			case worse > e.Bound:
				fmt.Printf("REGRESSION  %-14s %-10s %12.3f -> %12.3f %s  (%.1f %% worse, bound %.0f %%)\n",
					w.Name, e.Name, ma, mb, e.Unit, worse*100, e.Bound*100)
				code = 1
			case spread > e.Bound:
				fmt.Printf("unresolved  %-14s %-10s %12.3f -> %12.3f %s  (own spread %.1f %% exceeds bound %.0f %%)\n",
					w.Name, e.Name, ma, mb, e.Unit, spread*100, e.Bound*100)
			}
		}
		if fa, fb := a.failedShare(w.Name), b.failedShare(w.Name); fb > fa {
			fmt.Printf("REGRESSION  %-14s failed_share %g -> %g\n", w.Name, fa, fb)
			code = 1
		}
	}
	if code == 0 {
		fmt.Println("no end-to-end metric is worse than its bound")
	}
	return code
}
