package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// maxSegments is how many equal-count slices the measured ops are cut
// into (fewer when that would leave a slice under minSegmentOps ops).
// Each slice yields its own throughput and latency quantiles, and the
// metric is the best slice's. The noise of this kind of host is one-sided:
// neighbours and the scheduler only ever slow a slice down, in bursts of
// about a second and sometimes for a whole run, so the best of 40 slices
// repeats from run to run where their median swings by 20-40 %. The median
// across slices and the pooled value are printed beside it.
const (
	maxSegments   = 40
	minSegmentOps = 10
)

// sample is one completed op: when it ended (ns since the window opened)
// and how long it took.
type sample struct{ end, lat int64 }

// opFunc runs verified op number i of one client. It returns an error for
// a failed call and for a wrong answer alike.
type opFunc func(client int, i int64) error

// window is what one closed-loop measurement leaves behind.
type window struct {
	samples  []sample // all clients, ordered by end time
	elapsed  time.Duration
	failed   int64
	firstErr error
	next     []int64 // per client: the op index to continue from
}

// closedLoop drives op from `clients` goroutines, each sending its next
// op only after the previous one returned. It stops after dur, or after
// maxOps ops per client when maxOps > 0 (the fixed-count windows whose
// counters must repeat exactly). from gives each client's first op index.
func closedLoop(clients int, dur time.Duration, maxOps int64, from []int64, op opFunc) window {
	per := make([][]sample, clients)
	failed := make([]int64, clients)
	errs := make([]error, clients)
	next := make([]int64, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			room := int64(1 << 18)
			if maxOps > 0 && maxOps < room {
				room = maxOps
			}
			buf := make([]sample, 0, room)
			i := int64(0)
			if from != nil {
				i = from[c]
			}
			first := i
			for {
				if maxOps > 0 && i-first >= maxOps {
					break
				}
				t0 := time.Now()
				if maxOps <= 0 && !t0.Before(deadline) {
					break
				}
				err := op(c, i)
				t1 := time.Now()
				i++
				buf = append(buf, sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0))})
				if err != nil {
					failed[c]++
					if errs[c] == nil {
						errs[c] = err
					}
				}
			}
			per[c], next[c] = buf, i
		}(c)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start), next: next}
	for c := range per {
		w.samples = append(w.samples, per[c]...)
		w.failed += failed[c]
		if w.firstErr == nil {
			w.firstErr = errs[c]
		}
	}
	if clients > 1 {
		sort.Slice(w.samples, func(a, b int) bool { return w.samples[a].end < w.samples[b].end })
	}
	return w
}

// summary is the steady view of one window: the best segment's value of
// each metric, with the median across segments, the pooled value and the
// inter-segment quartiles beside it.
type summary struct {
	Ops      int `json:"ops"`
	Segments int `json:"segments"`
	// Best segment: highest throughput, lowest quantiles.
	OpsPerS float64 `json:"best_ops_per_s"`
	P50us   float64 `json:"best_p50_us"`
	P95us   float64 `json:"best_p95_us"`
	// Median across segments.
	MedianOpsPerS float64 `json:"median_ops_per_s"`
	MedianP50us   float64 `json:"median_p50_us"`
	MedianP95us   float64 `json:"median_p95_us"`
	// The whole window as one sample.
	PooledOpsPerS float64 `json:"pooled_ops_per_s"`
	PooledP50us   float64 `json:"pooled_p50_us"`
	PooledP95us   float64 `json:"pooled_p95_us"`
	// First and third quartile across segments.
	OpsPerSQuartiles [2]float64 `json:"ops_per_s_quartiles"`
	P50usQuartiles   [2]float64 `json:"p50_us_quartiles"`
	P95usQuartiles   [2]float64 `json:"p95_us_quartiles"`
}

func summarize(w window) summary {
	n := len(w.samples)
	s := summary{Ops: n}
	if n == 0 {
		return s
	}
	lats := make([]float64, n)
	for i, sm := range w.samples {
		lats[i] = float64(sm.lat) / 1e3
	}
	nseg := n / minSegmentOps
	if nseg > maxSegments {
		nseg = maxSegments
	}
	if nseg < 1 {
		nseg = 1
	}
	s.Segments = nseg
	var thr, p50, p95 []float64
	prevEnd := int64(0)
	for g := 0; g < nseg; g++ {
		lo, hi := g*n/nseg, (g+1)*n/nseg
		seg := append([]float64(nil), lats[lo:hi]...)
		sort.Float64s(seg)
		end := w.samples[hi-1].end
		thr = append(thr, float64(hi-lo)/(float64(end-prevEnd)/1e9))
		prevEnd = end
		p50 = append(p50, quantileSorted(seg, 0.50))
		p95 = append(p95, quantileSorted(seg, 0.95))
	}
	sort.Float64s(thr)
	sort.Float64s(p50)
	sort.Float64s(p95)
	s.OpsPerS, s.P50us, s.P95us = thr[nseg-1], p50[0], p95[0]
	s.MedianOpsPerS, s.MedianP50us, s.MedianP95us = quantileSorted(thr, 0.5), quantileSorted(p50, 0.5), quantileSorted(p95, 0.5)
	s.OpsPerSQuartiles = [2]float64{quantileSorted(thr, 0.25), quantileSorted(thr, 0.75)}
	s.P50usQuartiles = [2]float64{quantileSorted(p50, 0.25), quantileSorted(p50, 0.75)}
	s.P95usQuartiles = [2]float64{quantileSorted(p95, 0.25), quantileSorted(p95, 0.75)}
	sort.Float64s(lats)
	s.PooledOpsPerS = float64(n) / (float64(w.samples[n-1].end) / 1e9)
	s.PooledP50us = quantileSorted(lats, 0.50)
	s.PooledP95us = quantileSorted(lats, 0.95)
	return s
}

// quantileSorted interpolates the q-quantile of an ascending slice.
func quantileSorted(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// latencyQuantiles are the pooled p50 and p95 of a window, in microseconds.
func latencyQuantiles(w window) (p50, p95 float64) {
	lats := make([]float64, len(w.samples))
	for i, sm := range w.samples {
		lats[i] = float64(sm.lat) / 1e3
	}
	sort.Float64s(lats)
	return quantileSorted(lats, 0.5), quantileSorted(lats, 0.95)
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibMs times a fixed native loop (integer mixing plus a dependent
// float chain) and returns the median of five repetitions in ms. It runs
// before and after every measured window: the workload cannot change it,
// so a drift above 10 % means the host changed under the run. It is
// single-threaded on purpose. A loop on every processor at once reads
// twice too slow whenever the OS has both threads on one processor, which
// it does for half a second after any single-threaded phase.
func calibMs() float64 {
	var reps []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x, f := uint64(88172645463325252), 1.0
		for i := 0; i < 3_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			f = f*1.0000001 + float64(x&7)
		}
		calibSink += x + uint64(f)
		reps = append(reps, float64(time.Since(t0))/1e6)
	}
	return median(reps)
}

// peakRSSMiB reads VmHWM, the peak resident set of this process.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// fingerprint identifies the host and the run; it travels with every
// report so that two result files can be told apart before they are
// compared.
type fingerprint struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	Seconds     float64 `json:"seconds"`
	CalibBefore float64 `json:"host_calib_ms_before"`
	CalibAfter  float64 `json:"host_calib_ms_after"`
	Noisy       bool    `json:"noisy"`
}

func newFingerprint(seed int64, seconds float64) fingerprint {
	return fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, Scale: sz.scale, Seconds: seconds,
	}
}

// closeCalib records the second calibration and sets the noisy flag.
func (fp *fingerprint) closeCalib(after float64) {
	fp.CalibAfter = after
	if fp.CalibBefore > 0 {
		fp.Noisy = math.Abs(after-fp.CalibBefore)/fp.CalibBefore > 0.10
	}
}

// mix hashes (seed, client, i) into the op's random draw (SplitMix64), so
// an op's inputs depend only on the seed and its position in the stream:
// every rung of a ladder and both commits of a comparison see the same
// ops.
func mix(seed int64, client int, i int64) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(client+1)*0xBF58476D1CE4E5B9 + uint64(i)
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
