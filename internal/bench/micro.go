package bench

import (
	"fmt"
	"math/rand"
	"time"

	"twine/internal/ipfs"
	"twine/internal/litedb"
)

// The micro-benchmark suite of §V-D: a single table with an
// auto-incrementing primary key and a 1 KiB blob column, filled in 1,000
// row batches; after each batch the suite measures batch insertion time,
// a full sequential read, and random point reads. Figure 5 plots these
// against database size; Table II summarises them split at the EPC limit.

// RecordBytes is the blob payload size (1 KiB, §V-D).
const RecordBytes = 1024

// Point is one measurement at a database size.
type Point struct {
	Records  int
	Insert   time.Duration // inserting the last batch
	SeqRead  time.Duration // reading every record in order
	RandRead time.Duration // RandReads random point lookups
}

// Series is a full sweep for one variant/storage pair.
type Series struct {
	Variant  Variant
	Storage  Storage
	Points   []Point
	OpenTime time.Duration
}

// MicroConfig parameterises the sweep.
type MicroConfig struct {
	// MaxRecords and Step define the database-size axis (paper: 1k steps
	// to 175k records; scale down for quick runs).
	MaxRecords int
	Step       int
	// RandReads is the number of random lookups per point (bounded so
	// large sweeps stay tractable).
	RandReads int
	// Options passes through to Open.
	Options Options
}

// RunMicro sweeps one variant/storage pair.
func RunMicro(v Variant, s Storage, cfg MicroConfig) (Series, error) {
	if cfg.Step <= 0 {
		cfg.Step = 1000
	}
	if cfg.MaxRecords < cfg.Step {
		cfg.MaxRecords = cfg.Step
	}
	if cfg.RandReads <= 0 {
		cfg.RandReads = 200
	}
	db, err := Open(v, s, cfg.Options)
	if err != nil {
		return Series{}, err
	}
	defer db.Close()
	series := Series{Variant: v, Storage: s, OpenTime: db.OpenTime}

	if _, err := db.Exec(`CREATE TABLE kv (id INTEGER PRIMARY KEY, data BLOB)`); err != nil {
		return series, err
	}
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, RecordBytes)

	for size := cfg.Step; size <= cfg.MaxRecords; size += cfg.Step {
		// Insert one batch.
		start := time.Now()
		if _, err := db.Exec(`BEGIN`); err != nil {
			return series, err
		}
		for i := 0; i < cfg.Step; i++ {
			rng.Read(payload)
			if _, err := db.Exec(`INSERT INTO kv (data) VALUES (?)`,
				litedb.BlobVal(payload)); err != nil {
				return series, err
			}
		}
		if _, err := db.Exec(`COMMIT`); err != nil {
			return series, err
		}
		insert := time.Since(start)

		// Sequential read of every record.
		start = time.Now()
		rows, err := db.Query(`SELECT SUM(length(data)) FROM kv`)
		if err != nil {
			return series, err
		}
		if got := rows.All()[0][0].Int(); got != int64(size)*RecordBytes {
			return series, fmt.Errorf("bench: sequential read saw %d bytes, want %d", got, int64(size)*RecordBytes)
		}
		seq := time.Since(start)

		// Random point reads.
		start = time.Now()
		for i := 0; i < cfg.RandReads; i++ {
			id := rng.Int63n(int64(size)) + 1
			rows, err := db.Query(`SELECT length(data) FROM kv WHERE id = ?`, litedb.IntVal(id))
			if err != nil {
				return series, err
			}
			if rows.Len() != 1 {
				return series, fmt.Errorf("bench: random read of id %d found %d rows", id, rows.Len())
			}
		}
		rand_ := time.Since(start)

		series.Points = append(series.Points, Point{
			Records: size, Insert: insert, SeqRead: seq, RandRead: rand_,
		})
	}
	return series, nil
}

// Table2Row is one row of the paper's Table II: run time normalised to
// native, split at the EPC limit.
type Table2Row struct {
	Op      string
	Storage Storage
	// BelowEPC / AboveEPC are medians of points below/above the limit,
	// normalised against the native variant's same-region median.
	SGXLKLBelow, SGXLKLAbove float64
	TwineBelow, TwineAbove   float64
	WAMRAll                  float64
}

// Table2 derives the summary from four sweeps per storage mode.
// epcRecords is the database size at which the enclave working set
// crosses the usable EPC.
func Table2(series map[Variant]Series, storage Storage, epcRecords int) []Table2Row {
	ops := []struct {
		name string
		get  func(Point) time.Duration
	}{
		{"insert", func(p Point) time.Duration { return p.Insert }},
		{"seq-read", func(p Point) time.Duration { return p.SeqRead }},
		{"rand-read", func(p Point) time.Duration { return p.RandRead }},
	}
	var rows []Table2Row
	for _, op := range ops {
		med := func(v Variant, above bool) float64 {
			s, ok := series[v]
			if !ok {
				return 0
			}
			var xs []float64
			for _, p := range s.Points {
				if (p.Records > epcRecords) == above {
					xs = append(xs, float64(op.get(p)))
				}
			}
			return median(xs)
		}
		nBelow := med(Native, false)
		nAbove := med(Native, true)
		if nAbove == 0 {
			nAbove = nBelow
		}
		norm := func(x, base float64) float64 {
			if base == 0 {
				return 0
			}
			return x / base
		}
		rows = append(rows, Table2Row{
			Op:          op.name,
			Storage:     storage,
			SGXLKLBelow: norm(med(SGXLKL, false), nBelow),
			SGXLKLAbove: norm(med(SGXLKL, true), nAbove),
			TwineBelow:  norm(med(Twine, false), nBelow),
			TwineAbove:  norm(med(Twine, true), nAbove),
			WAMRAll:     norm(med(WAMR, false), nBelow),
		})
	}
	return rows
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64{}, xs...)
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	if n := len(sorted); n%2 == 1 {
		return sorted[n/2]
	}
	n := len(sorted)
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Breakdown is Figure 7's random-read time decomposition. The paper's
// OCALL series is Boundary: all host-call time, whether it paid two
// transitions or rode the switchless ring; Rides and OCalls count the
// crossings of each kind (sgx.Stats over the same window).
type Breakdown struct {
	Total     time.Duration
	ReadPath  time.Duration // total protected-FS read-path time
	Memset    time.Duration // ipfs node clearing
	Boundary  time.Duration // outside the enclave (incl. the edge copy)
	Crypto    time.Duration // AES-GCM node processing
	ReadOther time.Duration // remaining protected-FS read-path time
	SQLite    time.Duration // remaining engine time

	Rides, OCalls int64
}

// RunBreakdown measures the Figure 7 workload: random reads over a
// populated Twine/file database, with the protected FS in the given mode.
func RunBreakdown(records, reads int, optimised bool, opt Options) (Breakdown, error) {
	var tm ipfs.Timings
	opt.Timings = &tm
	if optimised {
		opt.IPFSMode = ipfs.ModeOptimized
	} else {
		opt.IPFSMode = ipfs.ModeStandard
	}
	db, err := Open(Twine, File, opt)
	if err != nil {
		return Breakdown{}, err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE kv (id INTEGER PRIMARY KEY, data BLOB)`); err != nil {
		return Breakdown{}, err
	}
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, RecordBytes)
	if _, err := db.Exec(`BEGIN`); err != nil {
		return Breakdown{}, err
	}
	for i := 0; i < records; i++ {
		rng.Read(payload)
		if _, err := db.Exec(`INSERT INTO kv (data) VALUES (?)`, litedb.BlobVal(payload)); err != nil {
			return Breakdown{}, err
		}
	}
	if _, err := db.Exec(`COMMIT`); err != nil {
		return Breakdown{}, err
	}

	// The measured window is the reads alone: drop what populating charged.
	tm.ReadPath.Store(0)
	tm.Memset.Store(0)
	tm.Crypto.Store(0)
	tm.Boundary.Store(0)
	before := db.Enclave().Stats()
	start := time.Now()
	for i := 0; i < reads; i++ {
		id := rng.Int63n(int64(records)) + 1
		if _, err := db.Query(`SELECT length(data) FROM kv WHERE id = ?`, litedb.IntVal(id)); err != nil {
			return Breakdown{}, err
		}
	}
	total := time.Since(start)
	after := db.Enclave().Stats()

	b := Breakdown{
		Total:    total,
		ReadPath: time.Duration(tm.ReadPath.Load()),
		Memset:   time.Duration(tm.Memset.Load()),
		Boundary: time.Duration(tm.Boundary.Load()),
		Crypto:   time.Duration(tm.Crypto.Load()),
		Rides:    after.SwitchlessCalls - before.SwitchlessCalls,
		OCalls:   after.OCalls - before.OCalls,
	}
	if inner := b.Memset + b.Boundary + b.Crypto; b.ReadPath > inner {
		b.ReadOther = b.ReadPath - inner
	}
	if total > b.ReadPath {
		b.SQLite = total - b.ReadPath
	}
	return b, nil
}
