package bench

import (
	"strings"
	"testing"
	"time"

	"twine/internal/litedb"
	"twine/internal/sgx"
)

// testOpts keeps enclave variants small and fast for unit tests.
func testOpts() Options {
	cfg := sgx.TestConfig()
	cfg.HeapSize = 96 << 20
	cfg.EPCSize = 16 << 20
	cfg.EPCUsable = 12 << 20
	cfg.ReservedSize = 4 << 20
	return Options{CachePages: 64, SGX: cfg, ImageBlocks: 2048}
}

// TestAllVariantsAnswerIdentically is the matrix correctness gate: every
// variant/storage pair must produce the same query results.
func TestAllVariantsAnswerIdentically(t *testing.T) {
	workload := func(db *DB) (string, error) {
		if _, err := db.Exec(`CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT, c INTEGER)`); err != nil {
			return "", err
		}
		if _, err := db.Exec(`CREATE INDEX ic ON t(c)`); err != nil {
			return "", err
		}
		if _, err := db.Exec(`BEGIN`); err != nil {
			return "", err
		}
		for i := 1; i <= 200; i++ {
			if _, err := db.Exec(`INSERT INTO t (b, c) VALUES (?, ?)`,
				litedb.TextVal(strings.Repeat("x", i%37)), litedb.IntVal(int64(i%10))); err != nil {
				return "", err
			}
		}
		if _, err := db.Exec(`COMMIT`); err != nil {
			return "", err
		}
		if _, err := db.Exec(`UPDATE t SET c = c + 100 WHERE c = 3`); err != nil {
			return "", err
		}
		if _, err := db.Exec(`DELETE FROM t WHERE c = 7`); err != nil {
			return "", err
		}
		rows, err := db.Query(`
			SELECT c, COUNT(*), SUM(length(b)) FROM t GROUP BY c ORDER BY c`)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for _, r := range rows.All() {
			for _, v := range r {
				sb.WriteString(v.String())
				sb.WriteByte('|')
			}
			sb.WriteByte('\n')
		}
		return sb.String(), nil
	}

	var golden string
	for _, v := range []Variant{Native, WAMR, Twine, SGXLKL} {
		for _, s := range []Storage{Mem, File} {
			t.Run(v.String()+"/"+s.String(), func(t *testing.T) {
				db, err := Open(v, s, testOpts())
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer db.Close()
				got, err := workload(db)
				if err != nil {
					t.Fatalf("workload: %v", err)
				}
				if golden == "" {
					golden = got
					return
				}
				if got != golden {
					t.Errorf("results diverge from native:\ngot:\n%s\nwant:\n%s", got, golden)
				}
			})
		}
	}
}

func TestMicroSweepSmall(t *testing.T) {
	cfg := MicroConfig{MaxRecords: 600, Step: 300, RandReads: 20, Options: testOpts()}
	for _, v := range []Variant{Native, Twine} {
		s, err := RunMicro(v, File, cfg)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(s.Points) != 2 {
			t.Fatalf("%v: %d points, want 2", v, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Insert <= 0 || p.SeqRead <= 0 || p.RandRead <= 0 {
				t.Errorf("%v: non-positive timing %+v", v, p)
			}
		}
	}
}

func TestSpeedtestOnNative(t *testing.T) {
	res, err := RunSpeedtest(Native, Mem, 40, testOpts())
	if err != nil {
		t.Fatalf("RunSpeedtest: %v", err)
	}
	plotted := 0
	for _, r := range res {
		if !r.Setup {
			plotted++
		}
	}
	if plotted != 29 {
		t.Fatalf("%d plotted tests, want 29 (paper figure 4)", plotted)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Errorf("test %d: %v", r.TestID, r.Err)
		}
		if r.Elapsed <= 0 {
			t.Errorf("test %d: non-positive elapsed", r.TestID)
		}
	}
}

func TestSpeedtestOnTwineFile(t *testing.T) {
	if testing.Short() {
		t.Skip("heavier integration")
	}
	res, err := RunSpeedtest(Twine, File, 15, testOpts())
	if err != nil {
		t.Fatalf("RunSpeedtest: %v", err)
	}
	if len(res) != 30 {
		t.Fatalf("%d tests ran, want 30 (29 plotted + index setup)", len(res))
	}
}

func TestTable2Shape(t *testing.T) {
	series := map[Variant]Series{}
	for v, mult := range map[Variant]float64{Native: 1, WAMR: 8, Twine: 12, SGXLKL: 3} {
		var s Series
		for i := 1; i <= 4; i++ {
			d := time.Duration(mult * float64(i*1000))
			s.Points = append(s.Points, Point{Records: i * 100, Insert: d, SeqRead: d, RandRead: d})
		}
		series[v] = s
	}
	rows := Table2(series, Mem, 200)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.WAMRAll < 7.9 || r.WAMRAll > 8.1 {
			t.Errorf("%s: WAMR norm = %v, want ~8", r.Op, r.WAMRAll)
		}
		if r.TwineBelow < 11.9 || r.TwineBelow > 12.1 {
			t.Errorf("%s: Twine below = %v, want ~12", r.Op, r.TwineBelow)
		}
	}
}

func TestCosts(t *testing.T) {
	reports, err := Costs(testOpts())
	if err != nil {
		t.Fatalf("Costs: %v", err)
	}
	if len(reports) != 4 {
		t.Fatalf("%d reports", len(reports))
	}
	byV := map[Variant]CostReport{}
	for _, r := range reports {
		byV[r.Variant] = r
		if r.Launch <= 0 {
			t.Errorf("%v: non-positive launch", r.Variant)
		}
	}
	if byV[Native].EnclaveBytes != 0 {
		t.Error("native variant reports enclave memory")
	}
	if byV[Twine].EnclaveBytes == 0 || byV[SGXLKL].EnclaveBytes == 0 {
		t.Error("enclave variants report no enclave memory")
	}
	// SGX-LKL's image makes its enclave bigger than Twine's (Table IIIb).
	if byV[SGXLKL].EnclaveBytes <= byV[Twine].EnclaveBytes {
		t.Errorf("SGX-LKL enclave (%d) not larger than Twine's (%d)",
			byV[SGXLKL].EnclaveBytes, byV[Twine].EnclaveBytes)
	}
	if byV[SGXLKL].CompileOrLoad <= 0 {
		t.Error("SGX-LKL image generation unmeasured")
	}
}

func TestBreakdownModes(t *testing.T) {
	std, err := RunBreakdown(300, 150, false, testOpts())
	if err != nil {
		t.Fatalf("standard: %v", err)
	}
	optm, err := RunBreakdown(300, 150, true, testOpts())
	if err != nil {
		t.Fatalf("optimized: %v", err)
	}
	if std.Memset == 0 {
		t.Error("standard mode shows no memset time (Figure 7's dominant cost)")
	}
	if optm.Memset != 0 {
		t.Errorf("optimized mode still spends %v in memset", optm.Memset)
	}
	if std.Boundary == 0 || optm.Boundary == 0 {
		t.Error("no boundary (OCALL + switchless) time recorded")
	}
}

func TestEPCRecordEstimate(t *testing.T) {
	cfg := sgx.DefaultConfig()
	if got := EPCRecordEstimate(cfg); got != int(cfg.EPCUsable)/RecordBytes {
		t.Errorf("estimate = %d", got)
	}
}
