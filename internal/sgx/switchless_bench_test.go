package sgx

import (
	"testing"
	"time"
)

func benchEnclave(b testing.TB) *Enclave {
	cfg := TestConfig()
	cfg.TransitionCost = 1700 * time.Nanosecond
	e, err := NewPlatform("bench").NewEnclave(cfg, []byte("code"))
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkOCall(b *testing.B) {
	e := benchEnclave(b)
	_ = e.ECall("main", func() error {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.OCall("io", func() error { return nil })
		}
		return nil
	})
}

func BenchmarkSwitchlessOCall(b *testing.B) {
	e := benchEnclave(b)
	e.EnableSwitchless(DefaultSwitchlessConfig(e.Config()))
	_ = e.ECall("main", func() error {
		_ = e.SwitchlessOCall("warm", 0, func() error { return nil })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.SwitchlessOCall("io", 0, func() error { return nil })
		}
		return nil
	})
}

func BenchmarkOCallCopy4K(b *testing.B) {
	e := benchEnclave(b)
	src, dst := make([]byte, 4096), make([]byte, 4096)
	_ = e.ECall("main", func() error {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.OCall("io", func() error { copy(dst, src); return nil })
		}
		return nil
	})
}

func BenchmarkSwitchlessOCallCopy4K(b *testing.B) {
	e := benchEnclave(b)
	e.EnableSwitchless(DefaultSwitchlessConfig(e.Config()))
	src, dst := make([]byte, 4096), make([]byte, 4096)
	_ = e.ECall("main", func() error {
		_ = e.SwitchlessOCall("warm", 0, func() error { return nil })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.SwitchlessOCall("io", 4096, func() error { copy(dst, src); return nil })
		}
		return nil
	})
}

// timeRides performs n switchless rides of a nop inside the current ECALL,
// busy-waiting gap before each (the enclave thread computing between host
// calls), and returns each ride's wall-clock time. The gap is not timed.
func timeRides(e *Enclave, n int, gap time.Duration) []time.Duration {
	rides := make([]time.Duration, n)
	for i := range rides {
		burn(gap)
		t0 := time.Now()
		_ = e.SwitchlessOCall("io", 0, func() error { return nil })
		rides[i] = time.Since(t0)
	}
	return rides
}

// BenchmarkSwitchlessGap is the curve behind the rule "a ride on a ring in
// use costs the same whatever the enclave thread did since the last one":
// ride-ns is the mean ride alone, ns/op is gap + ride.
func BenchmarkSwitchlessGap(b *testing.B) {
	for _, g := range []struct {
		name string
		gap  time.Duration
	}{{"0", 0}, {"5us", 5 * time.Microsecond}, {"20us", 20 * time.Microsecond}, {"100us", 100 * time.Microsecond}} {
		b.Run(g.name, func(b *testing.B) {
			e := benchEnclave(b)
			defer e.Destroy()
			e.EnableSwitchless(DefaultSwitchlessConfig(e.Config()))
			_ = e.ECall("main", func() error {
				timeRides(e, 200, g.gap) // cold fallback, then settle the worker on this gap
				b.ResetTimer()
				var ride time.Duration
				for _, d := range timeRides(e, b.N, g.gap) {
					ride += d
				}
				b.ReportMetric(float64(ride.Nanoseconds())/float64(b.N), "ride-ns")
				return nil
			})
		})
	}
}
