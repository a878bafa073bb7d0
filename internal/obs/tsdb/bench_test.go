package tsdb

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// benchDB builds a DB over a registry shaped like an instrumented
// platform run: a few dozen counter/gauge series plus latency
// histograms, pre-scraped once so the flattened target list is cached.
func benchDB(tb testing.TB) (*DB, *fakeClock, *obs.Registry) {
	tb.Helper()
	clk := &fakeClock{}
	reg := obs.NewRegistry(clk)
	for i := 0; i < 16; i++ {
		reg.Counter("tasks_total", obs.L("app", string(rune('a'+i)))).Add(float64(i))
		reg.Gauge("depth", obs.L("app", string(rune('a'+i)))).Set(float64(i))
	}
	for i := 0; i < 8; i++ {
		h := reg.Histogram("lat", obs.DefLatencyBuckets, obs.L("app", string(rune('a'+i))))
		for j := 0; j < 64; j++ {
			h.Observe(float64(j) * 0.001)
		}
	}
	db := New(reg, clk, Config{Capacity: 512})
	clk.t = time.Second
	db.Scrape()
	return db, clk, reg
}

// addAlertPack adds eight multi-window threshold rules that never fire,
// then scrapes until their cached series bindings are warm and their
// windows full.
func addAlertPack(db *DB, clk *fakeClock) {
	for i := 0; i < 8; i++ {
		app := string(rune('a' + i))
		db.AddAlert(AlertRule{
			Name: "depth-high", Labels: []obs.Label{obs.L("app", app)},
			Series: "depth", SeriesLabels: []obs.Label{obs.L("app", app)},
			Fn: "avg", Windows: []time.Duration{10 * time.Second, time.Minute},
			Threshold: 1e9, For: 30 * time.Second,
		})
	}
	for i := 0; i < 8; i++ {
		clk.t += time.Second
		db.Scrape()
	}
}

// A scrape with the registry generation unchanged is pure ring writes,
// and rule evaluation reuses the cached series handles and the locked
// window helpers, so neither allocates.
func TestSteadyStateScrapeAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		alerts bool
	}{
		{"scrape", false},
		{"scrape with alert pack", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, clk, _ := benchDB(t)
			if tc.alerts {
				addAlertPack(db, clk)
			}
			scrape := func() {
				clk.t += time.Second
				db.Scrape()
			}
			if got := testing.AllocsPerRun(100, scrape); got != 0 {
				t.Errorf("%v allocs per scrape, want 0", got)
			}
		})
	}
}

// BenchmarkScrape is the steady-state path: the registry generation is
// unchanged, so a scrape is pure ring writes.
func BenchmarkScrape(b *testing.B) {
	db, clk, _ := benchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.t += time.Second
		db.Scrape()
	}
}

// BenchmarkScrapeWithRules adds a recording rule per scrape tick.
func BenchmarkScrapeWithRules(b *testing.B) {
	db, clk, _ := benchDB(b)
	db.AddRule("tasks:rate", nil, func(q Querier, now time.Duration) (float64, bool) {
		return q.Rate("tasks_total", 30*time.Second, obs.L("app", "a"))
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.t += time.Second
		db.Scrape()
	}
}

// BenchmarkAlertEval is the alert engine's steady-state path: a pack
// of multi-window threshold rules re-evaluated on every scrape with no
// state transitions.
func BenchmarkAlertEval(b *testing.B) {
	db, clk, _ := benchDB(b)
	addAlertPack(db, clk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.t += time.Second
		db.Scrape()
	}
}

func BenchmarkEventAppend(b *testing.B) {
	db, _, _ := benchDB(b)
	s := db.EventSeries("events", 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Append(time.Duration(i), 1)
	}
}

func BenchmarkQueryRate(b *testing.B) {
	db, clk, _ := benchDB(b)
	for i := 0; i < 256; i++ {
		clk.t += time.Second
		db.Scrape()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Rate("tasks_total", 30*time.Second, obs.L("app", "a")); !ok {
			b.Fatal("rate miss")
		}
	}
}

func BenchmarkQueryQuantile(b *testing.B) {
	db, clk, reg := benchDB(b)
	h := reg.Histogram("lat", obs.DefLatencyBuckets, obs.L("app", "a"))
	for i := 0; i < 256; i++ {
		clk.t += time.Second
		h.Observe(float64(i%64) * 0.001) // keep the window delta non-empty
		db.Scrape()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Quantile("lat", 0.95, 30*time.Second, obs.L("app", "a")); !ok {
			b.Fatal("quantile miss")
		}
	}
}
