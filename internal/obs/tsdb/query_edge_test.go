package tsdb

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// Windowed-query edge cases: empty windows, single-sample rates,
// ring-wrap clipping (and the completeness bit that reports it), and
// quantiles over observation-free histograms.

func TestQueryEmptyWindow(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Interval: time.Second, Capacity: 8})

	// An event series whose lone sample is older than the DB's newest
	// written time: a short window holds no samples at all.
	ev := db.EventSeries("pulse", 8)
	ev.Append(1*time.Second, 42)
	g := reg.Gauge("depth")
	g.Set(1)
	clk.t = 10 * time.Second
	db.Scrape() // advances db.last to 10s

	if _, ok := db.Avg("pulse", 2*time.Second); ok {
		t.Fatal("Avg over an empty window must be ok=false, not 0")
	}
	if _, ok := db.Max("pulse", 2*time.Second); ok {
		t.Fatal("Max over an empty window must be ok=false")
	}
	if _, ok := db.Rate("pulse", 2*time.Second); ok {
		t.Fatal("Rate over an empty window must be ok=false")
	}
	// Latest ignores windows and still answers.
	if s, ok := db.Latest("pulse"); !ok || s.V != 42 {
		t.Fatalf("Latest = %+v ok=%v, want 42", s, ok)
	}
}

func TestQuerySingleSampleRate(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Interval: time.Second, Capacity: 8})
	c := reg.Counter("events_total")
	c.Add(7)
	clk.t = time.Second
	db.Scrape()

	// One retained sample: no interval to divide over.
	if _, ok := db.Rate("events_total", time.Hour); ok {
		t.Fatal("Rate over a single sample must be ok=false")
	}
	// Two samples at the same timestamp: dt=0 is equally unanswerable.
	ev := db.EventSeries("burst", 4)
	ev.Append(2*time.Second, 1)
	ev.Append(2*time.Second, 5)
	if _, ok := db.Rate("burst", time.Hour); ok {
		t.Fatal("Rate with zero elapsed time must be ok=false")
	}
}

func TestQueryWindowClippedByRingWrap(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Interval: time.Second, Capacity: 4})
	g := reg.Gauge("depth")
	// 8 scrapes through a 4-slot ring: t=1..8s written, t=5..8s retained.
	for i := 1; i <= 8; i++ {
		clk.t = time.Duration(i) * time.Second
		g.Set(float64(i))
		db.Scrape()
	}

	s := db.series[seriesKey("depth", nil)]
	if s.n != 4 || s.drops != 4 {
		t.Fatalf("ring state n=%d drops=%d, want 4/4", s.n, s.drops)
	}

	// A 10s window reaches past everything the ring retains: the query
	// silently truncates to the retained samples...
	if a, ok := db.Avg("depth", 10*time.Second); !ok || !almost(a, 6.5) {
		t.Fatalf("Avg(clipped) = %v ok=%v, want 6.5 over retained 5..8", a, ok)
	}
	// ...and CountSince's completeness bit is how callers detect it.
	if n, complete := s.CountSince(0); n != 4 || complete {
		t.Fatalf("CountSince(0) = %d complete=%v, want 4/false (window clipped)", n, complete)
	}
	// A window fully inside the retained range is complete even though
	// the ring has wrapped.
	if n, complete := s.CountSince(6 * time.Second); n != 3 || !complete {
		t.Fatalf("CountSince(6s) = %d complete=%v, want 3/true", n, complete)
	}
	// Before any eviction the bit is always true.
	clk2 := &fakeClock{}
	reg2 := obs.NewRegistry()
	db2 := New(reg2, clk2, Config{Capacity: 4})
	ev := db2.EventSeries("x", 4)
	ev.Append(time.Second, 1)
	if n, complete := ev.CountSince(0); n != 1 || !complete {
		t.Fatalf("CountSince pre-wrap = %d complete=%v, want 1/true", n, complete)
	}
}

func TestQuantileAllZeroBuckets(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Interval: time.Second, Capacity: 8})
	reg.Histogram("latency", obs.DefLatencyBuckets)
	clk.t = time.Second
	db.Scrape() // snapshot exists, every bucket zero

	if _, ok := db.Quantile("latency", 0.99, time.Hour); ok {
		t.Fatal("Quantile over an observation-free histogram must be ok=false")
	}

	// After real observations the same query answers; a later window
	// whose delta is all-zero (no new observations inside it) again
	// declines rather than fabricating a 0.
	h := reg.Histogram("latency", obs.DefLatencyBuckets)
	h.Observe(0.05)
	clk.t = 2 * time.Second
	db.Scrape()
	if _, ok := db.Quantile("latency", 0.5, time.Hour); !ok {
		t.Fatal("Quantile with observations should answer")
	}
	clk.t = 20 * time.Second
	db.Scrape()
	if _, ok := db.Quantile("latency", 0.5, 5*time.Second); ok {
		t.Fatal("Quantile over a window with zero new observations must be ok=false")
	}
}
