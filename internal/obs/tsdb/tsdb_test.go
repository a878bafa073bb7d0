package tsdb

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/obs"
)

type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestScrapeAndScalarQueries(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Interval: time.Second, Capacity: 8})

	c := reg.Counter("tasks_total", obs.L("app", "a"))
	g := reg.Gauge("queue_depth")
	for i := 1; i <= 5; i++ {
		clk.t = time.Duration(i) * time.Second
		c.Add(float64(10 * i)) // 10, 30, 60, 100, 150 cumulative
		g.Set(float64(i))
		db.Scrape()
	}

	if got := db.Scrapes(); got != 5 {
		t.Fatalf("Scrapes() = %d, want 5", got)
	}
	if got := db.LastTime(); got != 5*time.Second {
		t.Fatalf("LastTime() = %v, want 5s", got)
	}
	if s, ok := db.Latest("tasks_total", obs.L("app", "a")); !ok || s.V != 150 || s.T != 5*time.Second {
		t.Fatalf("Latest counter = %+v ok=%v", s, ok)
	}
	// Unknown series and label mismatches answer ok=false.
	if _, ok := db.Latest("tasks_total"); ok {
		t.Fatal("Latest without labels should miss the labelled series")
	}
	if _, ok := db.Latest("nope"); ok {
		t.Fatal("Latest on unknown series should be ok=false")
	}
	// Rate over the last 2s: samples at t=3,4,5 → (150-60)/2s.
	if r, ok := db.Rate("tasks_total", 2*time.Second, obs.L("app", "a")); !ok || !almost(r, 45) {
		t.Fatalf("Rate = %v ok=%v, want 45", r, ok)
	}
	// Rate over everything: (150-10)/4s = 35.
	if r, ok := db.Rate("tasks_total", time.Hour, obs.L("app", "a")); !ok || !almost(r, 35) {
		t.Fatalf("Rate(full) = %v ok=%v, want 35", r, ok)
	}
	// A single-sample window can't produce a rate.
	if _, ok := db.Rate("tasks_total", 0, obs.L("app", "a")); ok {
		t.Fatal("Rate over a single sample should be ok=false")
	}
	if a, ok := db.Avg("queue_depth", 2*time.Second); !ok || !almost(a, 4) {
		t.Fatalf("Avg = %v ok=%v, want 4", a, ok)
	}
	if m, ok := db.Max("queue_depth", time.Hour); !ok || m != 5 {
		t.Fatalf("Max = %v ok=%v, want 5", m, ok)
	}
	got := db.Samples("queue_depth", 2*time.Second, 4*time.Second)
	want := []Sample{{2 * time.Second, 2}, {3 * time.Second, 3}, {4 * time.Second, 4}}
	if len(got) != len(want) {
		t.Fatalf("Samples = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Samples[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRingEviction(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Capacity: 4})
	g := reg.Gauge("v")
	for i := 1; i <= 10; i++ {
		clk.t = time.Duration(i) * time.Second
		g.Set(float64(i))
		db.Scrape()
	}
	// Only the newest 4 samples survive: t=7..10.
	got := db.Samples("v", 0, 0)
	if len(got) != 4 || got[0].T != 7*time.Second || got[3].T != 10*time.Second {
		t.Fatalf("retained = %v, want t=7s..10s", got)
	}
	if a, ok := db.Avg("v", time.Hour); !ok || !almost(a, 8.5) {
		t.Fatalf("Avg over evicted window = %v ok=%v, want 8.5", a, ok)
	}
}

func TestHistogramQuantileWindow(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Capacity: 16})
	h := reg.Histogram("lat", []float64{0.1, 1, 10})

	clk.t = time.Second
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // all in the first bucket
	}
	db.Scrape()

	clk.t = 2 * time.Second
	for i := 0; i < 100; i++ {
		h.Observe(5) // all in the third bucket
	}
	db.Scrape()

	// Over the full history the median straddles the two populations.
	if q, ok := db.Quantile("lat", 0.99, time.Hour); !ok || q <= 1 || q > 10 {
		t.Fatalf("Quantile(full, .99) = %v ok=%v, want in (1,10]", q, ok)
	}
	// A 500ms window reaches only the newest snapshot; its baseline is
	// the t=1s snapshot, so the delta holds just the slow population.
	if q, ok := db.Quantile("lat", 0.5, 500*time.Millisecond); !ok || q <= 1 {
		t.Fatalf("Quantile(window, .5) = %v ok=%v, want > 1", q, ok)
	}
	// An empty window delta answers ok=false.
	clk.t = 3 * time.Second
	db.Scrape()
	if _, ok := db.Quantile("lat", 0.5, 500*time.Millisecond); ok {
		t.Fatal("Quantile over an empty delta should be ok=false")
	}
}

func TestRebuildKeepsHistory(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Capacity: 8})
	a := reg.Counter("a_total")
	clk.t = time.Second
	a.Inc()
	db.Scrape()

	// A new instrument appears mid-run: the rebuild must pick it up
	// without losing a_total's history.
	b := reg.Counter("b_total")
	clk.t = 2 * time.Second
	a.Inc()
	b.Inc()
	db.Scrape()

	if got := db.Samples("a_total", 0, 0); len(got) != 2 || got[0].V != 1 || got[1].V != 2 {
		t.Fatalf("a_total history = %v, want [1 2]", got)
	}
	if got := db.Samples("b_total", 0, 0); len(got) != 1 || got[0].V != 1 {
		t.Fatalf("b_total history = %v, want [1]", got)
	}
}

func TestEventSeries(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Capacity: 8})
	s := db.EventSeries("slo:events", 4, obs.L("app", "x"))
	if again := db.EventSeries("slo:events", 4, obs.L("app", "x")); again != s {
		t.Fatal("EventSeries is not idempotent")
	}
	for i := 1; i <= 3; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i%2)) // 1, 0, 1
	}
	if n, complete := s.CountSince(2 * time.Second); n != 2 || !complete {
		t.Fatalf("CountSince = %d complete=%v, want 2 true", n, complete)
	}
	if sum := s.SumSince(0); !almost(sum, 2) {
		t.Fatalf("SumSince(0) = %v, want 2", sum)
	}
	// Overflow the capacity-4 ring; the window completeness flag must
	// drop once evicted samples could have fallen inside the window.
	for i := 4; i <= 8; i++ {
		s.Append(time.Duration(i)*time.Second, 1)
	}
	if _, complete := s.CountSince(time.Second); complete {
		t.Fatal("CountSince reaching past evicted samples should report incomplete")
	}
	if n, complete := s.CountSince(6 * time.Second); n != 3 || !complete {
		t.Fatalf("CountSince(6s) = %d complete=%v, want 3 true", n, complete)
	}
	if db.LastTime() != 8*time.Second {
		t.Fatalf("LastTime = %v, want 8s", db.LastTime())
	}
}

func TestStartStopDaemon(t *testing.T) {
	env := devent.NewEnv()
	reg := obs.NewRegistry()
	db := New(reg, env, Config{Interval: time.Second, Capacity: 64})
	g := reg.Gauge("tick")

	db.Start(env)
	env.Spawn("workload", func(p *devent.Proc) {
		for i := 1; i <= 10; i++ {
			p.Sleep(time.Second)
			g.Set(float64(i))
		}
		// Let the 10th scrape tick land unambiguously before stopping:
		// a stop firing at the same instant as the timer wins the race
		// and would drop that tick.
		p.Sleep(time.Second / 2)
		db.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatalf("env.Run: %v", err)
	}
	if got := db.Scrapes(); got != 10 {
		t.Fatalf("Scrapes = %d, want 10 (1/s over a 10s workload)", got)
	}
	s, ok := db.Latest("tick")
	if !ok || s.T != 10*time.Second {
		t.Fatalf("Latest = %+v ok=%v, want a sample at 10s", s, ok)
	}
	// Same-instant ordering between the daemon's tick and the
	// workload's Set is fixed by spawn order; either phase is
	// deterministic, so only the one-set-wide envelope is asserted.
	if s.V != 9 && s.V != 10 {
		t.Fatalf("Latest V = %v, want the 9th or 10th set value", s.V)
	}
	db.Stop() // idempotent after the run
}

func TestExpositionConformance(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	db := New(reg, clk, Config{Capacity: 8})
	reg.Counter("tasks_total", obs.L("app", "a")).Add(3)
	reg.Counter("tasks_total", obs.L("app", "b")).Add(4)
	reg.Gauge("depth").Set(7)
	h := reg.Histogram("lat", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	db.EventSeries("burn", 8).Append(time.Second, 1.5)
	clk.t = time.Second
	db.Scrape()

	e := obs.NewExposition()
	e.Add(db.Exposition(obs.L("scope", "test"))...)
	var buf bytes.Buffer
	if err := e.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, buf.Bytes())
	}
	for _, want := range []string{
		`tasks_total{app="a",scope="test"} 3`,
		`depth{scope="test"} 7`,
		`burn{scope="test"} 1.5`,
		`lat_bucket{le="+Inf",scope="test"} 2`,
		`lat_count{scope="test"} 2`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want+"\n")) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.Bytes())
		}
	}

	// List covers every series deterministically.
	infos := db.List()
	if len(infos) != 5 {
		t.Fatalf("List() = %d series, want 5: %+v", len(infos), infos)
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name > infos[i].Name {
			t.Fatalf("List() not sorted: %+v", infos)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var db *DB
	db.Scrape()
	db.Start(nil)
	db.Stop()
	if _, ok := db.Latest("x"); ok {
		t.Fatal("nil DB Latest should be ok=false")
	}
	if db.List() != nil || db.Samples("x", 0, 0) != nil || db.Exposition() != nil {
		t.Fatal("nil DB slices should be nil")
	}
	var s *Series
	s.Append(0, 1)
	if n, _ := s.CountSince(0); n != 0 {
		t.Fatal("nil Series should be empty")
	}
}
