package core

import (
	"math"
	"testing"
	"time"
)

// The diurnal rate swings between trough and peak and bursts multiply
// the local intensity.
func TestTrafficRateShape(t *testing.T) {
	tr, err := NewTraffic(TrafficConfig{
		Users:       1000,
		PerUserRate: 0.001, // peak 1 req/s
		Period:      24 * time.Hour,
		TroughFrac:  0.1,
		Horizon:     24 * time.Hour,
		Bursts:      []Burst{{At: 6 * time.Hour, Duration: time.Hour, Multiplier: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Rate(0); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("trough rate = %v, want 0.1", got)
	}
	if got := tr.Rate(12 * time.Hour); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("peak rate = %v, want 1.0", got)
	}
	// Inside the burst the diurnal value is tripled.
	base := tr.Rate(5*time.Hour + 59*time.Minute)
	in := tr.Rate(6*time.Hour + 30*time.Minute)
	if in < 2*base {
		t.Errorf("burst rate %v not elevated over pre-burst %v", in, base)
	}
	if got := tr.Rate(7*time.Hour + time.Minute); got > in/2 {
		t.Errorf("post-burst rate %v still elevated", got)
	}
}

// The cutoff clips trough demand to exactly zero — the scale-to-zero
// window — without touching the peak.
func TestTrafficCutoff(t *testing.T) {
	tr, err := NewTraffic(TrafficConfig{
		Users:       1,
		PerUserRate: 1, // peak 1 req/s
		Period:      time.Hour,
		TroughFrac:  0.05,
		Cutoff:      0.2,
		Horizon:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Rate(0); got != 0 {
		t.Errorf("trough rate = %v, want 0 under cutoff", got)
	}
	if got := tr.Rate(30 * time.Minute); got != 1.0 {
		t.Errorf("peak rate = %v, want 1.0", got)
	}
	// No arrival may land inside a clipped window.
	for {
		at, ok := tr.Next()
		if !ok {
			break
		}
		if tr.Rate(at) == 0 {
			t.Fatalf("arrival at %v inside the clipped window", at)
		}
	}
}

// Thinning produces arrivals whose count tracks the rate integral and
// which are strictly within the horizon, in increasing order.
func TestTrafficArrivalsTrackIntegral(t *testing.T) {
	tr, err := NewTraffic(TrafficConfig{
		Users:       100,
		PerUserRate: 0.01, // peak 1 req/s
		Period:      time.Hour,
		TroughFrac:  0.2,
		Horizon:     2 * time.Hour,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := tr.ExpectedArrivals()
	var n int
	last := time.Duration(-1)
	for {
		at, ok := tr.Next()
		if !ok {
			break
		}
		if at <= last {
			t.Fatalf("arrival %v not after %v", at, last)
		}
		if at >= 2*time.Hour {
			t.Fatalf("arrival %v beyond horizon", at)
		}
		last = at
		n++
	}
	// ~4300 expected; Poisson σ ≈ 66, allow 5σ.
	if math.Abs(float64(n)-want) > 5*math.Sqrt(want) {
		t.Errorf("arrivals = %d, expected ≈ %.0f", n, want)
	}
}

// The process is deterministic under a seed and differs across seeds.
func TestTrafficDeterminism(t *testing.T) {
	gen := func(seed int64) []time.Duration {
		tr, err := NewTraffic(TrafficConfig{
			Users: 10, PerUserRate: 0.1, Period: time.Hour,
			Horizon: 30 * time.Minute, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []time.Duration
		for {
			at, ok := tr.Next()
			if !ok {
				return out
			}
			out = append(out, at)
		}
	}
	a, b, c := gen(3), gen(3), gen(4)
	if len(a) != len(b) {
		t.Fatalf("same seed lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical arrivals")
		}
	}
}

// A million-user population is just a rate multiplier: generation cost
// scales with arrivals, not users.
func TestTrafficMillionUsers(t *testing.T) {
	tr, err := NewTraffic(TrafficConfig{
		Users:       2_000_000,
		PerUserRate: 1e-6, // peak 2 req/s aggregate
		Period:      time.Hour,
		Horizon:     10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Error("no arrivals from a 2M-user population")
	}
}

func TestTrafficValidate(t *testing.T) {
	bad := []TrafficConfig{
		{}, // no horizon
		{Horizon: time.Hour, TroughFrac: 2},
		{Horizon: time.Hour, Bursts: []Burst{{Multiplier: 0.5, Duration: time.Second}}},
		{Horizon: time.Hour, Bursts: []Burst{{Multiplier: 2}}},
	}
	for i, cfg := range bad {
		if _, err := NewTraffic(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
