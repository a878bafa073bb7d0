package tsdb

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
)

// windowFuzzValues are the sample values fuzz ops pick from: ordinary
// values and the float64 edge cases an exact sum must survive.
var windowFuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 2.5, -7, 1e16, 1 + 0x1p-52,
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, 0x1p-1022 - 0x1p-1074, 1e-300,
	math.MaxFloat64, -math.MaxFloat64, 0x1p1023, 1e300,
}

var windowFuzzFns = []string{"avg", "rate", "max", "flips"}

// checkAlertWindows replays one op string against a small-ring DB: an
// event series and a scraped gauge, alert rules added at any point
// (late binding, windows longer than the ring, up to three windows per
// rule, several rules per series), appends and scrapes. After every
// scrape each bound window must equal its rescan bit for bit (max,
// flips, rate) or the math/big exact sum rounded once and divided by
// the count (avg), and so must the ad-hoc avg query.
func checkAlertWindows(t *testing.T, capacity uint8, ops []byte) {
	t.Helper()
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	ringCap := 1 + int(capacity%16)
	db := New(reg, clk, Config{Interval: time.Second, Capacity: ringCap})
	g := reg.Gauge("g")
	ev := db.EventSeries("ev", ringCap)
	var alerts []*Alert

	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	value := func() float64 {
		b := next()
		if b < 0xf0 {
			return windowFuzzValues[int(b)%len(windowFuzzValues)]
		}
		var u uint64
		for i := 0; i < 8; i++ {
			u = u<<8 | uint64(next())
		}
		return math.Float64frombits(u)
	}
	for steps := 0; len(ops) > 0 && steps < 2048; steps++ {
		op := next()
		arg := int(op / 4)
		switch op % 4 {
		case 0:
			clk.t += time.Duration(arg%3) * 250 * time.Millisecond
			ev.Append(clk.t, value())
		case 1:
			g.Set(value())
		case 2:
			clk.t += time.Duration(1+arg%3) * time.Second
			db.Scrape()
			for _, a := range alerts {
				for _, w := range a.wins {
					checkWindow(t, w, clk.t)
				}
			}
		case 3:
			if len(alerts) == 12 {
				continue
			}
			series := "ev"
			if arg&1 != 0 {
				series = "g"
			}
			windows := make([]time.Duration, 1+(arg>>1&3)%3)
			for i := range windows {
				windows[i] = time.Duration(next()%40) * time.Second
			}
			alerts = append(alerts, db.AddAlert(AlertRule{
				Name: "w", Series: series, Fn: windowFuzzFns[arg>>3&3],
				Windows: windows, Threshold: math.NaN(),
			}))
		}
	}
	for _, a := range alerts {
		for _, w := range a.wins {
			need := len(w.s.ring)
			if w.s.scraped {
				need = int(w.span/time.Second) + 1
			}
			if len(w.s.ring) < need || !w.s.scraped && len(w.s.ring) != ringCap {
				t.Fatalf("series %s ring %d for a %v window (capacity %d)", w.s.name, len(w.s.ring), w.span, ringCap)
			}
		}
	}
}

// checkWindow compares one bound window with its reference at now.
func checkWindow(t *testing.T, w *window, now time.Duration) {
	t.Helper()
	s, cutoff := w.s, now-w.span
	got, ok := w.eval(now)
	var want float64
	var wantOK bool
	switch w.fn {
	case alertFnAvg:
		want, wantOK = bigMean(s, cutoff)
		if q, qok := s.avgLocked(cutoff); qok != wantOK || qok && math.Float64bits(q) != math.Float64bits(want) {
			t.Fatalf("avgLocked(%v) = %v,%v; exact %v,%v", cutoff, q, qok, want, wantOK)
		}
	case alertFnRate:
		want, wantOK = s.rateLocked(cutoff)
	case alertFnMax:
		want, wantOK = s.maxLocked(cutoff)
	case alertFnFlips:
		want, wantOK = s.flipsLocked(cutoff)
	}
	if ok != wantOK || ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s over %v of %s at %v = %v,%v; reference %v,%v (samples %v)",
			windowFuzzFns[w.fn-alertFnAvg], w.span, s.name, now, got, ok, want, wantOK, retained(s))
	}
}

// bigMean is avg's reference: the window's exact sum in math/big,
// rounded once to float64, divided by the sample count.
func bigMean(s *Series, cutoff time.Duration) (float64, bool) {
	lo := s.searchLocked(cutoff)
	if lo >= s.n {
		return 0, false
	}
	sum := new(big.Float).SetPrec(2200)
	var nan, pos, neg bool
	for i := lo; i < s.n; i++ {
		switch v := s.at(i).V; {
		case math.IsNaN(v):
			nan = true
		case math.IsInf(v, 1):
			pos = true
		case math.IsInf(v, -1):
			neg = true
		default:
			sum.Add(sum, new(big.Float).SetFloat64(v))
		}
	}
	var f float64
	switch {
	case nan || pos && neg:
		f = math.NaN()
	case pos:
		f = math.Inf(1)
	case neg:
		f = math.Inf(-1)
	default:
		f, _ = sum.Float64()
	}
	return f / float64(s.n-lo), true
}

func retained(s *Series) []Sample {
	out := make([]Sample, s.n)
	for i := range out {
		out[i] = s.at(i)
	}
	return out
}

// FuzzAlertWindows holds the alert engine's sliding windows to their
// references over random append/scrape/bind sequences. The seed corpus
// (testdata/fuzz/FuzzAlertWindows) covers late binding after ring
// wrap, every float64 edge value, a one-sample ring with raw-bit
// values, signed zeros as equal maxima, a NaN inside a max window, a
// flip whose earlier delta left the window, and a rounding tie.
func FuzzAlertWindows(f *testing.F) {
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		checkAlertWindows(t, capacity, ops)
	})
}

// TestAlertWindowsRandom runs the fuzz check over a fixed set of
// random op strings, so every test run covers far more than the seed
// corpus.
func TestAlertWindowsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 400; seed++ {
		ops := make([]byte, 64+rng.Intn(512))
		rng.Read(ops)
		checkAlertWindows(t, uint8(rng.Intn(256)), ops)
	}
}

// TestExactSumRounding pins avg's accumulator on sums whose left-to-
// right float64 total differs from the correctly rounded one.
func TestExactSumRounding(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{1e16, 1, 1}, 1e16 + 2},
		{[]float64{1, 1e100, 1, -1e100}, 2},
		{[]float64{0.1, 0.2, 0.3}, 0.6},
		{[]float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}, math.MaxFloat64},
		{[]float64{math.MaxFloat64, 0x1p970}, math.Inf(1)},
		{[]float64{math.MaxFloat64, 0x1p969}, math.MaxFloat64},
		{[]float64{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}, 0},
		{[]float64{math.Copysign(0, -1)}, 0},
		{[]float64{0x1p53, 1}, 0x1p53},
		{[]float64{0x1p53, 1, 0x1p-1074}, 0x1p53 + 2},
		{[]float64{0x1p53 + 2, 1}, 0x1p53 + 4},
		{[]float64{-1, -0x1p-60}, -1},
		{[]float64{math.Inf(1), 1}, math.Inf(1)},
	} {
		var a exactSum
		for _, x := range tc.in {
			a.add(x, 1)
		}
		if got := a.float(); math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("exact sum of %v = %v, want %v", tc.in, got, tc.want)
		}
	}
}
