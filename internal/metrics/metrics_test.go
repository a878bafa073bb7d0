package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-9) {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	// Sample variance of this classic dataset is 32/7.
	if !almostEq(s.Variance(), 32.0/7.0, 1e-9) {
		t.Fatalf("var = %v", s.Variance())
	}
	if !almostEq(s.Sum(), 40, 1e-9) {
		t.Fatalf("sum = %v", s.Sum())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.CoV() != 0 {
		t.Fatal("empty summary should be all zero")
	}
	s.Add(3)
	if s.Variance() != 0 || s.Stddev() != 0 {
		t.Fatal("single-sample variance should be 0")
	}
	if s.Min() != 3 || s.Max() != 3 {
		t.Fatal("single sample min/max")
	}
}

func TestSummaryCoV(t *testing.T) {
	var s Summary
	s.Add(10)
	s.Add(10)
	if s.CoV() != 0 {
		t.Fatalf("CoV of constant = %v", s.CoV())
	}
	var z Summary
	z.Add(-1)
	z.Add(1)
	if z.CoV() != 0 { // mean 0 guard
		t.Fatalf("CoV with zero mean = %v", z.CoV())
	}
}

func TestDurationsPercentiles(t *testing.T) {
	var d Durations
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	if got := d.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := d.Percentile(95); got != 95*time.Millisecond {
		t.Fatalf("p95 = %v", got)
	}
	if got := d.Percentile(0); got != time.Millisecond {
		t.Fatalf("p0 = %v", got)
	}
	if got := d.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := d.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v", got)
	}
	if d.Min() != time.Millisecond || d.Max() != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", d.Min(), d.Max())
	}
}

func TestDurationsEmpty(t *testing.T) {
	var d Durations
	if d.Mean() != 0 || d.Percentile(50) != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Fatal("empty durations should be all zero")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(100, 50*time.Second); got != 2 {
		t.Fatalf("throughput = %v", got)
	}
	if got := Throughput(5, 0); got != 0 {
		t.Fatalf("throughput with zero makespan = %v", got)
	}
}

func TestStepSeries(t *testing.T) {
	var s StepSeries
	s.Set(0, 0)
	s.Set(2*time.Second, 10)
	s.Set(4*time.Second, 5)
	if got := s.At(1 * time.Second); got != 0 {
		t.Fatalf("At(1s) = %v", got)
	}
	if got := s.At(2 * time.Second); got != 10 {
		t.Fatalf("At(2s) = %v", got)
	}
	if got := s.At(3 * time.Second); got != 10 {
		t.Fatalf("At(3s) = %v", got)
	}
	if got := s.At(100 * time.Second); got != 5 {
		t.Fatalf("At(100s) = %v", got)
	}
	// Integral over [0,6]: 0*2 + 10*2 + 5*2 = 30
	if got := s.Integral(0, 6*time.Second); !almostEq(got, 30, 1e-9) {
		t.Fatalf("integral = %v", got)
	}
	if got := s.Mean(0, 6*time.Second); !almostEq(got, 5, 1e-9) {
		t.Fatalf("mean = %v", got)
	}
	// Partial window [1,3]: 0*1 + 10*1 = 10
	if got := s.Integral(time.Second, 3*time.Second); !almostEq(got, 10, 1e-9) {
		t.Fatalf("partial integral = %v", got)
	}
}

func TestStepSeriesOverwriteAndDedup(t *testing.T) {
	var s StepSeries
	s.Set(time.Second, 1)
	s.Set(time.Second, 2) // overwrite same timestamp
	if s.Len() != 1 || s.At(time.Second) != 2 {
		t.Fatalf("overwrite failed: len=%d", s.Len())
	}
	s.Set(2*time.Second, 2) // same value: no new step
	if s.Len() != 1 {
		t.Fatalf("dedup failed: len=%d", s.Len())
	}
}

func TestStepSeriesBackwardsPanics(t *testing.T) {
	var s StepSeries
	s.Set(2*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Set(time.Second, 2)
}

// Property: Welford mean matches naive mean; min/max bound all samples.
func TestQuickSummaryMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true // skip pathological inputs
			}
		}
		if len(xs) == 0 {
			return true
		}
		var s Summary
		var sum float64
		for _, x := range xs {
			s.Add(x)
			sum += x
		}
		naive := sum / float64(len(xs))
		scale := math.Max(1, math.Abs(naive))
		if !almostEq(s.Mean(), naive, 1e-6*scale) {
			return false
		}
		for _, x := range xs {
			if x < s.Min() || x > s.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var d Durations
		for _, r := range raw {
			d.Add(time.Duration(r))
		}
		prev := time.Duration(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := d.Percentile(p)
			if v < prev || v < d.Min() || v > d.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
