// Package metrics provides small statistics helpers used across the
// simulator: online summary statistics, duration samples with
// percentiles, throughput computation, and step time-series for
// utilization accounting.
package metrics

import (
	"math"
	"sort"
	"time"
)

// Summary accumulates online count/mean/variance (Welford) plus min
// and max. The zero value is ready to use.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add records a new observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean (0 for no observations).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 for none).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for none).
func (s *Summary) Max() float64 { return s.max }

// Sum returns n*mean.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// Variance returns the sample variance (n-1 denominator).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// CoV returns the coefficient of variation (stddev/mean), or 0 when
// the mean is 0. Used as the paper-style isolation metric: low CoV
// under a noisy neighbour means good performance isolation.
func (s *Summary) CoV() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.Stddev() / s.mean
}

// Durations collects time.Duration samples and answers percentile
// queries. The zero value is ready to use.
type Durations struct {
	samples []time.Duration
	sorted  bool
}

// Add records a sample.
func (d *Durations) Add(v time.Duration) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// N returns the sample count.
func (d *Durations) N() int { return len(d.samples) }

// Mean returns the mean duration (0 for no samples).
func (d *Durations) Mean() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d.samples {
		sum += v
	}
	return sum / time.Duration(len(d.samples))
}

// Min returns the smallest sample (0 for none).
func (d *Durations) Min() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[0]
}

// Max returns the largest sample (0 for none).
func (d *Durations) Max() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.samples[len(d.samples)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted samples.
func (d *Durations) Percentile(p float64) time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[len(d.samples)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(d.samples))))
	if rank < 1 {
		rank = 1
	}
	return d.samples[rank-1]
}

// Summary converts the samples to a float64 Summary in seconds.
func (d *Durations) Summary() *Summary {
	s := &Summary{}
	for _, v := range d.samples {
		s.Add(v.Seconds())
	}
	return s
}

// Samples returns a copy of the recorded samples in insertion order is
// not preserved once percentile queries have run; callers needing
// order should keep their own slice.
func (d *Durations) Samples() []time.Duration {
	return append([]time.Duration(nil), d.samples...)
}

func (d *Durations) ensureSorted() {
	if !d.sorted {
		sort.Slice(d.samples, func(i, j int) bool { return d.samples[i] < d.samples[j] })
		d.sorted = true
	}
}

// Throughput returns completed items per second over a makespan; 0 for
// a non-positive makespan.
func Throughput(items int, makespan time.Duration) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(items) / makespan.Seconds()
}

// StepSeries is a piecewise-constant time series: value v holds from
// each sample's time until the next. Used for GPU busy-SM accounting.
type StepSeries struct {
	times  []time.Duration
	values []float64
}

// Set records that the series takes value v from time t onward.
// Times must be nondecreasing; a sample at an existing last time
// overwrites it.
func (s *StepSeries) Set(t time.Duration, v float64) {
	if n := len(s.times); n > 0 {
		if t < s.times[n-1] {
			panic("metrics: StepSeries times must be nondecreasing")
		}
		if t == s.times[n-1] {
			s.values[n-1] = v
			return
		}
		if s.values[n-1] == v {
			return // no change; keep series minimal
		}
	}
	s.times = append(s.times, t)
	s.values = append(s.values, v)
}

// At returns the series value at time t (0 before the first sample).
func (s *StepSeries) At(t time.Duration) float64 {
	i := sort.Search(len(s.times), func(i int) bool { return s.times[i] > t })
	if i == 0 {
		return 0
	}
	return s.values[i-1]
}

// Integral returns the time integral of the series over [from, to] in
// value·seconds.
func (s *StepSeries) Integral(from, to time.Duration) float64 {
	if to <= from || len(s.times) == 0 {
		return 0
	}
	var total float64
	for i := range s.times {
		segStart := s.times[i]
		segEnd := to
		if i+1 < len(s.times) {
			segEnd = s.times[i+1]
		}
		a, b := segStart, segEnd
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		if b > a {
			total += s.values[i] * (b - a).Seconds()
		}
	}
	return total
}

// Mean returns the time-weighted mean over [from, to].
func (s *StepSeries) Mean(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	return s.Integral(from, to) / (to - from).Seconds()
}

// Len returns the number of recorded steps.
func (s *StepSeries) Len() int { return len(s.times) }

// Step returns the i-th (time, value) step.
func (s *StepSeries) Step(i int) (time.Duration, float64) { return s.times[i], s.values[i] }
