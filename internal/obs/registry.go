package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// Label is one metric dimension.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(k, v string) Label { return Label{k, v} }

// Kind distinguishes instrument families.
type Kind int

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// DefLatencyBuckets are the default histogram bounds (seconds) for
// queue delays and run times: 1 ms to 4 min in roughly 2.5x steps.
var DefLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 60, 120, 240,
}

// Counter is a monotonically increasing value. A nil *Counter is a
// no-op, so instrumented sites can hold pre-resolved pointers and skip
// the registry lookup when collection is disabled.
type Counter struct {
	labels []Label
	v      float64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add increases the counter; negative deltas are ignored.
func (c *Counter) Add(d float64) {
	if c != nil && d > 0 {
		c.v += d
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Labels returns the counter's canonical (key-sorted) labels. The
// slice is shared with the registry and must not be mutated.
func (c *Counter) Labels() []Label {
	if c == nil {
		return nil
	}
	return c.labels
}

// Gauge is a point-in-time value whose history is kept as a
// piecewise-constant step series in virtual time.
type Gauge struct {
	labels []Label
	clock  Clock
	v      float64
	series metrics.StepSeries
}

// Set records the value at the current virtual time.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	if g.clock != nil {
		g.series.Set(g.clock.Now(), v)
	}
}

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.Set(g.v + d)
	}
}

// Value returns the latest value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Series exposes the gauge's full step history (nil receiver: nil).
func (g *Gauge) Series() *metrics.StepSeries {
	if g == nil {
		return nil
	}
	return &g.series
}

// Labels returns the gauge's canonical (key-sorted) labels. The slice
// is shared with the registry and must not be mutated.
func (g *Gauge) Labels() []Label {
	if g == nil {
		return nil
	}
	return g.labels
}

// Histogram counts observations into cumulative buckets with explicit
// upper bounds, matching the Prometheus exposition model.
type Histogram struct {
	labels []Label
	bounds []float64 // ascending upper bounds; +Inf implicit
	counts []uint64  // len(bounds)+1, last is the +Inf overflow
	sum    float64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.sum += v
	h.n++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Labels returns the histogram's canonical (key-sorted) labels. The
// slice is shared with the registry and must not be mutated.
func (h *Histogram) Labels() []Label {
	if h == nil {
		return nil
	}
	return h.labels
}

// Bounds returns the histogram's finite ascending upper bounds (the
// +Inf bucket is implicit). Shared with the registry; read-only.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCounts returns the per-bucket (non-cumulative) counts:
// len(Bounds())+1 entries, the last being the +Inf overflow. The slice
// is the live backing store — callers must only read it, from sim
// context, and copy if they need a stable snapshot.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	return h.counts
}

// family is one named metric with a fixed kind and a series per label
// set.
type family struct {
	name    string
	kind    Kind
	buckets []float64
	series  map[string]any // canonical label key -> instrument
}

// Registry holds one collector's instruments. Lookups are idempotent:
// the same name and label set always return the same instrument. A
// nil *Registry returns nil instruments, which are themselves no-ops.
type Registry struct {
	clock    Clock
	families map[string]*family
	// gen counts structural changes (new family or new series) so
	// scrapers can cache their flattened instrument list and rebuild it
	// only when something was registered since the last pass.
	gen uint64
}

// NewRegistry creates an empty registry stamping gauges with clock.
func NewRegistry(clock Clock) *Registry {
	return &Registry{clock: clock, families: make(map[string]*family)}
}

func (r *Registry) family(name string, kind Kind, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, buckets: buckets, series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	return f
}

// seriesKey is the scratch space a lookup renders a label set's
// identity into. Callers keep it on their stack, so finding an existing
// series allocates nothing; only a new series copies its labels and
// key to the heap.
type seriesKey struct {
	ls  [8]Label
	buf [128]byte
}

// canonical sorts the labels by key and renders the series identity
// string, both into k. A set of more than len(k.ls) labels, or a key
// longer than k.buf, spills to the heap. The insertion sort is stable,
// so labels that share a key keep their given order.
func (k *seriesKey) canonical(labels []Label) ([]Label, []byte) {
	ls := append(k.ls[:0], labels...)
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	key := k.buf[:0]
	for _, l := range ls {
		key = append(key, l.Key...)
		key = append(key, 0)
		key = append(key, l.Value...)
		key = append(key, 0)
	}
	return ls, key
}

// Counter returns (creating if needed) the counter with these labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, KindCounter, nil)
	var k seriesKey
	ls, key := k.canonical(labels)
	if c, ok := f.series[string(key)]; ok {
		return c.(*Counter)
	}
	c := &Counter{labels: append([]Label(nil), ls...)}
	f.series[string(key)] = c
	r.gen++
	return c
}

// Gauge returns (creating if needed) the gauge with these labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, KindGauge, nil)
	var k seriesKey
	ls, key := k.canonical(labels)
	if g, ok := f.series[string(key)]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{labels: append([]Label(nil), ls...), clock: r.clock}
	f.series[string(key)] = g
	r.gen++
	return g
}

// normalizeBuckets canonicalizes histogram bounds for the Prometheus
// exposition model: sorted ascending, deduplicated, and with
// non-finite bounds dropped (the +Inf bucket is implicit; a caller
// passing math.Inf(1) would otherwise render a duplicate `le="+Inf"`
// line, and NaN cannot be a bound at all).
func normalizeBuckets(buckets []float64) []float64 {
	out := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if math.IsInf(b, 0) || math.IsNaN(b) {
			continue
		}
		out = append(out, b)
	}
	sort.Float64s(out)
	uniq := out[:0]
	for i, b := range out {
		if i == 0 || b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	return uniq
}

// Histogram returns (creating if needed) the histogram with these
// labels. The first registration of a name fixes its buckets; bounds
// are normalized (sorted, deduplicated, finite) on registration.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	if _, ok := r.families[name]; !ok {
		buckets = normalizeBuckets(buckets)
	}
	f := r.family(name, KindHistogram, buckets)
	var k seriesKey
	ls, key := k.canonical(labels)
	if h, ok := f.series[string(key)]; ok {
		return h.(*Histogram)
	}
	h := &Histogram{labels: append([]Label(nil), ls...), bounds: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
	f.series[string(key)] = h
	r.gen++
	return h
}

// Gen returns the registry's structural generation: it increments
// whenever a new series is registered, never on value updates. A
// scraper that cached its instrument list at generation g sees every
// series exactly when Gen() != g.
func (r *Registry) Gen() uint64 {
	if r == nil {
		return 0
	}
	return r.gen
}

// VisitSeries calls fn for every registered instrument in
// deterministic order: families sorted by name, series sorted by
// canonical label key. inst is a *Counter, *Gauge, or *Histogram.
func (r *Registry) VisitSeries(fn func(name string, kind Kind, inst any)) {
	if r == nil {
		return
	}
	for _, name := range r.familyNames() {
		f := r.families[name]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fn(name, f.kind, f.series[k])
		}
	}
}

// familyNames returns the registered metric names, sorted.
func (r *Registry) familyNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
