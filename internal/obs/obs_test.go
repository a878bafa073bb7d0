package obs

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced virtual clock.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

func TestSpanLifecycle(t *testing.T) {
	clk := &fakeClock{}
	c := New(clk)
	root := c.StartSpan("dfk", "task", "task-1", 0, Int("task", 1), String("app", "train"))
	if root == 0 {
		t.Fatal("root span id 0")
	}
	clk.t = time.Second
	child := c.StartSpan("htex", "queue", "task-1", root)
	clk.t = 3 * time.Second
	c.EndSpan(child, String("worker", "w0"))
	clk.t = 5 * time.Second
	c.EndSpan(root, String("status", "done"))

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	r, ch := spans[0], spans[1]
	if r.Start != 0 || r.End != 5*time.Second || r.Attr("app") != "train" || r.Attr("status") != "done" {
		t.Errorf("root = %+v", r)
	}
	if ch.Parent != root || ch.Start != time.Second || ch.End != 3*time.Second || ch.Attr("worker") != "w0" {
		t.Errorf("child = %+v", ch)
	}
	if c.OpenSpans() != 0 {
		t.Errorf("open = %d", c.OpenSpans())
	}
	// Ending twice (or ending an unknown ID) is a no-op.
	c.EndSpan(root)
	c.EndSpan(999)
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestOpenSpanClampedInSnapshot(t *testing.T) {
	clk := &fakeClock{}
	c := New(clk)
	clk.t = 2 * time.Second
	id := c.StartSpan("htex", "worker", "w0", 0)
	clk.t = 7 * time.Second
	spans := c.Spans()
	if spans[0].End != 7*time.Second {
		t.Fatalf("open span end = %v", spans[0].End)
	}
	// The stored span stays open: a later snapshot clamps further out.
	clk.t = 9 * time.Second
	if got := c.Spans()[0].End; got != 9*time.Second {
		t.Fatalf("later snapshot end = %v", got)
	}
	c.EndSpan(id)
	if c.OpenSpans() != 0 {
		t.Fatal("still open")
	}
}

func TestAddSpanClampsAndFiresListeners(t *testing.T) {
	c := New(&fakeClock{})
	var got []Span
	c.OnSpanEnd(func(s Span) { got = append(got, s) })
	c.AddSpan("simgpu", "gemm", "ctx0", 0, 4*time.Second, 6*time.Second, String("domain", "gpu0"))
	c.AddSpan("simgpu", "bad", "ctx0", 0, 5*time.Second, time.Second) // end < start
	if len(got) != 2 {
		t.Fatalf("listener calls = %d", len(got))
	}
	if got[0].Name != "gemm" || got[0].Attr("domain") != "gpu0" {
		t.Errorf("first = %+v", got[0])
	}
	if got[1].End != got[1].Start {
		t.Errorf("clamp failed: %+v", got[1])
	}
}

func TestEndSpanListenerSeesFinalAttrs(t *testing.T) {
	clk := &fakeClock{}
	c := New(clk)
	var seen Span
	c.OnSpanEnd(func(s Span) { seen = s })
	id := c.StartSpan("dfk", "task", "task-1", 0, Int("task", 1))
	clk.t = time.Second
	c.EndSpan(id, String("status", "done"))
	if seen.ID != id || seen.Attr("status") != "done" || seen.Attr("task") != "1" || seen.End != time.Second {
		t.Fatalf("seen = %+v", seen)
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	id := c.StartSpan("x", "y", "z", 0)
	if id != 0 {
		t.Fatal("nil StartSpan returned non-zero")
	}
	c.EndSpan(id)
	c.AddSpan("x", "y", "z", 0, 0, 0)
	c.OnSpanEnd(func(Span) {})
	c.SetScope("s")
	c.ProcSpawned("p", 0)
	c.ProcExited("p", 0)
	c.Dispatched(0)
	if c.Len() != 0 || c.OpenSpans() != 0 || c.Spans() != nil || c.Scope() != "" || c.Metrics() != nil {
		t.Fatal("nil collector leaked state")
	}
	// Instruments resolved through the nil registry are no-op too.
	m := c.Metrics()
	m.Counter("a").Inc()
	m.Gauge("b").Set(1)
	m.Histogram("c", nil).Observe(1)
}

func TestAttrConstructors(t *testing.T) {
	for _, tc := range []struct {
		a    Attr
		k, v string
	}{
		{String("s", "x"), "s", "x"},
		{Int("i", -3), "i", "-3"},
		{Float("f", 0.5), "f", "0.5"},
		{Dur("d", 1500*time.Nanosecond), "d", "1500"},
	} {
		if tc.a.Key != tc.k || tc.a.Value != tc.v {
			t.Errorf("%+v != (%s, %s)", tc.a, tc.k, tc.v)
		}
	}
}

func TestObserverHooksCount(t *testing.T) {
	c := New(&fakeClock{})
	c.ProcSpawned("a", 0)
	c.ProcSpawned("b", 0)
	c.ProcExited("a", 0)
	for i := 0; i < 5; i++ {
		c.Dispatched(0)
	}
	m := c.Metrics()
	if v := m.Counter("devent_procs_spawned_total").Value(); v != 2 {
		t.Errorf("spawned = %v", v)
	}
	if v := m.Gauge("devent_procs_live").Value(); v != 1 {
		t.Errorf("live = %v", v)
	}
	if v := m.Counter("devent_events_dispatched_total").Value(); v != 5 {
		t.Errorf("dispatched = %v", v)
	}
}

func TestRegistryIdempotentAndTyped(t *testing.T) {
	r := NewRegistry(&fakeClock{})
	a := r.Counter("hits", L("app", "x"), L("zone", "y"))
	b := r.Counter("hits", L("zone", "y"), L("app", "x")) // label order irrelevant
	if a != b {
		t.Fatal("same series resolved to different counters")
	}
	if r.Counter("hits", L("app", "other")) == a {
		t.Fatal("different labels shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("hits")
}

// Looking up an existing series allocates nothing: per-task hot paths
// (the DFK's completion counters and histograms) resolve their series
// on every call.
func TestRegistryLookupAllocs(t *testing.T) {
	r := NewRegistry(&fakeClock{})
	r.Counter("done", L("status", "ok"), L("app", "a"))
	r.Gauge("busy", L("status", "ok"), L("app", "a"))
	r.Histogram("lat", nil, L("status", "ok"), L("app", "a"))
	for _, tc := range []struct {
		name   string
		lookup func()
	}{
		{"Counter", func() { r.Counter("done", L("status", "ok"), L("app", "a")) }},
		{"Gauge", func() { r.Gauge("busy", L("status", "ok"), L("app", "a")) }},
		{"Histogram", func() { r.Histogram("lat", nil, L("status", "ok"), L("app", "a")) }},
	} {
		if got := testing.AllocsPerRun(100, tc.lookup); got != 0 {
			t.Errorf("%s lookup: %v allocs, want 0", tc.name, got)
		}
	}
}

// Label sets beyond the lookup's stack space, and keys beyond its
// buffer, resolve the same way; a new series owns a sorted copy of its
// labels.
func TestRegistryLargeLabelSets(t *testing.T) {
	r := NewRegistry(&fakeClock{})
	var ls []Label
	for i := 11; i >= 0; i-- {
		ls = append(ls, L(string(rune('a'+i)), strings.Repeat("v", 20)))
	}
	c := r.Counter("wide", ls...)
	rev := append([]Label(nil), ls...)
	slices.Reverse(rev)
	if r.Counter("wide", rev...) != c {
		t.Fatal("label order changed the series")
	}
	ls[0].Value = "mutated"
	got := c.Labels()
	if len(got) != 12 || got[0].Key != "a" || got[11].Key != "l" || got[11].Value != strings.Repeat("v", 20) {
		t.Fatalf("labels = %v", got)
	}
}

func TestGaugeSeriesTracksVirtualTime(t *testing.T) {
	clk := &fakeClock{}
	r := NewRegistry(clk)
	g := r.Gauge("busy")
	g.Set(10)
	clk.t = 2 * time.Second
	g.Add(-4)
	if g.Value() != 6 {
		t.Fatalf("value = %v", g.Value())
	}
	// Step series: 10 for [0,2s), 6 after — time-weighted mean over
	// [0,4s) is (10*2 + 6*2)/4 = 8.
	if m := g.Series().Mean(0, 4*time.Second); m != 8 {
		t.Fatalf("mean = %v", m)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(&fakeClock{})
	h := r.Histogram("lat", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.5, 1.7, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 107.7 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	if h.counts[0] != 1 || h.counts[1] != 2 || h.counts[2] != 1 || h.counts[3] != 1 {
		t.Fatalf("counts = %v", h.counts)
	}
	// Same name reuses the first registration's bounds.
	h2 := r.Histogram("lat", []float64{42})
	if len(h2.bounds) != 3 {
		t.Fatalf("bounds = %v", h2.bounds)
	}
	// Default buckets apply when none given.
	hd := r.Histogram("lat2", nil)
	if len(hd.bounds) != len(DefLatencyBuckets) {
		t.Fatalf("default bounds = %d", len(hd.bounds))
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry(&fakeClock{})
	c := r.Counter("n")
	c.Add(3)
	c.Add(-5)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("value = %v", c.Value())
	}
}
