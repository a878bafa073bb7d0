package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"
)

// attrText renders attributes as key=value strings for comparison.
func attrText(as []Attr) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.String()
	}
	return out
}

// Spans recorded across many attribute chunks, some ended thousands of
// spans after they started, keep exactly their start attributes
// followed by their end attributes; no consumer append and no later
// span writes over another span's attributes, and a Span value a
// listener kept stays as it was.
func TestSpanAttrStorage(t *testing.T) {
	const n, lag = 12000, 3000
	for _, streaming := range []bool{false, true} {
		name := "snapshot"
		if streaming {
			name = "streaming"
		}
		t.Run(name, func(t *testing.T) {
			clk := &fakeClock{}
			c := New(clk)
			sink := &captureSink{}
			if streaming {
				c.SetSink(sink)
			}
			want := map[SpanID][]string{}
			type keptSpan struct {
				s    Span
				want []string
			}
			var kept []keptSpan
			c.OnSpanEnd(func(s Span) {
				if s.ID%101 == 0 {
					kept = append(kept, keptSpan{s, attrText(s.Attrs)})
				}
			})
			startAttrs := func(i int) []Attr {
				return []Attr{Int("i", i), String("s", strconv.Itoa(i*7)), Float("f", float64(i)/3), Dur("d", time.Duration(i))}[:i%5]
			}
			endAttrs := func(i int) []Attr {
				return []Attr{String("status", "done"), Int("tries", i%3), Float("x", -float64(i))}[:i%4]
			}
			var open []int
			ids := map[int]SpanID{}
			end := func(i int) {
				ea := endAttrs(i)
				c.EndSpan(ids[i], ea...)
				want[ids[i]] = append(want[ids[i]], attrText(ea)...)
			}
			for i := 0; i < n; i++ {
				clk.t = time.Duration(i) * time.Microsecond
				sa := startAttrs(i)
				if i%4 == 3 {
					id := c.AddSpan("k", "add", "t", 0, clk.t, clk.t, sa...)
					want[id] = attrText(sa)
					continue
				}
				ids[i] = c.StartSpan("k", "open", "t", 0, sa...)
				want[ids[i]] = attrText(sa)
				open = append(open, i)
				if len(open) > lag {
					end(open[0])
					open = open[1:]
				}
			}
			for _, i := range open {
				end(i)
			}
			c.Close()

			spans := c.Spans()
			if streaming {
				spans = sink.spans
			}
			if len(spans) != len(want) {
				t.Fatalf("%d spans, want %d", len(spans), len(want))
			}
			check := func(when string) {
				t.Helper()
				for _, s := range spans {
					if got := attrText(s.Attrs); !slices.Equal(got, want[s.ID]) {
						t.Fatalf("%s: span %d attrs %v, want %v", when, s.ID, got, want[s.ID])
					}
				}
			}
			check("recorded")
			for _, s := range spans {
				_ = append(s.Attrs, String("x", "y"))
			}
			check("after consumer appends")
			if len(kept) < 100 {
				t.Fatalf("listener kept %d spans", len(kept))
			}
			for _, k := range kept {
				if got := attrText(k.s.Attrs); !slices.Equal(got, k.want) || !slices.Equal(got, want[k.s.ID]) {
					t.Fatalf("kept span %d attrs %v, want %v", k.s.ID, got, k.want)
				}
			}
		})
	}
}

// FuzzAttrFormat checks that a number attribute reads back through
// Span.Attr, and renders into a Chrome trace's args, as exactly the
// strconv formatting the constructors used to store.
func FuzzAttrFormat(f *testing.F) {
	for _, tc := range []struct {
		i int64
		x float64
	}{
		{0, 0}, {-1, math.Copysign(0, -1)}, {math.MinInt64, math.NaN()},
		{math.MaxInt64, math.Inf(1)}, {12345, math.Inf(-1)},
		{-987654321, 5e-324}, {99, 2.2250738585072009e-308},
		{100, 1e21}, {1 << 53, 0.1}, {-(1 << 62), -1.5e-7},
	} {
		f.Add(tc.i, tc.x)
	}
	f.Fuzz(func(t *testing.T, i int64, x float64) {
		wantI := strconv.FormatInt(i, 10)
		wantX := strconv.FormatFloat(x, 'g', -1, 64)
		c := New(&fakeClock{})
		c.AddSpan("k", "n", "t", 0, 0, 0, Dur("d", time.Duration(i)), Int("i", int(i)), Float("f", x))
		s := c.Spans()[0]
		for k, want := range map[string]string{"d": wantI, "i": wantI, "f": wantX} {
			if got := s.Attr(k); got != want {
				t.Errorf("Span.Attr(%q) = %q, want %q", k, got, want)
			}
		}
		if v, ok := s.AttrInt("d"); !ok || v != i {
			t.Errorf("AttrInt(d) = %d, %v; want %d", v, ok, i)
		}
		if _, ok := s.AttrInt("f"); ok {
			t.Error("AttrInt on a float attribute succeeded")
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, c); err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Ph   string
				Args map[string]any
			}
		}
		if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		for _, ev := range tr.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			for k, want := range map[string]string{"d": wantI, "i": wantI, "f": wantX} {
				if got := ev.Args[k]; got != want {
					t.Errorf("trace args[%q] = %#v, want %q", k, got, want)
				}
			}
		}
	})
}
