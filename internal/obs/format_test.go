package obs

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// FuzzUsec checks the integer microsecond formatting against the float
// formatting it replaces, for every int64: the integer path below 2^50
// ns and the float fallback everywhere else.
func FuzzUsec(f *testing.F) {
	for _, d := range []int64{
		0, -1, 1, 999, 1000, 1001, 123456789,
		1<<50 - 1, 1 << 50, 1<<53 - 1, 1 << 53, 1<<53 + 1,
		math.MinInt64, math.MaxInt64,
	} {
		f.Add(d)
	}
	f.Fuzz(func(t *testing.T, d int64) {
		got := appendUsec([]byte("ts:"), time.Duration(d))
		want := strconv.AppendFloat([]byte("ts:"), float64(d)/1e3, 'f', 3, 64)
		if string(got) != string(want) {
			t.Errorf("appendUsec(%d) = %q, want %q", d, got, want)
		}
	})
}

// FuzzQuote checks the unescaped-string fast path against
// strconv.AppendQuote on arbitrary bytes.
func FuzzQuote(f *testing.F) {
	for _, s := range []string{
		"", "run", "htex/worker 0", "~ !", "\x7f", "\x00", "\x1f", "\t\n",
		`"`, `\`, `a"b\c`, "é", "日本", " ", "\xff", "a\xc3", "\xed\xa0\x80",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := appendQuoted([]byte("k:"), s)
		want := strconv.AppendQuote([]byte("k:"), s)
		if string(got) != string(want) {
			t.Errorf("appendQuoted(%q) = %s, want %s", s, got, want)
		}
	})
}

// TestEachSpanMatchesSpans checks that EachSpan visits exactly the
// spans Spans returns, with the same clamping, in snapshot and
// streaming mode, with open, pinned and parked spans, before and after
// Close, and that visiting leaves the collector as it was: a span open
// while visited still ends at its own EndSpan time.
func TestEachSpanMatchesSpans(t *testing.T) {
	for _, streaming := range []bool{false, true} {
		clk := &fakeClock{}
		c := New(clk)
		if streaming {
			c.SetSink(&captureSink{})
		}
		buildWorkload(clk, c)
		open := c.StartSpan("dfk", "task", "task-3", 0, Int("task", 3))
		c.AddSpan("simgpu", "gemm", "ctx0", open, 3*time.Second, 3*time.Second)
		clk.t = 4 * time.Second

		check := func(stage string) {
			t.Helper()
			want, leaks, openN := c.Spans(), c.CheckClosed(), c.OpenSpans()
			var got []Span
			c.EachSpan(func(s *Span) { got = append(got, *s) })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("streaming=%v %s: EachSpan visited\n%+v\nSpans returned\n%+v", streaming, stage, got, want)
			}
			if !reflect.DeepEqual(c.Spans(), want) || !reflect.DeepEqual(c.CheckClosed(), leaks) || c.OpenSpans() != openN {
				t.Errorf("streaming=%v %s: EachSpan changed the collector", streaming, stage)
			}
		}
		var end time.Duration
		c.OnSpanEnd(func(s Span) {
			if s.ID == open {
				end = s.End
			}
		})

		check("open")
		clk.t = 5 * time.Second
		c.EndSpan(open)
		if end != 5*time.Second {
			t.Errorf("streaming=%v: span open while visited ended at %v, want 5s", streaming, end)
		}
		check("ended")
		c.Close()
		check("closed")
	}
}
