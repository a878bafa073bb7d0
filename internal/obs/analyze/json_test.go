package analyze_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/obs/analyze"
)

// marshalIndent is the reference the hand-built Report.WriteJSON must
// reproduce byte for byte.
func marshalIndent(tb testing.TB, r *analyze.Report) string {
	tb.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return string(data) + "\n"
}

// checkWriteJSON compares WriteJSON with the reference and, when every
// string is valid UTF-8 (json replaces invalid bytes), reads the
// artifact back into an equal report.
func checkWriteJSON(tb testing.TB, name string, r *analyze.Report) {
	tb.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	if want := marshalIndent(tb, r); buf.String() != want {
		tb.Fatalf("%s: WriteJSON wrote\n%s\nMarshalIndent gives\n%s", name, buf.String(), want)
	}
	if !validStrings(r) {
		return
	}
	back, err := analyze.ReadReport(&buf)
	if err != nil {
		tb.Fatalf("%s: ReadReport: %v", name, err)
	}
	if !reflect.DeepEqual(back, r) {
		tb.Fatalf("%s: read back\n%+v\nwrote\n%+v", name, back, r)
	}
}

func validStrings(r *analyze.Report) bool {
	for _, t := range r.Tasks {
		for _, s := range []string{t.Scope, t.App, t.Executor, t.GPUPct, t.Status} {
			if !utf8.ValidString(s) {
				return false
			}
		}
	}
	for _, g := range r.Groups {
		for _, s := range []string{g.Scope, g.Executor, g.App, g.GPUPct} {
			if !utf8.ValidString(s) {
				return false
			}
		}
	}
	return true
}

// oneOfEach is a report with one task and one group built from the
// given strings and numbers.
func oneOfEach(s [5]string, n int64) *analyze.Report {
	var ph analyze.Breakdown
	for i := range ph {
		ph[i] = time.Duration(n * int64(i-3))
	}
	return &analyze.Report{
		Tasks: []analyze.TaskAttribution{{
			Scope: s[0], Task: int(n), App: s[1], Executor: s[2], GPUPct: s[3], Status: s[4],
			StartNS: -n, EndNS: n, Phases: ph,
		}},
		Groups: []analyze.Group{{
			Scope: s[0], Executor: s[2], App: s[1], GPUPct: s[3],
			Tasks: int(n), MeanNS: n, P50NS: -n, P95NS: n / 2, P99NS: n + 1, Phases: ph,
		}},
	}
}

// TestWriteJSONMatchesMarshalIndent checks the hand-built attribution
// JSON against json.MarshalIndent on the paper-observed report and on
// the encoder's edge cases: nil against empty slices, omitted empty
// fields, and strings json escapes.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	checkWriteJSON(t, "paper-observed", analyze.Analyze(observed(t, 8)...))
	checkWriteJSON(t, "nil slices", &analyze.Report{})
	checkWriteJSON(t, "empty slices", &analyze.Report{Tasks: []analyze.TaskAttribution{}, Groups: []analyze.Group{}})
	checkWriteJSON(t, "nil tasks, empty groups", &analyze.Report{Groups: []analyze.Group{}})
	two := oneOfEach([5]string{"fig45/mps/p4", "llama", "gpu", "40", "done"}, 7)
	two.Tasks = append(two.Tasks, oneOfEach([5]string{"s", "", "", "", ""}, 0).Tasks...)
	two.Groups = append(two.Groups, oneOfEach([5]string{"", "a", "", "", "x"}, 1).Groups...)
	checkWriteJSON(t, "omitempty", two)
	for _, s := range []string{`<>&`, `"\`, "\x00\x1f\t\n\r", "\x7f", "é日本", "\u2028\u2029", "\xff\xfe", "a\xc3"} {
		checkWriteJSON(t, "escapes "+s, oneOfEach([5]string{s, s, s, s, s}, 3))
	}
}

// FuzzReportJSON checks the hand-built attribution JSON against
// json.MarshalIndent on arbitrary strings and numbers.
func FuzzReportJSON(f *testing.F) {
	f.Add("fig45/mps/p4", "llama", "gpu", "40", "done", int64(123456789))
	f.Add("", "", "", "", "", int64(0))
	f.Add("<a&b>", `q"\`, " ", "\x7f\x00", "\xff", int64(-1))
	f.Add("é", "日本", "\t", "\n", "\u2028", int64(1<<62))
	f.Fuzz(func(t *testing.T, scope, app, executor, pct, status string, n int64) {
		checkWriteJSON(t, "fuzz", oneOfEach([5]string{scope, app, executor, pct, status}, n))
	})
}
