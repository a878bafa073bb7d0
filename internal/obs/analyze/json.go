package analyze

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// MarshalJSON renders the breakdown as an object with one integer
// nanosecond entry per phase, in canonical phase order. The encoding
// is hand-built (no map iteration) so artifacts are byte-stable.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	buf := []byte{'{'}
	for i, v := range b {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendQuote(buf, Phase(i).String())
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON reads the object form written by MarshalJSON. Unknown
// phase names are rejected so version skew between two diffed
// artifacts is an error, not silent data loss.
func (b *Breakdown) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*b = Breakdown{}
	for name, ns := range m {
		p, ok := PhaseByName(name)
		if !ok {
			return fmt.Errorf("analyze: unknown phase %q", name)
		}
		b[p] = time.Duration(ns)
	}
	return nil
}

// WriteJSON writes the report as indented JSON, the machine-readable
// attribution artifact consumed by tracediff. The bytes are those of
// json.MarshalIndent(r, "", "  ") plus a newline, built by appends in
// the same field order, with the same omitempty fields and null for a
// nil slice.
func (r *Report) WriteJSON(w io.Writer) error {
	// A task or group object of the paper's runs is about 550 bytes.
	b := make([]byte, 0, 640*(len(r.Tasks)+len(r.Groups)+1))
	b = append(b, "{\n  \"tasks\": "...)
	b = appendObjects(b, r.Tasks, appendTask)
	b = append(b, ",\n  \"groups\": "...)
	b = appendObjects(b, r.Groups, appendGroup)
	b = append(b, "\n}\n"...)
	_, err := w.Write(b)
	return err
}

// appendObjects appends a slice field's value as MarshalIndent does at
// depth one: null when nil, [] when empty, else one indented object per
// element whose members appendMembers writes.
func appendObjects[T any](b []byte, xs []T, appendMembers func([]byte, *T) []byte) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	if len(xs) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"scope\": "...)
		b = appendMembers(b, &xs[i])
		b = append(b, "\n    }"...)
	}
	return append(b, "\n  ]"...)
}

// appendTask and appendGroup append an object's members in struct
// field order, starting with the value of the first, scope.
func appendTask(b []byte, t *TaskAttribution) []byte {
	b = appendJSONString(b, t.Scope)
	b = appendIntField(b, "task", int64(t.Task))
	b = appendField(b, "app", t.App, true)
	b = appendField(b, "executor", t.Executor, false)
	b = appendField(b, "gpu_pct", t.GPUPct, false)
	b = appendField(b, "status", t.Status, true)
	b = appendIntField(b, "start_ns", t.StartNS)
	b = appendIntField(b, "end_ns", t.EndNS)
	return appendPhases(b, &t.Phases)
}

func appendGroup(b []byte, g *Group) []byte {
	b = appendJSONString(b, g.Scope)
	b = appendField(b, "executor", g.Executor, false)
	b = appendField(b, "app", g.App, true)
	b = appendField(b, "gpu_pct", g.GPUPct, false)
	b = appendIntField(b, "tasks", int64(g.Tasks))
	b = appendIntField(b, "mean_ns", g.MeanNS)
	b = appendIntField(b, "p50_ns", g.P50NS)
	b = appendIntField(b, "p95_ns", g.P95NS)
	b = appendIntField(b, "p99_ns", g.P99NS)
	return appendPhases(b, &g.Phases)
}

// The member writers below append one member of a task or group
// object, after its first, at MarshalIndent's depth.

// appendField appends a string member; an empty string is omitted
// unless keepEmpty (the fields without omitempty).
func appendField(b []byte, key, v string, keepEmpty bool) []byte {
	if v == "" && !keepEmpty {
		return b
	}
	b = append(b, ",\n      \""...)
	b = append(b, key...)
	b = append(b, "\": "...)
	return appendJSONString(b, v)
}

func appendIntField(b []byte, key string, v int64) []byte {
	b = append(b, ",\n      \""...)
	b = append(b, key...)
	b = append(b, "\": "...)
	return strconv.AppendInt(b, v, 10)
}

// appendPhases appends the phases member: the Breakdown object
// MarshalJSON renders, indented one level deeper.
func appendPhases(b []byte, p *Breakdown) []byte {
	b = append(b, ",\n      \"phases\": {"...)
	for i, v := range p {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n        \""...)
		b = append(b, Phase(i).String()...)
		b = append(b, "\": "...)
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, "\n      }"...)
}

// appendJSONString appends s as encoding/json quotes it. Printable
// ASCII other than '"', '\' and the HTML-escaped '<', '>' and '&'
// quotes to itself; any other string goes through json.Marshal, which
// owns the escapes, U+2028/U+2029 and invalid-UTF-8 replacement.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// ReadReport parses an attribution artifact written by WriteJSON.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// WriteText renders the blame profiles as a human-readable table: one
// row per group, one column per phase, values in milliseconds of mean
// per-task time.
func (r *Report) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-28s %-16s %5s %9s %9s %9s", "scope", "app", "tasks", "mean_ms", "p95_ms", "p99_ms")
	for p := Phase(0); p < NumPhases; p++ {
		fmt.Fprintf(bw, " %12s", p.String())
	}
	fmt.Fprintln(bw)
	for i := range r.Groups {
		g := &r.Groups[i]
		app := g.App
		if g.GPUPct != "" {
			app += "@" + g.GPUPct
		}
		fmt.Fprintf(bw, "%-28s %-16s %5d %9.1f %9.1f %9.1f",
			g.Scope, app, g.Tasks,
			float64(g.MeanNS)/1e6, float64(g.P95NS)/1e6, float64(g.P99NS)/1e6)
		for _, v := range g.Phases {
			mean := 0.0
			if g.Tasks > 0 {
				mean = float64(v) / float64(g.Tasks) / 1e6
			}
			fmt.Fprintf(bw, " %12.1f", mean)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
