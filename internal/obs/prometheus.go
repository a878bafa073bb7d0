package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// PromSeries is one sample line (or histogram line group) of the text
// exposition: the labels must already include any scope dimension the
// producer wants. For counters and gauges only Value is used; for
// histograms Bounds/Cum/Sum/Count describe the cumulative buckets
// (Bounds finite ascending, Cum parallel cumulative counts, Count the
// +Inf cumulative total).
type PromSeries struct {
	Labels []Label
	Value  float64
	Bounds []float64
	Cum    []uint64
	Sum    float64
	Count  uint64
}

// PromFamily is one named metric's series of a fixed kind.
type PromFamily struct {
	Name   string
	Kind   Kind
	Series []PromSeries
}

// Exposition accumulates families from any number of producers (live
// registries, tsdb snapshots) and renders them as Prometheus text
// exposition: one # TYPE header per family, families sorted by name,
// series sorted by rendered label signature — byte-identical output
// for identical inputs. Merging the same family name with conflicting
// kinds is an error, reported by WriteText.
type Exposition struct {
	fams map[string]*expoFam
	err  error
}

type expoEntry struct {
	labels string // rendered sorted label set, the sort key
	s      PromSeries
}

type expoFam struct {
	kind    Kind
	entries []expoEntry
}

// NewExposition returns an empty exposition.
func NewExposition() *Exposition {
	return &Exposition{fams: make(map[string]*expoFam)}
}

// Add merges families into the exposition. Labels are sorted by key at
// this point; series order within a family does not matter.
func (e *Exposition) Add(fams ...PromFamily) {
	for _, f := range fams {
		mf, ok := e.fams[f.Name]
		if !ok {
			mf = &expoFam{kind: f.Kind}
			e.fams[f.Name] = mf
		} else if mf.kind != f.Kind && e.err == nil {
			e.err = fmt.Errorf("obs: metric %q is %v in one collector, %v in another", f.Name, mf.kind, f.Kind)
		}
		for _, s := range f.Series {
			set := sortedLabels(s.Labels)
			s.Labels = set
			mf.entries = append(mf.entries, expoEntry{labels: renderLabels(set), s: s})
		}
	}
}

// WriteText renders the accumulated families, returning the first
// merge error if any occurred.
func (e *Exposition) WriteText(w io.Writer) error {
	if e.err != nil {
		return e.err
	}
	names := make([]string, 0, len(e.fams))
	for n := range e.fams {
		names = append(names, n)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, name := range names {
		mf := e.fams[name]
		sort.Slice(mf.entries, func(i, j int) bool { return mf.entries[i].labels < mf.entries[j].labels })
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, mf.kind)
		for _, en := range mf.entries {
			s := en.s
			switch mf.kind {
			case KindCounter, KindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", name, en.labels, ftoa(s.Value))
			case KindHistogram:
				for i, b := range s.Bounds {
					fmt.Fprintf(bw, "%s_bucket%s %d\n", name,
						renderLabels(sortedLabels(s.Labels, L("le", ftoa(b)))), s.Cum[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", name,
					renderLabels(sortedLabels(s.Labels, L("le", "+Inf"))), s.Count)
				fmt.Fprintf(bw, "%s_sum%s %s\n", name, en.labels, ftoa(s.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", name, en.labels, s.Count)
			}
		}
	}
	return bw.Flush()
}

// HistogramPromSeries snapshots a live histogram into the exposition
// model: cumulative counts over the finite bounds (non-finite bounds,
// possible only in a hand-built histogram, fold into the next finite
// bucket exactly as the legacy renderer did).
func HistogramPromSeries(h *Histogram, labels []Label) PromSeries {
	s := PromSeries{Labels: labels, Sum: h.Sum(), Count: h.Count()}
	cum := uint64(0)
	counts := h.BucketCounts()
	for i, b := range h.Bounds() {
		cum += counts[i]
		if math.IsInf(b, 0) || math.IsNaN(b) {
			continue
		}
		s.Bounds = append(s.Bounds, b)
		s.Cum = append(s.Cum, cum)
	}
	return s
}

// registryFamilies snapshots every instrument of a registry as
// exposition families, appending extra labels (e.g. the scope) to each
// series.
func registryFamilies(reg *Registry, extra ...Label) []PromFamily {
	var fams []PromFamily
	var cur *PromFamily
	reg.VisitSeries(func(name string, kind Kind, inst any) {
		if cur == nil || cur.Name != name {
			fams = append(fams, PromFamily{Name: name, Kind: kind})
			cur = &fams[len(fams)-1]
		}
		switch v := inst.(type) {
		case *Counter:
			cur.Series = append(cur.Series, PromSeries{Labels: sortedLabels(v.Labels(), extra...), Value: v.Value()})
		case *Gauge:
			cur.Series = append(cur.Series, PromSeries{Labels: sortedLabels(v.Labels(), extra...), Value: v.Value()})
		case *Histogram:
			cur.Series = append(cur.Series, HistogramPromSeries(v, sortedLabels(v.Labels(), extra...)))
		}
	})
	return fams
}

// WritePrometheus emits the collectors' registries in the Prometheus
// text exposition format. Series from different collectors are merged
// under one # TYPE header per metric and distinguished by a "scope"
// label (the collector's scope, or "envN" by position). Families are
// sorted by name and series by label signature, so output is
// byte-identical for identical inputs.
func WritePrometheus(w io.Writer, collectors ...*Collector) error {
	e := NewExposition()
	for ci, c := range collectors {
		if c == nil || c.reg == nil {
			continue
		}
		scope := c.Scope()
		if scope == "" {
			scope = "env" + itoa(int64(ci+1))
		}
		e.Add(registryFamilies(c.reg, L("scope", scope))...)
	}
	return e.WriteText(w)
}

// sortedLabels merges label slices into one copy sorted by key.
func sortedLabels(labels []Label, extra ...Label) []Label {
	ls := append(append([]Label(nil), labels...), extra...)
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	return ls
}

// renderLabels formats sorted labels as {k="v",...}.
func renderLabels(ls []Label) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Inf is the +Inf bucket bound for explicit use in custom buckets.
var Inf = math.Inf(1)
