package tsdb

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// Query methods, safe from any goroutine: they take the DB's read lock
// and evaluate "now" as the newest virtual time written (LastTime),
// never the simulation clock. Windowed functions evaluate over samples
// with T in [now-window, now]; ok is false when the series is unknown
// or the window holds too few samples to answer.

// scalarFor and histFor look a series up; the caller holds the lock.
func (db *DB) scalarFor(name string, labels []obs.Label) *Series {
	return db.series[seriesKey(name, sortLabels(labels))]
}

func (db *DB) histFor(name string, labels []obs.Label) *histSeries {
	return db.hists[seriesKey(name, sortLabels(labels))]
}

func (db *DB) Latest(name string, labels ...obs.Label) (Sample, bool) {
	if db == nil {
		return Sample{}, false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.scalarFor(name, labels)
	if s == nil || s.n == 0 {
		return Sample{}, false
	}
	return s.at(s.n - 1), true
}

func (db *DB) Rate(name string, window time.Duration, labels ...obs.Label) (float64, bool) {
	if db == nil {
		return 0, false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if s := db.scalarFor(name, labels); s != nil {
		return s.rateLocked(db.last - window)
	}
	return 0, false
}

func (db *DB) Avg(name string, window time.Duration, labels ...obs.Label) (float64, bool) {
	if db == nil {
		return 0, false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if s := db.scalarFor(name, labels); s != nil {
		return s.avgLocked(db.last - window)
	}
	return 0, false
}

func (db *DB) Max(name string, window time.Duration, labels ...obs.Label) (float64, bool) {
	if db == nil {
		return 0, false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if s := db.scalarFor(name, labels); s != nil {
		return s.maxLocked(db.last - window)
	}
	return 0, false
}

func (db *DB) Quantile(name string, q float64, window time.Duration, labels ...obs.Label) (float64, bool) {
	if db == nil {
		return 0, false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	hs := db.histFor(name, labels)
	if hs == nil || hs.n == 0 {
		return 0, false
	}
	// Delta between the newest snapshot and the last snapshot strictly
	// before the window start (zero baseline when the window reaches
	// past everything retained).
	cutoff := db.last - window
	base := -1
	for i := hs.n - 1; i >= 0; i-- {
		if hs.times[hs.slotAt(i)] < cutoff {
			base = i
			break
		}
	}
	newest := hs.slotAt(hs.n-1) * hs.stride
	delta := make([]uint64, hs.stride)
	if base < 0 {
		copy(delta, hs.cum[newest:newest+hs.stride])
	} else {
		old := hs.slotAt(base) * hs.stride
		for i := 0; i < hs.stride; i++ {
			delta[i] = hs.cum[newest+i] - hs.cum[old+i]
		}
	}
	total := delta[hs.stride-1]
	if total == 0 {
		return 0, false
	}
	return obs.HistogramQuantile(q, hs.bounds, delta[:len(hs.bounds)], total), true
}

// Samples copies out a scalar series' retained samples with T in
// [from, to] (to <= 0 means "through the newest sample").
func (db *DB) Samples(name string, from, to time.Duration, labels ...obs.Label) []Sample {
	if db == nil {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.scalarFor(name, labels)
	if s == nil {
		return nil
	}
	if to <= 0 {
		to = db.last
	}
	var out []Sample
	for i := s.searchLocked(from); i < s.n; i++ {
		smp := s.at(i)
		if smp.T > to {
			break
		}
		out = append(out, smp)
	}
	return out
}

// SeriesInfo describes one retained series for discovery endpoints.
type SeriesInfo struct {
	Name   string        `json:"name"`
	Kind   string        `json:"kind"`
	Labels []obs.Label   `json:"labels,omitempty"`
	Len    int           `json:"len"`
	Oldest time.Duration `json:"oldest_ns"`
	Newest time.Duration `json:"newest_ns"`
}

// List enumerates every retained series (scalar and histogram) in
// deterministic name-then-label order.
func (db *DB) List() []SeriesInfo {
	if db == nil {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]SeriesInfo, 0, len(db.series)+len(db.hists))
	for _, s := range db.series {
		if s.n == 0 {
			continue
		}
		out = append(out, SeriesInfo{
			Name: s.name, Kind: db.kinds[s.name].String(), Labels: s.labels,
			Len: s.n, Oldest: s.at(0).T, Newest: s.at(s.n - 1).T,
		})
	}
	for _, hs := range db.hists {
		if hs.n == 0 {
			continue
		}
		out = append(out, SeriesInfo{
			Name: hs.name, Kind: obs.KindHistogram.String(), Labels: hs.labels,
			Len: hs.n, Oldest: hs.times[hs.slotAt(0)], Newest: hs.times[hs.slotAt(hs.n-1)],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelKey(out[i].Labels) < labelKey(out[j].Labels)
	})
	return out
}

// Exposition snapshots the newest sample of every series as Prometheus
// families (extra labels appended to each series), ready for
// obs.Exposition — the live /metrics endpoint serves exactly this.
// Families come out in sorted name order, series in label order.
func (db *DB) Exposition(extra ...obs.Label) []obs.PromFamily {
	if db == nil {
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()

	type entry struct {
		lkey string
		s    obs.PromSeries
	}
	byName := make(map[string][]entry)
	for _, s := range db.series {
		if s.n == 0 {
			continue
		}
		labels := append(append([]obs.Label(nil), s.labels...), extra...)
		byName[s.name] = append(byName[s.name], entry{s.lkey, obs.PromSeries{Labels: labels, Value: s.at(s.n - 1).V}})
	}
	for _, hs := range db.hists {
		if hs.n == 0 {
			continue
		}
		slot := hs.slotAt(hs.n - 1)
		base := slot * hs.stride
		cum := make([]uint64, len(hs.bounds))
		copy(cum, hs.cum[base:base+len(hs.bounds)])
		labels := append(append([]obs.Label(nil), hs.labels...), extra...)
		byName[hs.name] = append(byName[hs.name], entry{hs.lkey, obs.PromSeries{
			Labels: labels,
			Bounds: hs.bounds,
			Cum:    cum,
			Sum:    hs.sums[slot],
			Count:  hs.cum[base+hs.stride-1],
		}})
	}

	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]obs.PromFamily, 0, len(names))
	for _, n := range names {
		entries := byName[n]
		sort.Slice(entries, func(i, j int) bool { return entries[i].lkey < entries[j].lkey })
		f := obs.PromFamily{Name: n, Kind: db.kinds[n]}
		for _, e := range entries {
			f.Series = append(f.Series, e.s)
		}
		fams = append(fams, f)
	}
	return fams
}
