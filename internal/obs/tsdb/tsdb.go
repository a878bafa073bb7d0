// Package tsdb is a deterministic in-memory time-series store on the
// virtual clock: it periodically scrapes an obs.Registry into
// fixed-capacity ring-buffer series — counters as monotonic samples,
// gauges as last-value samples, histograms as cumulative bucket
// snapshots — and answers windowed range queries (rate, avg, max,
// histogram quantile) over them.
//
// Determinism boundary: every write happens in sim context (the
// scrape daemon, manual Scrape calls, event-series Append) and every
// sample carries a virtual timestamp, so the stored data is
// byte-for-byte reproducible for a given scenario. Reads are
// additionally safe from other goroutines — the live HTTP server
// queries a running simulation under the DB's RWMutex, and
// wall-clock-side queries evaluate "now" as the last written virtual
// time (LastTime), never by touching the simulation clock.
//
// Scrapes add no allocations in the steady state: the flattened
// instrument list is cached and rebuilt only when the registry's
// structural generation changes, and rings are preallocated at
// creation (a scraped ring grows only when an alert rule binds it).
package tsdb

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/devent"
	"repro/internal/obs"
)

// Config parameterizes a DB.
type Config struct {
	// Interval is the scrape cadence on the virtual clock (default 1s).
	Interval time.Duration
	// Capacity is the per-series ring size in samples (default 512).
	// Once full, the oldest samples are overwritten; windowed queries
	// reaching past the oldest retained sample see a truncated window.
	// A scraped series (a registry instrument) grows when an alert rule
	// binds it with a longer window, to ceil(window/Interval)+1
	// samples, so scrape-driven rules see whole windows; event series
	// keep the capacity they were created with.
	Capacity int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Capacity <= 0 {
		c.Capacity = 512
	}
	return c
}

// Sample is one scalar observation at a virtual time.
type Sample struct {
	T time.Duration
	V float64
}

// Series is one scalar ring: a scraped counter or gauge or a
// direct-append event series. All mutation goes through the owning
// DB's lock.
type Series struct {
	db     *DB
	name   string
	labels []obs.Label
	lkey   string // rendered sorted labels, the deterministic sort key
	ring   []Sample
	head   int // index of the oldest sample
	n      int
	drops  int64

	scraped bool      // written by the scrape; may grow for alert windows
	wins    []*window // alert windows bound to this series, fed on push
}

// Name returns the series' family name.
func (s *Series) Name() string { return s.name }

// Labels returns the series' canonical labels (read-only).
func (s *Series) Labels() []obs.Label { return s.labels }

// histSeries is a histogram ring: per-sample cumulative bucket counts
// (stride = len(bounds)+1, the last slot the +Inf total), sums, and
// times, stored flat and strided so a scrape is pure copying.
type histSeries struct {
	name   string
	labels []obs.Label
	lkey   string
	bounds []float64
	stride int
	times  []time.Duration
	cum    []uint64
	sums   []float64
	head   int
	n      int
}

// target binds one registry instrument to its ring.
type target struct {
	c  *obs.Counter
	g  *obs.Gauge
	h  *obs.Histogram
	s  *Series
	hs *histSeries
}

// DB is the store. Writes (scrapes, appends) must come from sim
// context; reads may come from any goroutine.
type DB struct {
	mu    sync.RWMutex
	reg   *obs.Registry
	clock obs.Clock
	cfg   Config

	gen     uint64
	targets []target
	series  map[string]*Series // name+labels -> scalar ring
	hists   map[string]*histSeries
	kinds   map[string]obs.Kind

	scrapes int64
	last    time.Duration

	alerts     []*Alert
	pendingEv  []pendingAlertEvent
	delivering bool

	ticker *devent.Ticker
}

// New creates a DB scraping reg with virtual timestamps from clock.
// Nothing is recorded until Scrape runs (directly or via Start).
func New(reg *obs.Registry, clock obs.Clock, cfg Config) *DB {
	return &DB{
		reg:    reg,
		clock:  clock,
		cfg:    cfg.withDefaults(),
		series: make(map[string]*Series),
		hists:  make(map[string]*histSeries),
		kinds:  make(map[string]obs.Kind),
	}
}

// Interval returns the configured scrape cadence.
func (db *DB) Interval() time.Duration {
	if db == nil {
		return 0
	}
	return db.cfg.Interval
}

// seriesKey joins a family name with canonical (sorted) labels.
func seriesKey(name string, labels []obs.Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

// labelKey renders sorted labels for deterministic ordering.
func labelKey(labels []obs.Label) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []obs.Label) []obs.Label {
	ls := append([]obs.Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Scrape records one sample per registry instrument at the current
// virtual time, then evaluates alert rules in
// registration order. Must be called from sim context; safe on a nil
// DB. Steady-state cost is ring writes only — the instrument list is
// cached and rebuilt only when the registry's generation moved. Alert
// transitions are delivered to their OnEvent listeners after the DB
// lock is released, so listeners may re-enter the DB.
func (db *DB) Scrape() {
	if db == nil {
		return
	}
	db.mu.Lock()
	db.scrapeLocked(db.clock.Now())
	db.mu.Unlock()
	db.deliverAlertEvents()
}

func (db *DB) scrapeLocked(now time.Duration) {
	if g := db.reg.Gen(); g != db.gen {
		db.rebuild()
		db.gen = g
	}
	for i := range db.targets {
		t := &db.targets[i]
		switch {
		case t.c != nil:
			t.s.push(now, t.c.Value())
		case t.g != nil:
			t.s.push(now, t.g.Value())
		default:
			t.hs.push(now, t.h)
		}
	}
	db.scrapes++
	if now > db.last {
		db.last = now
	}
	if len(db.alerts) > 0 {
		db.evalAlertsLocked(now)
	}
}

// rebuild reflattens the registry into scrape targets, creating rings
// for series not seen before. Existing rings (and their history) are
// kept.
func (db *DB) rebuild() {
	db.targets = db.targets[:0]
	db.reg.VisitSeries(func(name string, kind obs.Kind, inst any) {
		db.kinds[name] = kind
		switch v := inst.(type) {
		case *obs.Counter:
			db.targets = append(db.targets, target{c: v, s: db.scalar(name, v.Labels())})
		case *obs.Gauge:
			db.targets = append(db.targets, target{g: v, s: db.scalar(name, v.Labels())})
		case *obs.Histogram:
			key := seriesKey(name, v.Labels())
			hs, ok := db.hists[key]
			if !ok {
				stride := len(v.Bounds()) + 1
				cap := db.cfg.Capacity
				hs = &histSeries{
					name:   name,
					labels: v.Labels(),
					lkey:   labelKey(v.Labels()),
					bounds: v.Bounds(),
					stride: stride,
					times:  make([]time.Duration, cap),
					cum:    make([]uint64, cap*stride),
					sums:   make([]float64, cap),
				}
				db.hists[key] = hs
			}
			db.targets = append(db.targets, target{h: v, hs: hs})
		}
	})
}

// scalar finds or creates the ring for a scalar series. Caller holds
// the lock; labels must already be canonical.
func (db *DB) scalar(name string, labels []obs.Label) *Series {
	key := seriesKey(name, labels)
	s, ok := db.series[key]
	if !ok {
		s = &Series{
			db:      db,
			name:    name,
			labels:  labels,
			lkey:    labelKey(labels),
			ring:    make([]Sample, db.cfg.Capacity),
			scraped: true,
		}
		db.series[key] = s
	}
	return s
}

// push appends a sample and feeds it to the bound alert windows. A
// full ring first evicts its oldest sample from every window still
// holding it, then overwrites it.
func (s *Series) push(t time.Duration, v float64) {
	if s.n < len(s.ring) {
		s.ring[(s.head+s.n)%len(s.ring)] = Sample{T: t, V: v}
		s.n++
	} else {
		for _, w := range s.wins {
			if w.lo == s.drops {
				w.drop()
			}
		}
		s.ring[s.head] = Sample{T: t, V: v}
		s.head = (s.head + 1) % len(s.ring)
		s.drops++
	}
	for _, w := range s.wins {
		w.add(s.drops+int64(s.n)-1, v)
	}
}

// at returns the i-th retained sample, oldest first.
func (s *Series) at(i int) Sample { return s.ring[(s.head+i)%len(s.ring)] }

func (hs *histSeries) push(now time.Duration, h *obs.Histogram) {
	slot := (hs.head + hs.n) % len(hs.times)
	if hs.n == len(hs.times) {
		slot = hs.head
		hs.head = (hs.head + 1) % len(hs.times)
	} else {
		hs.n++
	}
	hs.times[slot] = now
	hs.sums[slot] = h.Sum()
	counts := h.BucketCounts()
	base := slot * hs.stride
	cum := uint64(0)
	for i := 0; i < hs.stride; i++ {
		cum += counts[i]
		hs.cum[base+i] = cum
	}
}

// slotAt returns the ring slot of the i-th retained snapshot, oldest
// first.
func (hs *histSeries) slotAt(i int) int { return (hs.head + i) % len(hs.times) }

// EventSeries finds or creates a direct-append scalar series: instead
// of being sampled at scrape ticks, callers Append observations at
// event time — the burn-rate monitor's per-task outcomes, for example.
// capacity <= 0 takes the DB default; the name must not collide with a
// scraped registry family. The series exports as a gauge.
func (db *DB) EventSeries(name string, capacity int, labels ...obs.Label) *Series {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	ls := sortLabels(labels)
	key := seriesKey(name, ls)
	s, ok := db.series[key]
	if !ok {
		if capacity <= 0 {
			capacity = db.cfg.Capacity
		}
		s = &Series{
			db:     db,
			name:   name,
			labels: ls,
			lkey:   labelKey(ls),
			ring:   make([]Sample, capacity),
		}
		db.series[key] = s
		if _, exists := db.kinds[name]; !exists {
			db.kinds[name] = obs.KindGauge
		}
	}
	return s
}

// Append records one observation at virtual time t (sim context only).
// Safe on a nil series.
func (s *Series) Append(t time.Duration, v float64) {
	if s == nil {
		return
	}
	s.db.mu.Lock()
	s.push(t, v)
	if t > s.db.last {
		s.db.last = t
	}
	s.db.mu.Unlock()
}

// CountSince returns how many retained samples have T >= t, and
// whether the window is complete (false when the ring has already
// evicted samples that could have fallen inside it).
func (s *Series) CountSince(t time.Duration) (n int, complete bool) {
	if s == nil {
		return 0, true
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	n = s.n - s.searchLocked(t)
	complete = s.drops == 0 || (s.n > 0 && s.at(0).T < t)
	return n, complete
}

// SumSince returns the sum of V over retained samples with T >= t.
func (s *Series) SumSince(t time.Duration) float64 {
	if s == nil {
		return 0
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	sum := 0.0
	for i := s.searchLocked(t); i < s.n; i++ {
		sum += s.at(i).V
	}
	return sum
}

// searchLocked returns the index (oldest-first) of the first retained
// sample with T >= t. Samples are time-ordered because all writers
// observe one virtual clock.
func (s *Series) searchLocked(t time.Duration) int {
	return sort.Search(s.n, func(i int) bool { return s.at(i).T >= t })
}

// Scrapes returns how many scrape passes have run.
func (db *DB) Scrapes() int64 {
	if db == nil {
		return 0
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.scrapes
}

// LastTime returns the newest virtual time written to the DB — the
// reference "now" for wall-clock-side windowed queries.
func (db *DB) LastTime() time.Duration {
	if db == nil {
		return 0
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.last
}

// Start runs the scrape daemon on env, a devent.Env.Every ticker: one
// Scrape every Config.Interval of virtual time until Stop is called.
// The ticker holds a pending timer, so a forgotten Stop keeps the
// simulation from draining — core's sim pairs the two around every
// scenario: run (or runStep) starts the store and exit, as main ends,
// stops it. No-op if already started or on a nil DB.
func (db *DB) Start(env *devent.Env) {
	if db == nil || db.ticker != nil {
		return
	}
	db.ticker = env.Every("tsdb-scrape", db.cfg.Interval, func(*devent.Proc) { db.Scrape() })
}

// Stop ends the scrape daemon so the event queue can drain. Safe to
// call more than once, from sim context or after the run.
func (db *DB) Stop() {
	if db != nil {
		db.ticker.Stop()
	}
}
