package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// Server is the observability endpoint set. Attach each run as it is
// assembled, then Start (real listener) or Handler (httptest). All
// attachments are safe before or during serving.
type Server struct {
	mu       sync.Mutex
	dbs      []scopedDB
	tails    []*SpanTail
	progress *Progress
	srv      *http.Server
	ln       net.Listener
}

type scopedDB struct {
	scope string
	db    *tsdb.DB
}

// NewServer returns an empty server with a fresh Progress tracker.
func NewServer() *Server {
	return &Server{progress: NewProgress()}
}

// Attach returns a run's live-plane hook (core.AttachFunc). The hook
// registers the run's store, when it has one, under the collector's
// scope, and decides whether the run gets a /spans tail; no other code
// does. A run that streams its spans gets a tail teed onto its sink. A
// snapshot run gets one only when mayStream is set: the caller's
// statement that no export reads the run's retained spans, so the hook
// switches the run to streaming into the tail. Otherwise it stays a
// snapshot run without a tail. The tail renders as trace process
// c.TracePID(), so its raw bytes are a prefix of the run's section in
// the trace export. Call the hook after the run's sinks are installed
// and its scope is final, before its first span; concurrent calls from
// parallel runs are safe.
func (s *Server) Attach(mayStream bool) func(c *obs.Collector, db *tsdb.DB) {
	return func(c *obs.Collector, db *tsdb.DB) {
		s.attachDB(c.Scope(), db)
		if c.Streaming() || mayStream {
			c.AddSink(s.newTail(c.TracePID(), c.Scope()))
		}
	}
}

// attachDB registers a tsdb handle under a scope label; its latest
// samples appear on /metrics with scope="<scope>", its series become
// queryable via /api/series?scope=<scope>, and its alert rules on
// /api/alerts. Scopes are served in lexicographic order no matter the
// attachment order, so concurrently attached cells (parallel harness
// workers) present deterministically.
func (s *Server) attachDB(scope string, db *tsdb.DB) {
	if db == nil {
		return
	}
	s.mu.Lock()
	s.dbs = append(s.dbs, scopedDB{scope, db})
	sort.SliceStable(s.dbs, func(i, j int) bool { return s.dbs[i].scope < s.dbs[j].scope })
	s.mu.Unlock()
}

// newTail creates and registers a span tail for /spans. Like stores,
// tails are kept in scope order, so /spans without a scope answers from
// the same tail whatever order parallel runs attached in.
func (s *Server) newTail(pid int, scope string) *SpanTail {
	s.mu.Lock()
	t := newSpanTail(pid, scope)
	s.tails = append(s.tails, t)
	sort.SliceStable(s.tails, func(i, j int) bool { return s.tails[i].scope < s.tails[j].scope })
	s.mu.Unlock()
	return t
}

// Progress returns the server's progress tracker (never nil on a
// non-nil server).
func (s *Server) Progress() *Progress {
	if s == nil {
		return nil
	}
	return s.progress
}

// Handler builds the route set: /metrics, /api/series, /api/scopes,
// /api/alerts, /dashboard, /spans, /progress, /healthz, and
// /debug/pprof.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/api/series", s.handleSeries)
	mux.HandleFunc("/api/scopes", s.handleScopes)
	mux.HandleFunc("/api/alerts", s.handleAlerts)
	mux.HandleFunc("/dashboard", s.handleDashboard)
	mux.HandleFunc("/spans", s.handleSpans)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a slow or stalled client cannot hold a
// connection open; a variable only so tests can shorten it.
var readHeaderTimeout = 10 * time.Second

// idleTimeout closes keep-alive connections left idle this long. There
// is deliberately no WriteTimeout: /spans?follow=1 streams for as long
// as the client stays.
const idleTimeout = 2 * time.Minute

// spansWriteTimeout bounds each /spans write instead, so a follower
// that stops reading is dropped rather than pinning its handler; a
// variable only so tests can shorten it.
var spansWriteTimeout = 10 * time.Second

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	srv := s.srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Close stops the listener. Safe when never started.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) snapshotDBs() []scopedDB {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]scopedDB(nil), s.dbs...)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := obs.NewExposition()
	for _, sd := range s.snapshotDBs() {
		e.Add(sd.db.Exposition(obs.L("scope", sd.scope))...)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := e.WriteText(w); err != nil {
		// Too late for a status code once bytes are out; surface in-band.
		fmt.Fprintf(w, "\n# ERROR %v\n", err)
	}
}

// seriesResponse is the /api/series JSON shape. Scalar functions fill
// Value; fn=raw fills Samples; no name lists every retained series.
// Scope always echoes the scope that answered — when the request
// omitted one, it reports which DB the server chose.
type seriesResponse struct {
	Scope   string            `json:"scope,omitempty"`
	Name    string            `json:"name,omitempty"`
	Fn      string            `json:"fn,omitempty"`
	OK      bool              `json:"ok"`
	Value   *float64          `json:"value,omitempty"`
	Samples []tsdb.Sample     `json:"samples,omitempty"`
	Series  []tsdb.SeriesInfo `json:"series,omitempty"`
	LastNS  time.Duration     `json:"last_ns"`
	Error   string            `json:"error,omitempty"`
}

// federatedResponse is the scope=* shape: the same query evaluated
// against every attached DB, one result per scope in scope order.
type federatedResponse struct {
	Name    string           `json:"name,omitempty"`
	Fn      string           `json:"fn,omitempty"`
	OK      bool             `json:"ok"` // true when any scope answered
	Results []seriesResponse `json:"results"`
}

// maxSeriesSamples caps the raw samples one /api/series response
// carries, summed over every scope of a scope=* query. It is the
// largest ring any series keeps (an app's slo:burn event series), so
// one full ring still fits.
const maxSeriesSamples = 1 << 16

// reserved /api/series query parameters; everything else is a label
// matcher.
var reservedParams = map[string]bool{
	"scope": true, "name": true, "fn": true, "window": true,
	"q": true, "from": true, "to": true,
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	scope := q.Get("scope")
	dbs := s.snapshotDBs()
	if len(dbs) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, seriesResponse{Scope: scope, Error: "no tsdb attached"})
		return
	}

	// scope=* federates: one query, every attached DB, results in
	// scope order. Parameter errors, and raw results that together
	// exceed maxSeriesSamples, fail the whole request.
	if scope == "*" {
		fresp := federatedResponse{Name: q.Get("name"), Fn: q.Get("fn")}
		budget := maxSeriesSamples
		for _, sd := range dbs {
			resp, code := evalSeries(sd.db, sd.scope, q, budget)
			if code != http.StatusOK {
				writeJSON(w, code, resp)
				return
			}
			budget -= len(resp.Samples)
			if resp.OK {
				fresp.OK = true
			}
			fresp.Fn = resp.Fn
			fresp.Results = append(fresp.Results, resp)
		}
		writeJSON(w, http.StatusOK, fresp)
		return
	}

	// No scope: answer from the lexicographically-first scope (the
	// snapshot is sorted) and say so in the response — with several
	// cells attached the choice is deterministic but still a choice.
	db := dbs[0].db
	if scope == "" {
		scope = dbs[0].scope
	} else {
		db = nil
		for _, sd := range dbs {
			if sd.scope == scope {
				db = sd.db
				break
			}
		}
		if db == nil {
			writeJSON(w, http.StatusNotFound, seriesResponse{
				Scope: scope, Error: fmt.Sprintf("unknown scope %q", scope),
			})
			return
		}
	}
	resp, code := evalSeries(db, scope, q, maxSeriesSamples)
	writeJSON(w, code, resp)
}

// evalSeries answers one /api/series query against one DB, allowing
// fn=raw at most budget samples. The returned code is StatusOK or
// StatusBadRequest (malformed parameters, or more raw samples than
// budget); "no such series" is OK=false, not an HTTP error.
func evalSeries(db *tsdb.DB, scope string, q url.Values, budget int) (seriesResponse, int) {
	resp := seriesResponse{Scope: scope, Name: q.Get("name"), Fn: q.Get("fn"), LastNS: db.LastTime()}
	fail := func(format string, args ...any) (seriesResponse, int) {
		resp.Error = fmt.Sprintf(format, args...)
		return resp, http.StatusBadRequest
	}

	if resp.Name == "" {
		resp.Series = db.List()
		resp.OK = true
		return resp, http.StatusOK
	}

	// Deterministic label set from the remaining query parameters.
	var keys []string
	for k := range q {
		if !reservedParams[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var labels []obs.Label
	for _, k := range keys {
		labels = append(labels, obs.L(k, q.Get(k)))
	}

	window := 60 * time.Second
	if ws := q.Get("window"); ws != "" {
		var err error
		if window, err = time.ParseDuration(ws); err != nil || window <= 0 {
			return fail("bad window %q", ws)
		}
	}

	var v float64
	var ok bool
	switch fn := resp.Fn; fn {
	case "", "latest":
		var smp tsdb.Sample
		if smp, ok = db.Latest(resp.Name, labels...); ok {
			v = smp.V
		}
		resp.Fn = "latest"
	case "rate":
		v, ok = db.Rate(resp.Name, window, labels...)
	case "avg":
		v, ok = db.Avg(resp.Name, window, labels...)
	case "max":
		v, ok = db.Max(resp.Name, window, labels...)
	case "quantile":
		qv := 0.95
		if qs := q.Get("q"); qs != "" {
			var err error
			// The negated range test also rejects NaN.
			if qv, err = strconv.ParseFloat(qs, 64); err != nil || !(qv >= 0 && qv <= 1) {
				return fail("bad q %q", qs)
			}
		}
		v, ok = db.Quantile(resp.Name, qv, window, labels...)
	case "raw":
		var from, to time.Duration
		var err error
		if fs := q.Get("from"); fs != "" {
			if from, err = time.ParseDuration(fs); err != nil {
				return fail("bad from %q", fs)
			}
		}
		if ts := q.Get("to"); ts != "" {
			if to, err = time.ParseDuration(ts); err != nil {
				return fail("bad to %q", ts)
			}
		}
		resp.Samples = db.Samples(resp.Name, from, to, labels...)
		if len(resp.Samples) > budget {
			resp.Samples = nil
			return fail("raw result exceeds the %d-sample response cap; narrow from/to or query one scope", maxSeriesSamples)
		}
		ok = len(resp.Samples) > 0
	default:
		return fail("unknown fn %q (want latest|rate|avg|max|quantile|raw)", fn)
	}
	resp.OK = ok
	if ok && resp.Fn != "raw" {
		resp.Value = &v
	}
	return resp, http.StatusOK
}

// scopeInfo is one attached DB's /api/scopes entry.
type scopeInfo struct {
	Scope         string        `json:"scope"`
	Series        int           `json:"series"`
	LastNS        time.Duration `json:"last_ns"`
	Scrapes       int64         `json:"scrapes"`
	AlertsPending int           `json:"alerts_pending"`
	AlertsFiring  int           `json:"alerts_firing"`
}

// handleScopes lists every attached scope in lexicographic order —
// the discovery endpoint clients (and /dashboard) use to find what
// /api/series and /api/alerts can answer.
func (s *Server) handleScopes(w http.ResponseWriter, r *http.Request) {
	dbs := s.snapshotDBs()
	out := make([]scopeInfo, 0, len(dbs))
	for _, sd := range dbs {
		pending, firing := sd.db.AlertCounts()
		out = append(out, scopeInfo{
			Scope:         sd.scope,
			Series:        len(sd.db.List()),
			LastNS:        sd.db.LastTime(),
			Scrapes:       sd.db.Scrapes(),
			AlertsPending: pending,
			AlertsFiring:  firing,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// scopeAlerts is one scope's /api/alerts entry: every registered rule
// with its live state and resolved incident history.
type scopeAlerts struct {
	Scope  string             `json:"scope"`
	Alerts []tsdb.AlertStatus `json:"alerts"`
}

// handleAlerts reports alert state across scopes (or one scope with
// ?scope=). Rules come out in name order inside each scope, scopes in
// lexicographic order.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	scope := r.URL.Query().Get("scope")
	dbs := s.snapshotDBs()
	out := make([]scopeAlerts, 0, len(dbs))
	for _, sd := range dbs {
		if scope != "" && sd.scope != scope {
			continue
		}
		out = append(out, scopeAlerts{Scope: sd.scope, Alerts: sd.db.AlertStatuses()})
	}
	if scope != "" && len(out) == 0 {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown scope %q", scope)})
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) tailFor(scope string) *SpanTail {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tails) == 0 {
		return nil
	}
	if scope == "" {
		return s.tails[0]
	}
	for _, t := range s.tails {
		if t.scope == scope {
			return t
		}
	}
	return nil
}

// handleSpans serves the retained span tail. format=ndjson (default)
// emits one trace event per line; format=raw emits the same bytes the
// snapshot Chrome-trace export starts with (header + events, no
// trailer) so a client can diff the live stream against the artifact.
// follow=1 keeps the connection open and streams future events (slow
// followers drop events rather than stalling the simulation). Every
// write carries its own deadline, so a client that stops reading is
// disconnected.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	tail := s.tailFor(r.URL.Query().Get("scope"))
	if tail == nil {
		http.Error(w, "no span tail attached", http.StatusNotFound)
		return
	}
	raw := r.URL.Query().Get("format") == "raw"
	follow := r.URL.Query().Get("follow") == "1"

	chunks, evicted := tail.Snapshot()
	w.Header().Set("X-Spans-Evicted", fmt.Sprintf("%d", evicted))
	rc := http.NewResponseController(w)
	// deadline arms the next write's timeout; a writer without
	// deadlines (a test recorder) writes unbounded.
	deadline := func() error {
		err := rc.SetWriteDeadline(time.Now().Add(spansWriteTimeout))
		if errors.Is(err, http.ErrNotSupported) {
			return nil
		}
		return err
	}
	var write func(chunk []byte) error
	if raw {
		w.Header().Set("Content-Type", "application/json")
		// A tail that lost its head can't reproduce the artifact prefix.
		if evicted > 0 {
			http.Error(w, "tail window evicted events; raw prefix unavailable", http.StatusGone)
			return
		}
		if _, err := w.Write([]byte(obs.TraceHeader)); err != nil {
			return
		}
		first := true
		write = func(chunk []byte) error {
			if first && len(chunk) > 0 && chunk[0] == ',' {
				chunk = chunk[1:]
				first = false
			}
			_, err := w.Write(chunk)
			return err
		}
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		// Events render as ",\n{...}" groups; swapping the separator
		// for a newline yields NDJSON (attr values are quoted, so no
		// raw newlines exist inside events).
		write = func(chunk []byte) error {
			line := strings.ReplaceAll(string(chunk), ",\n{", "\n{")
			_, err := fmt.Fprint(w, strings.TrimPrefix(line, "\n"))
			if err == nil {
				_, err = fmt.Fprint(w, "\n")
			}
			return err
		}
	}
	for _, c := range chunks {
		if deadline() != nil || write(c) != nil {
			return
		}
	}
	if deadline() != nil || rc.Flush() != nil || !follow {
		return
	}
	ch, cancel := tail.follow(256)
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case chunk := <-ch:
			if deadline() != nil || write(chunk) != nil || rc.Flush() != nil {
				return
			}
		}
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.progress.Snapshot()) //nolint:errcheck
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.progress.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ok", "phase": snap.Phase}) //nolint:errcheck
}
