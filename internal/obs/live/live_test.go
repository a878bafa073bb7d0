package live

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration { return c.t }

const ms = time.Millisecond

// addWork populates a collector with a deterministic span set (no
// pinned spans, so streamed emission order equals the snapshot
// export's) plus some metrics.
func addWork(c *obs.Collector, clk *fakeClock) {
	reg := c.Metrics()
	lat := reg.Histogram("task_latency_seconds", obs.DefLatencyBuckets, obs.L("app", "llama"))
	for i := 0; i < 20; i++ {
		start := time.Duration(i) * 10 * ms
		end := start + 7*ms
		clk.t = end
		c.AddSpan("dfk", "task", "task", 0, start, end,
			obs.Int("task", i), obs.String("app", "llama"), obs.String("status", "done"))
		reg.Counter("tasks_total", obs.L("app", "llama")).Inc()
		lat.ObserveDuration(7 * ms)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp.StatusCode, body
}

func TestMetricsEndpointConformance(t *testing.T) {
	clk := &fakeClock{}
	c := obs.New(clk)
	c.SetScope("unit")
	addWork(c, clk)
	db := tsdb.New(c.Metrics(), clk, tsdb.Config{})
	db.Scrape()
	db.EventSeries("slo:burn", 16, obs.L("app", "llama")).Append(clk.t, 0.25)

	srv := NewServer()
	srv.attachDB("unit", db)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := obs.LintPrometheus(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails conformance lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		`tasks_total{app="llama",scope="unit"} 20`,
		`slo:burn{app="llama",scope="unit"} 0.25`,
		`task_latency_seconds_count{app="llama",scope="unit"} 20`,
	} {
		if !bytes.Contains(body, []byte(want+"\n")) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// countSink counts the spans a collector streams to it.
type countSink struct{ n int }

func (s *countSink) EmitSpan(*obs.Span) { s.n++ }

// TestSpansTailIsSnapshotPrefix attaches runs through Server.Attach: a
// streaming run gets a tail teed onto its own sink, and the tail's raw
// bytes are a prefix of the snapshot export; a snapshot run registers
// its store but gets no tail and stays a snapshot run unless the caller
// lets it stream, and then its tail renders as the run's TracePID.
func TestSpansTailIsSnapshotPrefix(t *testing.T) {
	srv := NewServer()

	// Streamed collector: Attach tees the tail onto its sink.
	clk1 := &fakeClock{}
	c1 := obs.New(clk1)
	c1.SetScope("unit")
	own := &countSink{}
	c1.SetSink(own)
	srv.Attach(false)(c1, nil)
	addWork(c1, clk1)
	c1.Close()
	tail := srv.tailFor("unit")
	if tail == nil {
		t.Fatal("streaming run got no tail")
	}

	// Snapshot run: store registered under its scope, no tail.
	clk3 := &fakeClock{}
	c3 := obs.New(clk3)
	c3.SetScope("snap")
	srv.Attach(false)(c3, tsdb.New(c3.Metrics(), clk3, tsdb.Config{}))
	if c3.Streaming() || srv.tailFor("snap") != nil {
		t.Fatal("Attach switched a snapshot run to streaming")
	}
	if dbs := srv.snapshotDBs(); len(dbs) != 1 || dbs[0].scope != "snap" {
		t.Fatalf("attached stores = %v, want one under scope snap", dbs)
	}

	// A snapshot run that may stream streams into its tail, rendered as
	// the process its TracePID names: the third of a three-run export.
	clk4 := &fakeClock{}
	c4 := obs.New(clk4)
	c4.SetScope("third")
	c4.SetTracePID(3)
	srv.Attach(true)(c4, nil)
	if !c4.Streaming() || srv.tailFor("third") == nil {
		t.Fatal("a run allowed to stream got no tail")
	}
	addWork(c4, clk4)
	c4.Close()
	clk5 := &fakeClock{}
	c5 := obs.New(clk5)
	c5.SetScope("third")
	addWork(c5, clk5)
	var wantThird bytes.Buffer
	if err := obs.WriteChromeTrace(&wantThird, nil, nil, c5); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	// Snapshot collector with the identical span stream.
	clk2 := &fakeClock{}
	c2 := obs.New(clk2)
	c2.SetScope("unit")
	addWork(c2, clk2)
	var want bytes.Buffer
	if err := obs.WriteChromeTrace(&want, c2); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, raw := get(t, ts, "/spans?scope=unit&format=raw")
	if code != http.StatusOK {
		t.Fatalf("/spans?format=raw status %d", code)
	}
	if len(raw) == 0 || !bytes.HasPrefix(want.Bytes(), raw) {
		t.Fatalf("raw tail (%d bytes) is not a prefix of the snapshot export (%d bytes)\ntail:\n%s",
			len(raw), want.Len(), raw)
	}
	// The tail covers everything up to the trailer: snapshot = tail + "\n]}\n".
	if got, wantLen := len(raw), want.Len()-4; got != wantLen {
		t.Fatalf("tail covers %d bytes, want %d (snapshot minus trailer)", got, wantLen)
	}
	if _, raw2 := get(t, ts, "/spans?scope=third&format=raw"); len(raw2) != wantThird.Len()-4 || !bytes.HasPrefix(wantThird.Bytes(), raw2) {
		t.Fatalf("pid-3 tail is not the snapshot export minus its trailer\ntail:\n%s\nexport:\n%s", raw2, wantThird.Bytes())
	}

	// Without a scope /spans answers from the first tail in scope order.
	_, first := get(t, ts, "/spans?scope=third")
	if _, unscoped := get(t, ts, "/spans"); !bytes.Equal(first, unscoped) {
		t.Fatal("/spans without a scope did not answer from the first tail in scope order")
	}

	// NDJSON mode (the default): every line is a standalone JSON object.
	code, nd := get(t, ts, "/spans?scope=unit")
	if code != http.StatusOK {
		t.Fatalf("/spans status %d", code)
	}
	lines := bytes.Split(bytes.TrimSpace(nd), []byte("\n"))
	if len(lines) < 20 {
		t.Fatalf("ndjson tail has %d lines, want >= 20", len(lines))
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("ndjson line %d not JSON: %v\n%s", i, err, line)
		}
		if _, ok := ev["ph"]; !ok {
			t.Fatalf("ndjson line %d has no ph field: %s", i, line)
		}
	}
	if n := tail.Spans(); n != 20 || own.n != 20 {
		t.Fatalf("tail saw %d spans and the run's own sink %d, want 20 each", n, own.n)
	}

	if code, _ := get(t, ts, "/spans?scope=bogus"); code != http.StatusNotFound {
		t.Fatalf("/spans?scope=bogus status %d, want 404", code)
	}
}

// seriesTestServer serves one store under scope "unit", scraped twice:
// after addWork, then 1 s later with ten more tasks counted.
func seriesTestServer() *httptest.Server {
	clk := &fakeClock{}
	c := obs.New(clk)
	addWork(c, clk) // advances clk per span; counter scraped below
	db := tsdb.New(c.Metrics(), clk, tsdb.Config{})
	db.Scrape()
	clk.t += time.Second
	c.Metrics().Counter("tasks_total", obs.L("app", "llama")).Add(10)
	db.Scrape()

	srv := NewServer()
	srv.attachDB("unit", db)
	return httptest.NewServer(srv.Handler())
}

func TestSeriesAPI(t *testing.T) {
	ts := seriesTestServer()
	defer ts.Close()

	var resp struct {
		OK      bool     `json:"ok"`
		Value   *float64 `json:"value"`
		Samples []any    `json:"samples"`
		Series  []any    `json:"series"`
		Error   string   `json:"error"`
	}
	query := func(path string, wantCode int) {
		t.Helper()
		code, body := get(t, ts, path)
		if code != wantCode {
			t.Fatalf("%s status %d, want %d: %s", path, code, wantCode, body)
		}
		resp = struct {
			OK      bool     `json:"ok"`
			Value   *float64 `json:"value"`
			Samples []any    `json:"samples"`
			Series  []any    `json:"series"`
			Error   string   `json:"error"`
		}{}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s bad JSON: %v\n%s", path, err, body)
		}
	}

	query("/api/series?name=tasks_total&app=llama", http.StatusOK)
	if !resp.OK || resp.Value == nil || *resp.Value != 30 {
		t.Fatalf("latest = %+v, want 30", resp)
	}
	query("/api/series?name=tasks_total&fn=rate&window=5s&app=llama", http.StatusOK)
	if !resp.OK || resp.Value == nil || *resp.Value != 10 {
		t.Fatalf("rate = %+v, want 10/s", resp)
	}
	query("/api/series?name=task_latency_seconds&fn=quantile&q=0.5&window=60s&app=llama", http.StatusOK)
	if !resp.OK || resp.Value == nil || *resp.Value <= 0 {
		t.Fatalf("quantile = %+v, want > 0", resp)
	}
	for _, q := range []string{"NaN", "0.5x", "1.5", "-0.1"} {
		query("/api/series?name=task_latency_seconds&fn=quantile&app=llama&q="+q, http.StatusBadRequest)
		if resp.Error == "" {
			t.Fatalf("q=%s should carry an error message", q)
		}
	}
	query("/api/series?name=tasks_total&fn=raw&app=llama", http.StatusOK)
	if !resp.OK || len(resp.Samples) != 2 {
		t.Fatalf("raw = %+v, want 2 samples", resp)
	}
	query("/api/series", http.StatusOK)
	if !resp.OK || len(resp.Series) == 0 {
		t.Fatalf("list = %+v, want series", resp)
	}
	query("/api/series?name=tasks_total&fn=bogus", http.StatusBadRequest)
	if resp.Error == "" {
		t.Fatal("bad fn should carry an error message")
	}
	query("/api/series?scope=unknown&name=x", http.StatusNotFound)
	if resp.Error == "" {
		t.Fatal("unknown scope should carry an error message")
	}
}

func TestProgressAndHealthz(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	p := srv.Progress()
	p.SetShards(2)
	p.SetPhase("running")
	p.ShardStarted(0)
	p.ShardStarted(1)
	p.TasksDone(64)
	p.ShardFinished(0)

	code, body := get(t, ts, "/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/progress bad JSON: %v\n%s", err, body)
	}
	if snap.Phase != "running" || snap.ShardsTotal != 2 || snap.ShardsDone != 1 ||
		snap.TasksDone != 64 || len(snap.ShardsRunning) != 1 || snap.ShardsRunning[0] != 1 {
		t.Fatalf("progress = %+v", snap)
	}

	p.ShardFinished(1)
	p.SetPhase("done")
	code, body = get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	if !strings.Contains(string(body), `"status":"ok"`) || !strings.Contains(string(body), `"phase":"done"`) {
		t.Fatalf("/healthz = %s", body)
	}

	// pprof is mounted.
	if code, _ = get(t, ts, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestServerStartClose(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz on %s: %v", addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still reachable after Close")
	}
}

// TestServerDropsStalledRequest: a client that sends half a request
// line and stalls is disconnected once the header timeout passes,
// instead of holding its connection open.
func TestServerDropsStalledRequest(t *testing.T) {
	prev := readHeaderTimeout
	readHeaderTimeout = 100 * ms
	defer func() { readHeaderTimeout = prev }()
	srv := NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 400 before hanging up; either way the read
	// must end at EOF, not at the client's own deadline.
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client still connected (read %q, err %v); want the server to hang up", reply, err)
	}
}
