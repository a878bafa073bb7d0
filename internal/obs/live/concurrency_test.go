package live

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// TestConcurrentClientsDuringRun serves a running simulation to eight
// clients at once. The run scrapes its store every virtual second and
// evaluates an alert rule; it is attached through Server.Attach, as
// the CLIs attach theirs. Each client keeps fetching series queries
// (latest, rate, raw and scope=*), /metrics and /api/alerts until the
// run ends. Every reply must be 200 with a well-formed body. The run
// pauses halfway until every client has finished one round, so each
// round overlaps it.
func TestConcurrentClientsDuringRun(t *testing.T) {
	const clients = 8
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	env := devent.NewEnv()
	c := obs.New(env)
	c.SetScope("run")
	reg := c.Metrics()
	db := tsdb.New(reg, env, tsdb.Config{Capacity: 64})
	db.AddAlert(tsdb.AlertRule{Name: "deep-queue", Series: "queue_depth", Threshold: 10})
	srv.Attach(false)(c, db)

	var firstRound sync.WaitGroup
	firstRound.Add(clients)
	done := make(chan struct{})
	runErr := make(chan error, 1)
	go func() {
		defer close(done)
		db.Start(env)
		depth := reg.Gauge("queue_depth")
		tasks := reg.Counter("tasks_total", obs.L("app", "llama"))
		lat := reg.Histogram("task_latency_seconds", obs.DefLatencyBuckets, obs.L("app", "llama"))
		env.Spawn("load", func(p *devent.Proc) {
			for i := 0; i < 4000; i++ {
				if i == 2000 {
					firstRound.Wait()
				}
				p.Sleep(100 * time.Millisecond)
				depth.Set(float64(i % 13))
				tasks.Inc()
				lat.ObserveDuration(time.Duration(i%7) * 10 * time.Millisecond)
			}
			db.Stop()
		})
		runErr <- env.Run()
	}()

	paths := []string{
		"/api/series?scope=run&name=queue_depth",
		"/api/series?scope=run&name=tasks_total&fn=rate&window=10s&app=llama",
		"/api/series?scope=run&name=queue_depth&fn=raw",
		"/api/series?scope=*&name=tasks_total&fn=rate&app=llama",
		"/metrics",
		"/api/alerts",
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; ; round++ {
				for _, path := range paths {
					if err := fetchChecked(ts, path); err != "" {
						t.Errorf("round %d: %s", round, err)
					}
				}
				if round == 0 {
					firstRound.Done()
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	// The rule must have fired and resolved during the run, so the
	// clients read a changing alert history, not a constant one.
	if st := db.AlertStatuses(); len(st) != 1 || len(st[0].Incidents) == 0 {
		t.Fatalf("alert statuses after %d scrapes: %+v, want resolved incidents", db.Scrapes(), st)
	}
}

// fetchChecked GETs path and describes what is wrong with the reply,
// or returns "" for a 200 whose body is valid JSON (valid Prometheus
// text for /metrics). It never calls t.Fatal, so clients may run it.
func fetchChecked(ts *httptest.Server, path string) string {
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		return path + ": " + err.Error()
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return path + ": read: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		return path + ": status " + resp.Status + ": " + string(body)
	case path == "/metrics":
		if err := obs.LintPrometheus(bytes.NewReader(body)); err != nil {
			return path + ": " + err.Error()
		}
	case !json.Valid(body):
		return path + ": invalid JSON: " + string(body)
	}
	return ""
}
