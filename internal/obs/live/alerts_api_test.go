package live

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// twoScopeServer builds a server with two attached DBs ("beta" holds
// depth=7, "alpha" holds depth=3) attached in reverse-lexicographic
// order to prove the serving order is sorted, not insertion order.
func twoScopeServer(t *testing.T) (*Server, *tsdb.DB, *tsdb.DB) {
	t.Helper()
	mk := func(v float64) *tsdb.DB {
		clk := &fakeClock{}
		reg := obs.NewRegistry()
		db := tsdb.New(reg, clk, tsdb.Config{Capacity: 16})
		reg.Gauge("depth").Set(v)
		clk.t = time.Second
		db.Scrape()
		return db
	}
	dbB, dbA := mk(7), mk(3)
	srv := NewServer()
	srv.attachDB("beta", dbB)
	srv.attachDB("alpha", dbA)
	return srv, dbA, dbB
}

// Satellite: fn=raw must reject malformed from/to instead of silently
// reading them as 0.
func TestSeriesRawRejectsBadFromTo(t *testing.T) {
	srv, _, _ := twoScopeServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/api/series?scope=alpha&name=depth&fn=raw&from=abc",
		"/api/series?scope=alpha&name=depth&fn=raw&to=12parsecs",
	} {
		code, body := get(t, ts, path)
		if code != http.StatusBadRequest {
			t.Fatalf("%s status = %d, want 400\n%s", path, code, body)
		}
		var resp struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || resp.Error == "" {
			t.Fatalf("%s error body = %q err=%v", path, body, err)
		}
	}
	// Well-formed offsets still answer.
	code, body := get(t, ts, "/api/series?scope=alpha&name=depth&fn=raw&from=0s&to=10s")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok":true`) {
		t.Fatalf("valid raw query status=%d body=%s", code, body)
	}
}

// Satellite: with several DBs attached and no scope parameter, the
// server answers from the lexicographically-first scope and names it
// in the response — deterministic no matter the attachment order,
// including concurrent attachDB from parallel harness workers.
func TestSeriesAmbiguousScopeDeterministic(t *testing.T) {
	srv, _, _ := twoScopeServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/api/series?name=depth")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp struct {
		Scope string   `json:"scope"`
		Value *float64 `json:"value"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scope != "alpha" {
		t.Fatalf("chosen scope = %q, want alpha (sorted first; attached second)", resp.Scope)
	}
	if resp.Value == nil || *resp.Value != 3 {
		t.Fatalf("value = %v, want alpha's 3", resp.Value)
	}

	// Concurrent attachment: whatever the interleaving, the winner of
	// the no-scope query is the lexicographic minimum.
	for trial := 0; trial < 10; trial++ {
		srv2 := NewServer()
		clk := &fakeClock{t: time.Second}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				reg := obs.NewRegistry()
				db := tsdb.New(reg, clk, tsdb.Config{Capacity: 4})
				reg.Gauge("cell").Set(float64(i))
				db.Scrape()
				srv2.attachDB(fmt.Sprintf("cell/%d", i), db)
			}()
		}
		wg.Wait()
		ts2 := httptest.NewServer(srv2.Handler())
		_, body := get(t, ts2, "/api/series?name=cell")
		ts2.Close()
		var r2 struct {
			Scope string   `json:"scope"`
			Value *float64 `json:"value"`
		}
		if err := json.Unmarshal(body, &r2); err != nil {
			t.Fatal(err)
		}
		if r2.Scope != "cell/0" || r2.Value == nil || *r2.Value != 0 {
			t.Fatalf("trial %d: scope=%q value=%v, want cell/0 value 0", trial, r2.Scope, r2.Value)
		}
	}
}

func TestSeriesFederation(t *testing.T) {
	srv, _, _ := twoScopeServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/api/series?scope=*&name=depth")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp struct {
		OK      bool `json:"ok"`
		Results []struct {
			Scope string   `json:"scope"`
			OK    bool     `json:"ok"`
			Value *float64 `json:"value"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Results) != 2 {
		t.Fatalf("federated response = %s", body)
	}
	if resp.Results[0].Scope != "alpha" || resp.Results[1].Scope != "beta" {
		t.Fatalf("scope order = %q,%q, want alpha,beta", resp.Results[0].Scope, resp.Results[1].Scope)
	}
	if *resp.Results[0].Value != 3 || *resp.Results[1].Value != 7 {
		t.Fatalf("values = %v,%v, want 3,7", *resp.Results[0].Value, *resp.Results[1].Value)
	}

	// A series only one scope holds: ok=true overall, per-scope misses
	// are ok=false entries, not errors.
	_, body = get(t, ts, "/api/series?scope=*&name=nope")
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || len(resp.Results) != 2 || resp.Results[0].OK {
		t.Fatalf("federated miss = %s", body)
	}
	// Parameter errors fail the whole federated request.
	code, _ = get(t, ts, "/api/series?scope=*&name=depth&fn=raw&from=zzz")
	if code != http.StatusBadRequest {
		t.Fatalf("federated bad from status = %d, want 400", code)
	}
	// No-name federation lists every scope's series.
	_, body = get(t, ts, "/api/series?scope=*")
	var listResp struct {
		Results []struct {
			Scope  string            `json:"scope"`
			Series []tsdb.SeriesInfo `json:"series"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &listResp); err != nil {
		t.Fatal(err)
	}
	if len(listResp.Results) != 2 || len(listResp.Results[0].Series) == 0 {
		t.Fatalf("federated list = %s", body)
	}
}

func TestScopesEndpoint(t *testing.T) {
	srv, dbA, _ := twoScopeServer(t)
	dbA.AddAlert(tsdb.AlertRule{Name: "hot", Series: "depth", Threshold: 1})
	dbA.Scrape() // evaluates the rule: depth=3 >= 1 → firing
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/api/scopes")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var scopes []scopeInfo
	if err := json.Unmarshal(body, &scopes); err != nil {
		t.Fatal(err)
	}
	if len(scopes) != 2 || scopes[0].Scope != "alpha" || scopes[1].Scope != "beta" {
		t.Fatalf("scopes = %s", body)
	}
	if scopes[0].Series == 0 || scopes[0].LastNS == 0 {
		t.Fatalf("alpha info = %+v", scopes[0])
	}
	if scopes[0].AlertsFiring != 1 || scopes[1].AlertsFiring != 0 {
		t.Fatalf("firing counts = %d,%d, want 1,0", scopes[0].AlertsFiring, scopes[1].AlertsFiring)
	}
}

func TestAlertsEndpoint(t *testing.T) {
	srv, dbA, dbB := twoScopeServer(t)
	a := dbA.AddAlert(tsdb.AlertRule{Name: "hot", Series: "depth", Threshold: 1})
	dbA.Scrape()               // firing
	a.Resolve(2 * time.Second) // one incident in history
	dbB.AddAlert(tsdb.AlertRule{Name: "cold", Series: "depth", Threshold: 1, Below: true})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/api/alerts")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var all []scopeAlerts
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].Scope != "alpha" || all[1].Scope != "beta" {
		t.Fatalf("alerts scopes = %s", body)
	}
	if len(all[0].Alerts) != 1 || all[0].Alerts[0].Name != "hot" || all[0].Alerts[0].State != "inactive" {
		t.Fatalf("alpha alerts = %+v", all[0].Alerts)
	}
	if len(all[0].Alerts[0].Incidents) != 1 {
		t.Fatalf("alpha incidents = %+v", all[0].Alerts[0].Incidents)
	}
	if len(all[1].Alerts) != 1 || all[1].Alerts[0].Name != "cold" {
		t.Fatalf("beta alerts = %+v", all[1].Alerts)
	}

	// Scope filter and unknown scope.
	_, body = get(t, ts, "/api/alerts?scope=beta")
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Scope != "beta" {
		t.Fatalf("filtered alerts = %s", body)
	}
	code, _ = get(t, ts, "/api/alerts?scope=nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown scope status = %d, want 404", code)
	}
}

func TestDashboardServed(t *testing.T) {
	srv, _, _ := twoScopeServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q", ct)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, dashboardHTML); err != nil {
		t.Fatal(err)
	}
	// The page is self-contained: no external scripts or stylesheets.
	html := sb.String()
	for _, banned := range []string{"src=\"http", "href=\"http", "cdn.", "googleapis"} {
		if strings.Contains(html, banned) {
			t.Fatalf("dashboard references an external asset: %q", banned)
		}
	}
	for _, want := range []string{"/api/scopes", "/api/alerts", "/api/series", "<svg", "polyline"} {
		if !strings.Contains(html, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
}
