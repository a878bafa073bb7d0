package live

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// FuzzSeriesQuery sends arbitrary raw query strings to /api/series on a
// server with one scraped store. Whatever the query, the answer is 200,
// 400 or 404 with a JSON body: malformed parameters never escape as a
// panic, a 500, or a non-JSON error page.
func FuzzSeriesQuery(f *testing.F) {
	// The queries TestSeriesAPI issues, plus its rejected q values.
	for _, q := range []string{
		"name=tasks_total&app=llama",
		"name=tasks_total&fn=rate&window=5s&app=llama",
		"name=task_latency_seconds&fn=quantile&q=0.5&window=60s&app=llama",
		"name=task_latency_seconds&fn=quantile&app=llama&q=NaN",
		"name=task_latency_seconds&fn=quantile&app=llama&q=0.5x",
		"name=tasks_total&fn=raw&app=llama",
		"",
		"name=tasks_total&fn=bogus",
		"scope=unknown&name=x",
		"scope=*&name=tasks_total&fn=max",
		"name=tasks_total&fn=raw&from=1s&to=bad",
	} {
		f.Add(q)
	}
	ts := seriesTestServer()
	defer ts.Close()
	f.Fuzz(func(t *testing.T, raw string) {
		// Bytes a client cannot put in a request target never reach the
		// handler; net/http rejects those requests itself.
		for i := 0; i < len(raw); i++ {
			if b := raw[i]; b <= ' ' || b >= 0x7f || b == '#' {
				t.Skip()
			}
		}
		resp, err := ts.Client().Get(ts.URL + "/api/series?" + raw)
		if err != nil {
			t.Fatalf("GET ?%s: %v", raw, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET ?%s read: %v", raw, err)
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("?%s: status %d\n%s", raw, resp.StatusCode, body)
		}
		if !json.Valid(body) {
			t.Fatalf("?%s: body is not JSON:\n%s", raw, body)
		}
	})
}
