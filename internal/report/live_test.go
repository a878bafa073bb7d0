package report

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/live"
)

// TestScaleShardTailsMatchTraceSections runs a traced scale
// artifact on parallel shards under the live server: each shard's raw
// /spans tail must be exactly that shard's section of the -trace
// export, whatever order the shards attached in. The trace splices the
// sections in shard order, dropping only the first one's separator
// comma, so header + tail0 + "," + tail1 + ... + trailer rebuilds it.
func TestScaleShardTailsMatchTraceSections(t *testing.T) {
	prev := harness.SetParallelism(4)
	defer harness.SetParallelism(prev)
	const shards = 4
	for round := range 3 {
		srv := live.NewServer()
		path := filepath.Join(t.TempDir(), "scale.json")
		opts := ScaleOptions{
			Tasks: 1200, Shards: shards, Seed: 3,
			TracePath: path, Attach: srv.Attach(false),
		}
		if err := Scale(&bytes.Buffer{}, opts); err != nil {
			t.Fatal(err)
		}
		artifact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := []byte(obs.TraceHeader)
		for i := range shards {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/spans?scope=scale/shard%d&format=raw", i), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d shard %d: /spans status %d: %s", round, i, rec.Code, rec.Body)
			}
			body := bytes.TrimPrefix(rec.Body.Bytes(), []byte(obs.TraceHeader))
			if i > 0 {
				want = append(want, ',')
			}
			want = append(want, body...)
		}
		if !bytes.HasPrefix(artifact, want) || len(artifact)-len(want) != len("\n]}\n") {
			t.Fatalf("round %d: shard tails do not rebuild the trace export:\n%s", round, firstDiff(artifact, want))
		}
	}
}
