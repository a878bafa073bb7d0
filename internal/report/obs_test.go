package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
)

// obsEvent mirrors the Chrome trace-event fields validated here. Span
// ids in args are JSON numbers; attribute values are strings.
type obsEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Cat  string         `json:"cat"`
	Name string         `json:"name"`
	Args map[string]any `json:"args"`
}

// TestObservabilitySchema runs the instrumented experiment grid at a
// tiny completion count and validates the exported artifacts: the
// trace must be well-formed Chrome trace JSON whose parent references
// resolve within their process, and the Prometheus text must expose
// the metric families the paper tables cite.
func TestObservabilitySchema(t *testing.T) {
	if testing.Short() {
		t.Skip("full instrumented grid in -short mode")
	}
	collectors, err := ObservedCollectors(2, "")
	if err != nil {
		t.Fatal(err)
	}
	var tr, pr bytes.Buffer
	if err := obs.WriteChromeTrace(&tr, collectors...); err != nil {
		t.Fatal(err)
	}
	if err := obs.WritePrometheus(&pr, collectors...); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	// Collect span ids per pid, then check every parent reference
	// resolves to a span in the same process.
	type ref struct {
		pid    int
		parent float64
		name   string
	}
	ids := map[int]map[float64]bool{}
	var refs []ref
	cats := map[string]int{}
	for i, raw := range doc.TraceEvents {
		var e obsEvent
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if e.Ph != "X" {
			continue
		}
		cats[e.Cat]++
		if e.Dur < 0 || e.Ts < 0 {
			t.Fatalf("negative timestamp in event %d: %+v", i, e)
		}
		id, ok := e.Args["id"].(float64)
		if !ok {
			t.Fatalf("event %d has no numeric id: %+v", i, e)
		}
		if ids[e.Pid] == nil {
			ids[e.Pid] = map[float64]bool{}
		}
		ids[e.Pid][id] = true
		if p, ok := e.Args["parent"].(float64); ok {
			refs = append(refs, ref{e.Pid, p, e.Name})
		}
	}
	for _, r := range refs {
		if !ids[r.pid][r.parent] {
			t.Errorf("span %q in pid %d references unknown parent %v", r.name, r.pid, r.parent)
		}
	}
	for _, cat := range []string{"dfk", "htex", "simgpu"} {
		if cats[cat] == 0 {
			t.Errorf("no %q spans in trace (cats = %v)", cat, cats)
		}
	}

	prom := pr.String()
	for _, fam := range []string{
		"# TYPE faas_tasks_completed_total counter",
		"# TYPE faas_task_run_seconds histogram",
		"# TYPE htex_workers_live gauge",
		"# TYPE simgpu_domain_busy_sms gauge",
		"# TYPE simgpu_domain_context_switches_total counter",
		"# TYPE devent_events_dispatched_total counter",
	} {
		if !strings.Contains(prom, fam) {
			t.Errorf("metrics output missing %q", fam)
		}
	}
	// Scope labels distinguish the grid cells and the Table 1 runs.
	for _, scope := range []string{`scope="fig45/mps/p4"`, `scope="table1/mig"`} {
		if !strings.Contains(prom, scope) {
			t.Errorf("metrics output missing %q", scope)
		}
	}
}

// TestTraceParallelMatchesSequential extends the harness determinism
// contract to the observability artifacts: trace and metrics exports
// of ObservedCollectors must be byte-identical at any worker count.
func TestTraceParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full instrumented grid in -short mode")
	}
	render := func(workers int) ([]byte, []byte) {
		prev := harness.SetParallelism(workers)
		defer harness.SetParallelism(prev)
		cs, err := ObservedCollectors(2, "")
		if err != nil {
			t.Fatalf("ObservedCollectors with %d workers: %v", workers, err)
		}
		var tr, pr bytes.Buffer
		if err := obs.WriteChromeTrace(&tr, cs...); err != nil {
			t.Fatal(err)
		}
		if err := obs.WritePrometheus(&pr, cs...); err != nil {
			t.Fatal(err)
		}
		return tr.Bytes(), pr.Bytes()
	}
	seqT, seqP := render(1)
	if len(seqT) == 0 || len(seqP) == 0 {
		t.Fatal("sequential artifacts are empty")
	}
	parT, parP := render(4)
	if !bytes.Equal(seqT, parT) {
		t.Fatalf("parallel trace differs from sequential (%d vs %d bytes):\n%s",
			len(parT), len(seqT), firstDiff(seqT, parT))
	}
	if !bytes.Equal(seqP, parP) {
		t.Fatalf("parallel metrics differ from sequential:\n%s", firstDiff(seqP, parP))
	}
}
