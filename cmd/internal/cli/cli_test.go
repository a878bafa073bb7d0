package cli

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/live"
	"repro/internal/report"
)

// The flag sets the commands bind: paperbench's paper grid, its scale
// artifact, its fleet and autoscale artifacts, and gpufaas multiplex
// and repart.
const (
	paperGrid     = Exports
	paperScale    = Trace | Sample | RulePack
	paperScenario = RulePack
	multiplex     = Exports | Single
)

func bind(set Set, args ...string) (*Flags, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs, "test", set)
	return f, fs.Parse(args)
}

func parse(t *testing.T, set Set, args ...string) *Flags {
	t.Helper()
	f, err := bind(set, args...)
	if err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

// TestBoundFlags pins the telemetry flags each command set binds. A
// flag its run would ignore is not bound, so the commands' ExitOnError
// flag sets reject it with exit 2.
func TestBoundFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  Set
		want []string
	}{
		{"paperbench grid", paperGrid, []string{"alerts", "attrib", "flame", "metrics", "serve", "slo", "trace"}},
		{"paperbench scale", paperScale, []string{"alerts", "sample", "serve", "trace"}},
		{"paperbench fleet/autoscale", paperScenario, []string{"alerts", "serve"}},
		{"gpufaas multiplex/repart", multiplex, []string{"alerts", "attrib", "flame", "metrics", "serve", "slo", "trace"}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		Bind(fs, "test", tc.set)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s binds %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSampleOnlyOnScale pins that -sample exists only where a run
// samples a sink: on paperbench scale. Anywhere else it is an undefined
// flag, which the commands' ExitOnError flag sets turn into exit 2.
func TestSampleOnlyOnScale(t *testing.T) {
	for _, tc := range []struct {
		name    string
		set     Set
		defined bool
	}{
		{"paperbench scale", paperScale, true},
		{"paperbench fig4", paperGrid, false},
		{"gpufaas multiplex", multiplex, false},
	} {
		f, err := bind(tc.set, "-sample", "4")
		switch {
		case tc.defined && (err != nil || f.Sample != 4):
			t.Errorf("%s: -sample 4 gave Sample=%d, err %v", tc.name, f.Sample, err)
		case !tc.defined && (err == nil || !strings.Contains(err.Error(), "not defined: -sample")):
			t.Errorf("%s: -sample parse error %v, want an undefined flag", tc.name, err)
		}
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		set     Set
		args    []string
		wantErr string
	}{
		{paperScale, []string{"-sample", "4", "-trace", "t.json"}, ""},
		{paperGrid, []string{"-alerts", "a.txt"}, "-alerts requires -slo"},
		{paperGrid, []string{"-alerts", "a.txt", "-slo", "app:1s:0.9"}, ""},
		{paperScale, []string{"-alerts", "a.txt"}, ""},
		{paperGrid, []string{"-slo", "app:1s:NaN"}, "-slo:"},
	} {
		err := parse(t, tc.set, tc.args...).validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestAttachTailPolicy pins which runs get a /spans tail under -serve:
// every streaming run (paperbench scale, fleet and autoscale always
// stream), and on a Single command also a snapshot run whose retained
// spans no export reads, which Attach switches to streaming. Any other
// snapshot run stays one.
func TestAttachTailPolicy(t *testing.T) {
	if parse(t, paperGrid).Attach() != nil {
		t.Fatal("Attach without -serve must be nil, so no store is requested")
	}
	for _, tc := range []struct {
		name    string
		set     Set
		args    []string
		streams bool // the run streams before Attach
		tail    bool
	}{
		{"grid snapshot", paperGrid, nil, false, false},
		{"grid streaming", paperScale, []string{"-trace", "t.json"}, true, true},
		{"single, no export", multiplex, nil, false, true},
		{"single, metrics only", multiplex, []string{"-metrics", "m.prom"}, false, true},
		{"single, snapshot trace", multiplex, []string{"-trace", "t.json"}, false, false},
		{"single, attribution", multiplex, []string{"-attrib", "a.json"}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := parse(t, tc.set, tc.args...)
			f.srv = live.NewServer()
			c := obs.New(fakeClock{})
			c.SetScope("run")
			if tc.streams {
				c.SetSink(discard{})
			}
			f.Attach()(c, nil)
			rec := httptest.NewRecorder()
			f.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/spans?scope=run", nil))
			if got := rec.Code == http.StatusOK; got != tc.tail {
				t.Errorf("tail = %v (status %d), want %v", got, rec.Code, tc.tail)
			}
			if c.Streaming() != tc.tail {
				t.Errorf("run streams = %v after Attach, want %v", c.Streaming(), tc.tail)
			}
		})
	}
}

// TestStoreRequest pins when a Single command's run asks for a store:
// under -serve only; SLO -alerts needs none.
func TestStoreRequest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		set   Set
		args  []string
		serve bool
		want  bool
	}{
		{"plain", multiplex, nil, false, false},
		{"serve", multiplex, nil, true, true},
		{"slo alerts", multiplex, []string{"-slo", "app:1s:0.9", "-alerts", "a.txt"}, false, false},
	} {
		f := parse(t, tc.set, tc.args...)
		if tc.serve {
			f.srv = live.NewServer()
		}
		if got := f.TSDB() != nil; got != tc.want {
			t.Errorf("%s: store requested = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestObserve pins when a command instruments its runs for Export: a
// snapshot file is requested. A rule-pack scenario streams its -trace
// and writes its own -alerts, so it never does.
func TestObserve(t *testing.T) {
	for _, tc := range []struct {
		set  Set
		args []string
		want bool
	}{
		{paperGrid, nil, false},
		{paperGrid, []string{"-metrics", "m.prom"}, true},
		{paperGrid, []string{"-slo", "app:1s:0.9", "-alerts", "a.txt"}, true},
		{multiplex, []string{"-flame", "f.folded"}, true},
		{multiplex, []string{"-serve", "127.0.0.1:0"}, false},
		{paperScale, []string{"-trace", "t.json", "-alerts", "a.txt"}, false},
		{paperScenario, []string{"-alerts", "a.txt"}, false},
	} {
		if got := parse(t, tc.set, tc.args...).Observe(); got != tc.want {
			t.Errorf("%v: Observe = %v, want %v", tc.args, got, tc.want)
		}
	}
}

// TestExportParallelDeterminism extends the harness determinism
// contract to every file Export writes from the instrumented grid —
// trace, metrics, attribution JSON, folded stacks and the SLO alert
// stream — and to the tracediff JSON read back from the attribution:
// all must be byte-identical at any worker count.
func TestExportParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full instrumented grid in -short mode")
	}
	const slo = "llama-complete:10s:0.9"
	files := []string{"trace", "metrics", "attrib", "flame", "alerts"}
	render := func(workers int) map[string][]byte {
		prev := harness.SetParallelism(workers)
		defer harness.SetParallelism(prev)
		cs, err := report.ObservedCollectors(2, slo)
		if err != nil {
			t.Fatalf("ObservedCollectors with %d workers: %v", workers, err)
		}
		dir := t.TempDir()
		args := []string{"-slo", slo}
		for _, name := range files {
			args = append(args, "-"+name, filepath.Join(dir, name))
		}
		if err := parse(t, paperGrid, args...).Export(cs...); err != nil {
			t.Fatalf("Export with %d workers: %v", workers, err)
		}
		out := map[string][]byte{}
		for _, name := range files {
			if out[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := analyze.ReadReport(bytes.NewReader(out["attrib"]))
		if err != nil {
			t.Fatalf("re-reading attribution JSON: %v", err)
		}
		byScope := func(scope string) *analyze.Report {
			sub := &analyze.Report{}
			for _, ta := range rep.Tasks {
				if ta.Scope == scope {
					sub.Tasks = append(sub.Tasks, ta)
				}
			}
			return sub
		}
		var dw bytes.Buffer
		d := analyze.Diff(byScope("table1/timeshare"), byScope("table1/mps"), "timeshare", "mps")
		if err := d.WriteJSON(&dw); err != nil {
			t.Fatal(err)
		}
		out["tracediff"] = dw.Bytes()
		return out
	}
	seq, par := render(1), render(4)
	for _, name := range append(files, "tracediff") {
		if len(seq[name]) == 0 {
			t.Errorf("%s: sequential export is empty", name)
		}
		if !bytes.Equal(seq[name], par[name]) {
			t.Errorf("%s differs between 1 and 4 workers (%d vs %d bytes)", name, len(seq[name]), len(par[name]))
		}
	}
}

type discard struct{}

func (discard) EmitSpan(*obs.Span) {}

type fakeClock struct{}

func (fakeClock) Now() time.Duration { return 0 }
