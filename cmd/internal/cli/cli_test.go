package cli

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/live"
)

// The flag sets the commands bind: paperbench's paper grid, its scale
// artifact (fleet and autoscale bind the same minus Sample), and
// gpufaas multiplex.
const (
	paperGrid  = Exports
	paperScale = Exports | RulePack | Sample
	multiplex  = Exports | Single
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
		{"single, rule-pack alerts", RulePack | Single, []string{"-alerts", "a.txt"}, false, true},
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
// under -serve, or for a rule pack's -alerts; SLO -alerts needs none.
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
		{"rule-pack alerts", RulePack | Single, []string{"-alerts", "a.txt"}, false, true},
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

type discard struct{}

func (discard) EmitSpan(*obs.Span) {}

type fakeClock struct{}

func (fakeClock) Now() time.Duration { return 0 }
