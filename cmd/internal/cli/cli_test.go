package cli

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/live"
)

func parse(t *testing.T, set Set, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Bind(fs, "test", set)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		set     Set
		args    []string
		wantErr string
	}{
		{All, []string{"-sample", "4"}, "-sample requires -stream"},
		{All, []string{"-stream", "-sample", "4"}, ""},
		{All, []string{"-alerts", "a.txt"}, "-alerts requires -slo"},
		{All, []string{"-alerts", "a.txt", "-slo", "app:1s:0.9"}, ""},
		{All | RulePack, []string{"-alerts", "a.txt"}, ""},
		{All, []string{"-slo", "app:1s:NaN"}, "-slo:"},
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
// every streaming run, and on a Single command also a snapshot run
// whose retained spans no export reads, which Attach switches to
// streaming. Any other snapshot run stays one.
func TestAttachTailPolicy(t *testing.T) {
	if parse(t, All).Attach() != nil {
		t.Fatal("Attach without -serve must be nil, so no store is requested")
	}
	for _, tc := range []struct {
		name    string
		set     Set
		args    []string
		streams bool // the run streams before Attach
		tail    bool
	}{
		{"grid snapshot", All | RulePack, nil, false, false},
		{"grid streaming", All | RulePack, []string{"-stream"}, true, true},
		{"single, no export", All | Single, nil, false, true},
		{"single, metrics only", All | Single, []string{"-metrics", "m.prom"}, false, true},
		{"single, snapshot trace", All | Single, []string{"-trace", "t.json"}, false, false},
		{"single, streamed trace", All | Single, []string{"-stream", "-trace", "t.json"}, true, true},
		{"single, attribution", All | Single, []string{"-attrib", "a.json"}, false, false},
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
		{"plain", All | Single, nil, false, false},
		{"serve", All | Single, nil, true, true},
		{"slo alerts", All | Single, []string{"-slo", "app:1s:0.9", "-alerts", "a.txt"}, false, false},
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
