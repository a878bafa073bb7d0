package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// attachProbe is an Attach hook recording what each call saw. Scale
// shards call it from parallel harness workers.
type attachProbe struct {
	mu    sync.Mutex
	calls []attachCall
}

type attachCall struct {
	c         *obs.Collector
	scope     string
	pid       int
	spans     int
	streaming bool
	db        *tsdb.DB
}

func (p *attachProbe) attach(c *obs.Collector, db *tsdb.DB) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls = append(p.calls, attachCall{c, c.Scope(), c.TracePID(), c.Len(), c.Streaming(), db})
}

// TestAttachContract holds every run assembler to the AttachFunc
// contract: one call per run, after the run's own sink is in place and
// its scope and trace pid are final, before its first span, with a
// store exactly when one was requested.
func TestAttachContract(t *testing.T) {
	stream := func(c *obs.Collector) { c.SetSink(&countSink{}) }
	storeIf := func(on bool) *tsdb.Config {
		if on {
			return &tsdb.Config{}
		}
		return nil
	}
	cases := []struct {
		name   string
		scopes []string // one per run, in scope order, which is trace pid order
		sink   bool     // the assembler installs a sink before Attach
		stores []bool   // store requests to run with
		run    func(store bool, attach AttachFunc) error
	}{
		{"multiplex", []string{"multiplex/timeshare/p1"}, false, []bool{false, true},
			func(store bool, attach AttachFunc) error {
				_, err := RunMultiplex(MultiplexConfig{
					Mode: ModeTimeshare, Processes: 1, Completions: 2,
					TSDB: storeIf(store), Attach: attach,
				})
				return err
			}},
		{"phase-shift", []string{"phaseshift/mps"}, false, []bool{false, true},
			func(store bool, attach AttachFunc) error {
				_, err := RunPhaseShift(PhaseShiftConfig{
					Mode: ModeMPS, HeavyCompletions: 2, LightCompletions: 1, PhaseAt: 5 * time.Second,
					TSDB: storeIf(store), Attach: attach,
				})
				return err
			}},
		{"scale shard", []string{"scale/shard0", "scale/shard1"}, true, []bool{false, true},
			func(store bool, attach AttachFunc) error {
				_, err := RunMillionTask(ScaleConfig{
					Tasks: 200, Shards: 2, Sinks: []obs.SpanSink{&countSink{}, &countSink{}},
					TSDB: store, Attach: attach,
				})
				return err
			}},
		{"fleet cell", []string{"fleet"}, true, []bool{false, true},
			func(store bool, attach AttachFunc) error {
				_, err := RunFleet(FleetConfig{
					GPUs80: 2, GPUs40: 2, Apps: 4, Duration: 30 * time.Second,
					OnCollector: stream, TSDB: storeIf(store), Attach: attach,
				})
				return err
			}},
		// The autoscale cell always has a store: its controller reads it.
		{"autoscale cell", []string{"autoscale"}, true, []bool{true},
			func(_ bool, attach AttachFunc) error {
				cfg := AutoscaleConfig{GPUs: 2, OnCollector: stream, Attach: attach}.WithDefaults()
				cfg.Traffic.Horizon = 5 * time.Minute
				_, err := RunAutoscale(cfg)
				return err
			}},
	}
	for _, tc := range cases {
		for _, store := range tc.stores {
			t.Run(fmt.Sprintf("%s/store=%v", tc.name, store), func(t *testing.T) {
				var p attachProbe
				if err := tc.run(store, p.attach); err != nil {
					t.Fatal(err)
				}
				slices.SortFunc(p.calls, func(a, b attachCall) int { return strings.Compare(a.scope, b.scope) })
				var scopes []string
				for i, call := range p.calls {
					scopes = append(scopes, call.scope)
					if now := call.c.Scope(); now != call.scope {
						t.Errorf("Attach saw scope %q, the run ended as %q", call.scope, now)
					}
					if now := call.c.TracePID(); call.pid != i+1 || now != call.pid {
						t.Errorf("%s: Attach saw trace pid %d, the run ended as %d, want %d", call.scope, call.pid, now, i+1)
					}
					if call.spans != 0 {
						t.Errorf("%s: Attach ran after %d spans", call.scope, call.spans)
					}
					if call.streaming != tc.sink {
						t.Errorf("%s: streaming at Attach = %v, want %v", call.scope, call.streaming, tc.sink)
					}
					if (call.db != nil) != store {
						t.Errorf("%s: store attached = %v, requested %v", call.scope, call.db != nil, store)
					}
				}
				if !slices.Equal(scopes, tc.scopes) {
					t.Fatalf("Attach called for %v, want once each for %v", scopes, tc.scopes)
				}
			})
		}
	}
}
