package devent

import (
	"testing"
	"time"
)

// exitObserver records the virtual time at which the last proc exited.
type exitObserver struct {
	env    *Env
	exitAt time.Duration
}

func (o *exitObserver) ProcSpawned() {}
func (o *exitObserver) ProcExited()  { o.exitAt = o.env.Now() }
func (o *exitObserver) Dispatched()  {}

// TestTickerStop pins each case of Ticker.Stop with a 1 s ticker: the
// ticks that run, the instant the ticker's proc exits, and the events
// dispatched, of which every tick costs two (its timer and its
// handoff) on top of the proc's start and the events each row's
// program adds.
func TestTickerStop(t *testing.T) {
	cases := []struct {
		name string
		// hold is how long each tick blocks.
		hold time.Duration
		// arm schedules stop, or calls it at once.
		arm    func(env *Env, stop func())
		ticks  int
		exitAt time.Duration
		events int64
	}{
		{
			// The stop callback queues the handoff that wakes the
			// parked proc: start + 2 ticks + stop + wakeup.
			name:  "parked",
			arm:   func(env *Env, stop func()) { env.Schedule(2500*time.Millisecond, stop) },
			ticks: 2, exitAt: 2500 * time.Millisecond, events: 1 + 4 + 1 + 1,
		},
		{
			// The first tick, 1 s to 1.5 s, is running at 1.2 s: it
			// completes and the proc returns without arming. start +
			// 1 tick + its sleep's wakeup + stop.
			name:  "inside a tick",
			hold:  500 * time.Millisecond,
			arm:   func(env *Env, stop func()) { env.Schedule(1200*time.Millisecond, stop) },
			ticks: 1, exitAt: 1500 * time.Millisecond, events: 1 + 2 + 1 + 1,
		},
		{
			// Stop, queued at 1.5 s for 2 s, runs after the 2 s timer
			// and before the handoff it queued: the due tick still
			// runs. start + 2 ticks + the two scheduling callbacks.
			name: "tick due at the same instant",
			arm: func(env *Env, stop func()) {
				env.Schedule(1500*time.Millisecond, func() { env.Schedule(500*time.Millisecond, stop) })
			},
			ticks: 2, exitAt: 2 * time.Second, events: 1 + 4 + 2,
		},
		{
			name:  "before the proc first runs",
			arm:   func(_ *Env, stop func()) { stop() },
			ticks: 0, exitAt: 0, events: 1,
		},
		{
			// A 2.5 s tick spans two tick times; the next is armed a
			// full period after it ends (1 s, 4.5 s), with no catch-up.
			// start + 2 ticks + 2 sleep wakeups + stop.
			name:  "tick blocking across a later tick time",
			hold:  2500 * time.Millisecond,
			arm:   func(env *Env, stop func()) { env.Schedule(5*time.Second, stop) },
			ticks: 2, exitAt: 7 * time.Second, events: 1 + 4 + 2 + 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv()
			o := &exitObserver{env: env, exitAt: -1}
			env.SetObserver(o)
			ticks := 0
			tk := env.Every("ticker", time.Second, func(p *Proc) {
				ticks++
				if tc.hold > 0 {
					p.Sleep(tc.hold)
				}
			})
			tc.arm(env, func() {
				if !tk.Stop() {
					t.Error("first Stop reported a stopped ticker")
				}
				if tk.Stop() {
					t.Error("second Stop reported a running ticker")
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if ticks != tc.ticks || o.exitAt != tc.exitAt || env.EventsDispatched() != tc.events {
				t.Fatalf("ticks %d, exit at %v, %d events; want %d, %v, %d",
					ticks, o.exitAt, env.EventsDispatched(), tc.ticks, tc.exitAt, tc.events)
			}
		})
	}
	var nilTicker *Ticker
	if nilTicker.Stop() {
		t.Fatal("Stop on a nil Ticker reported a running ticker")
	}
}

// A warm tick cycle — timer, handoff, tick, re-arm — allocates
// nothing: the ticker re-arms its own Timer with a callback bound once.
func TestTickerAllocs(t *testing.T) {
	const runs = 100
	env := NewEnv()
	ticks := 0
	tk := env.Every("ticker", time.Second, func(*Proc) { ticks++ })
	var got float64
	env.Spawn("driver", func(p *Proc) {
		p.Sleep(1500 * time.Millisecond) // one warm tick
		got = testing.AllocsPerRun(runs, func() { p.Sleep(time.Second) })
		tk.Stop()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != runs+2 { // AllocsPerRun adds a warm-up run
		t.Fatalf("%d ticks, want %d", ticks, runs+2)
	}
	if got != 0 {
		t.Fatalf("tick cycle: %v allocs, want 0", got)
	}
}
