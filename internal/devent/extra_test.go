package devent

import (
	"errors"
	"testing"
	"time"
)

func TestScheduleFromCallback(t *testing.T) {
	env := NewEnv()
	var order []int
	env.Schedule(time.Second, func() {
		order = append(order, 1)
		env.Schedule(time.Second, func() { order = append(order, 2) })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || env.Now() != 2*time.Second {
		t.Fatalf("order=%v now=%v", order, env.Now())
	}
}

// A stale Timer handle, whose item fired and went back to the pool,
// cancels nothing when the item is reused, whichever kind of work
// reuses it: a callback, a ScheduleStep Step or a proc's Sleep wakeup.
// The reused item holds live work when the stale Cancel runs, so the
// item's generation is all that tells the two apart.
func TestStaleTimerHandleAfterReuse(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reuse func(env *Env, log *[]string)
	}{
		{"callback", func(env *Env, log *[]string) {
			env.Schedule(time.Second, func() { *log = append(*log, "callback") })
		}},
		{"step", func(env *Env, log *[]string) {
			env.ScheduleStep(time.Second, &logStep{"step", log})
		}},
		// The spawn's handoff takes the item, and the proc's Sleep takes
		// it again once the handoff has run.
		{"sleep", func(env *Env, log *[]string) {
			env.Spawn("sleeper", func(p *Proc) {
				p.Sleep(time.Second)
				*log = append(*log, "sleep")
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv()
			stale := env.Schedule(time.Second, func() {})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			// stale's item is now on the free list; tc.reuse takes it.
			var log []string
			tc.reuse(env, &log)
			env.Schedule(0, func() {
				if stale.item.dead() {
					t.Error("the recycled item holds no pending work")
				}
				if stale.Cancel() || stale.Active() {
					t.Error("stale handle cancelled or reported a recycled item")
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if len(log) != 1 || log[0] != tc.name {
				t.Fatalf("log = %v, want [%s]", log, tc.name)
			}
		})
	}
}

func TestCancelledTimerCompaction(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay func(i int) time.Duration
	}{
		{"future", func(i int) time.Duration { return time.Duration(i+1) * time.Hour }},
		{"now", func(int) time.Duration { return 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := NewEnv()
			const n = 4096
			timers := make([]*Timer, n)
			for i := range timers {
				timers[i] = env.Schedule(tc.delay(i), func() {})
			}
			for _, tm := range timers {
				tm.Cancel()
			}
			// Compaction triggers once cancelled items exceed half of
			// both lanes; after cancelling everything they must be
			// (near) empty, not retaining n dead items until their
			// deadlines pop.
			if got := len(env.queue) + env.ready.len(); got > compactThreshold {
				t.Fatalf("queue retains %d cancelled items (want <= %d)", got, compactThreshold)
			}
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if env.Now() != 0 {
				t.Fatalf("cancelled timers advanced the clock to %v", env.Now())
			}
		})
	}
}

func TestEventFailNilError(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	ev.Fail(nil) // must synthesize an error rather than store nil
	if ev.Err() == nil {
		t.Fatal("nil error stored")
	}
}

func TestProcNameAndEnvAccessors(t *testing.T) {
	env := NewEnv()
	p := env.Spawn("worker", func(*Proc) {})
	if p.Name() == "" {
		t.Fatal("empty name")
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReentrantRunErrors(t *testing.T) {
	env := NewEnv()
	var innerErr error
	env.Schedule(0, func() { innerErr = env.Run() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if innerErr == nil {
		t.Fatal("re-entrant Run accepted")
	}
}

func TestDeadlockErrorListsProcs(t *testing.T) {
	env := NewEnv()
	ev := env.NewEvent()
	env.Spawn("alpha", func(p *Proc) { p.Wait(ev) })
	env.Spawn("beta", func(p *Proc) { p.Wait(ev) })
	err := env.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
	msg := err.Error()
	if !contains(msg, "alpha") || !contains(msg, "beta") {
		t.Fatalf("message lacks proc names: %s", msg)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
