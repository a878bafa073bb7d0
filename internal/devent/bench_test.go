package devent

import (
	"testing"
	"time"
)

// BenchmarkScheduleDrain measures raw event throughput.
func BenchmarkScheduleDrain(b *testing.B) {
	env := NewEnv()
	for i := 0; i < b.N; i++ {
		env.Schedule(time.Duration(i), func() {})
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSleepLoop measures proc context-switch cost.
func BenchmarkProcSleepLoop(b *testing.B) {
	env := NewEnv()
	env.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnExit measures a short-lived proc's whole life — spawn,
// first handoff, exit — awaited by a long-lived driver through an
// event the child fires last.
func BenchmarkSpawnExit(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	var done *Event
	body := func(*Proc) { done.Fire(nil) }
	b.ReportAllocs()
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			done = env.NewEvent()
			env.Spawn("child", body)
			p.Wait(done)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStepAwait measures what a task's launch pays devent per
// attempt: a scheduled Step awaits an event with Then, and a long-lived
// driver fires the event, queueing the Step again.
func BenchmarkStepAwait(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	s := &awaitStep{}
	b.ReportAllocs()
	env.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s.ev = env.NewEvent()
			env.ScheduleStep(0, s)
			p.Sleep(0) // the step runs and awaits
			s.ev.Fire(nil)
			p.Sleep(0) // the step resumes
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	if s.resumed != b.N {
		b.Fatalf("step resumed %d times, want %d", s.resumed, b.N)
	}
}

// BenchmarkSameInstantHandoff measures the same-instant path: two
// procs hand control back and forth through an Event without the clock
// moving, so every queue item (the wakeup and the zero-delay Sleep) is
// due at Now().
func BenchmarkSameInstantHandoff(b *testing.B) {
	env := NewEnv()
	defer env.Close()
	b.ReportAllocs()
	var ev *Event
	env.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ev = env.NewEvent()
			p.Wait(ev)
		}
	})
	env.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ev.Fire(nil)
			p.Sleep(0)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
	if env.Now() != 0 {
		b.Fatalf("clock moved to %v", env.Now())
	}
}

// BenchmarkQueuePingPong measures a hand-off between two procs that
// each wait on an empty queue for the other's Put.
func BenchmarkQueuePingPong(b *testing.B) {
	env := NewEnv()
	ping := NewQueue[int](env)
	pong := NewQueue[int](env)
	env.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	env.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Get(p)
			pong.Put(i)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerCancelRetention measures the schedule+cancel churn of
// a long-lived env (the open-loop pattern: per-kernel finish timers
// rescheduled on every share change) and asserts the queue stays
// bounded instead of retaining every cancelled item until its
// far-future deadline. Retained items are counted in both lanes.
func BenchmarkTimerCancelRetention(b *testing.B) {
	env := NewEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tm := env.Schedule(time.Duration(i+1)*time.Hour, func() {})
		tm.Cancel()
		if n := len(env.queue) + env.ready.len(); n > 2*compactThreshold {
			b.Fatalf("queue grew to %d cancelled items at i=%d", n, i)
		}
	}
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventFanout measures waking many waiters at once.
func BenchmarkEventFanout(b *testing.B) {
	const waiters = 64
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		ev := env.NewEvent()
		for w := 0; w < waiters; w++ {
			env.Spawn("w", func(p *Proc) { p.Wait(ev) })
		}
		env.Schedule(time.Second, func() { ev.Fire(nil) })
		if err := env.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventWaitSteady measures the steady-state future pattern —
// one proc repeatedly awaiting a freshly fired event on a long-lived
// env. The proc's handoff is the event's waiter, so waiting allocates
// nothing: 3 allocs/op, 152 B/op (the Event, the Schedule closure and
// the Timer handle).
func BenchmarkEventWaitSteady(b *testing.B) {
	env := NewEnv()
	b.ReportAllocs()
	env.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ev := env.NewEvent()
			env.Schedule(time.Microsecond, func() { ev.Fire(nil) })
			p.Wait(ev)
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventFanoutSteady is EventFanout on a long-lived env: the
// same 64 procs repeatedly block on a fresh event, so per-iteration
// cost is the fanout itself without proc-spawn churn. Each proc's
// handoff is stored as a Step in the event's waiters slice and one
// pooled fanout Step is queued once: 8 allocs/op, 2,272 B/op (the Event
// and the seven growths of its 63-entry waiters slice).
func BenchmarkEventFanoutSteady(b *testing.B) {
	const waiters = 64
	env := NewEnv()
	b.ReportAllocs()
	ev := env.NewEvent()
	gate := NewQueue[int](env)
	for w := 0; w < waiters; w++ {
		env.Spawn("w", func(p *Proc) {
			for {
				cur := ev
				if _, err := p.Wait(cur); err != nil {
					return
				}
				gate.Put(1)
			}
		})
	}
	env.Spawn("driver", func(p *Proc) {
		p.Sleep(time.Millisecond) // let every waiter park on round 0
		for i := 0; i < b.N; i++ {
			cur := ev
			ev = env.NewEvent()
			cur.Fire(nil)
			for n := 0; n < waiters; n++ {
				gate.Get(p)
			}
			p.Sleep(time.Millisecond) // waiters re-park on the new event
		}
		ev.Fail(ErrClosed)
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
