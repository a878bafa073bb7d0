package obs_test

import (
	"io"
	"testing"
	"time"

	"repro/internal/devent"
	"repro/internal/obs"
)

// BenchmarkProcSleepLoopObserved is devent's BenchmarkProcSleepLoop
// with a collector installed as the Env observer: the per-event cost of
// live scheduler counters. Compare against the devent package baseline
// to bound the observer overhead.
func BenchmarkProcSleepLoopObserved(b *testing.B) {
	env := devent.NewEnv()
	env.SetObserver(obs.New(env))
	env.Spawn("sleeper", func(p *devent.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueuePingPongObserved mirrors devent's
// BenchmarkQueuePingPong under an installed observer.
func BenchmarkQueuePingPongObserved(b *testing.B) {
	env := devent.NewEnv()
	env.SetObserver(obs.New(env))
	ping := devent.NewQueue[int](env)
	pong := devent.NewQueue[int](env)
	env.Spawn("a", func(p *devent.Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(i)
			pong.Get(p, nil)
		}
	})
	env.Spawn("b", func(p *devent.Proc) {
		for i := 0; i < b.N; i++ {
			ping.Get(p, nil)
			pong.Put(i)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNilCollectorSpan measures the disabled-instrumentation fast
// path: all span calls on a nil collector are a nil check.
func BenchmarkNilCollectorSpan(b *testing.B) {
	var c *obs.Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := c.StartSpan("cat", "name", "track", 0)
		c.EndSpan(id)
	}
}

// BenchmarkNilInstruments measures pre-resolved nil instruments (the
// pattern hot paths use when no collector is attached).
func BenchmarkNilInstruments(b *testing.B) {
	var cnt *obs.Counter
	var g *obs.Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cnt.Inc()
		g.Set(float64(i))
	}
}

// BenchmarkSpanLifecycle measures the enabled snapshot span path:
// StartSpan + EndSpan with no exporter attached. The retained slice
// grows by ~500 B/op — snapshot collection memory scales with span
// count (see retained-spans).
func BenchmarkSpanLifecycle(b *testing.B) {
	env := devent.NewEnv()
	c := obs.New(env)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := c.StartSpan("htex", "run", "w0", 0)
		c.EndSpan(id)
	}
	b.ReportMetric(float64(c.MaxRetained()), "retained-spans")
}

// BenchmarkSpanLifecycleStreamed measures the streaming span path:
// StartSpan + EndSpan with a TraceSection exporter attached, each span
// rendered and released as its flush frontier passes. The retained
// window and the section's render buffer are both recycled, so
// collection memory stays flat no matter how many spans the run
// records.
func BenchmarkSpanLifecycleStreamed(b *testing.B) {
	env := devent.NewEnv()
	c := obs.New(env)
	c.SetSink(obs.NewTraceSection(io.Discard, 1, "bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := c.StartSpan("htex", "run", "w0", 0)
		c.EndSpan(id)
	}
	b.ReportMetric(float64(c.MaxRetained()), "retained-spans")
}

// BenchmarkSpanLifecycleSampledOut measures the streaming path when
// sampling drops the span: the cheapest instrumented configuration
// (span recorded for listeners and leak checks, never rendered).
func BenchmarkSpanLifecycleSampledOut(b *testing.B) {
	env := devent.NewEnv()
	c := obs.New(env)
	c.SetSink(obs.NewTraceSection(io.Discard, 1, "bench"))
	// "w1" hashes to a nonzero residue mod 1<<20, so every span drops.
	c.SetSampleMod(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := c.StartSpan("htex", "run", "w1", 0)
		c.EndSpan(id)
	}
}

// BenchmarkCounterInc measures a pre-resolved live counter increment —
// the steady-state cost instrumented hot paths pay per event (the
// registry lookup happens once, outside the loop).
func BenchmarkCounterInc(b *testing.B) {
	env := devent.NewEnv()
	c := obs.New(env)
	cnt := c.Metrics().Counter("bench_events_total", obs.L("src", "bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cnt.Inc()
	}
	if cnt.Value() != float64(b.N) {
		b.Fatal("count mismatch")
	}
}

// BenchmarkCounterLookup measures resolving an existing labelled
// counter by name, as per-task completion paths do on every call.
func BenchmarkCounterLookup(b *testing.B) {
	env := devent.NewEnv()
	m := obs.New(env).Metrics()
	m.Counter("tasks_total", obs.L("app", "micro"), obs.L("status", "done")).Inc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Counter("tasks_total", obs.L("status", "done"), obs.L("app", "micro")).Inc()
	}
}
