package core

import (
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
)

// countSink counts streamed spans and discards them.
type countSink struct{ n int }

func (cs *countSink) EmitSpan(*obs.Span) { cs.n++ }

func scaleTestConfig() ScaleConfig {
	return ScaleConfig{Tasks: 4000, Shards: 4, Workers: 8, Window: 32, Seed: 7}
}

// TestRunMillionTaskDeterministic locks the sharding contract: every
// virtual field of the result is identical at any parallelism level.
func TestRunMillionTaskDeterministic(t *testing.T) {
	run := func() *ScaleResult {
		res, err := RunMillionTask(scaleTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	defer harness.SetParallelism(harness.SetParallelism(1))
	seq := run()
	harness.SetParallelism(4)
	par := run()
	if !reflect.DeepEqual(seq.Shards, par.Shards) {
		t.Fatalf("shard results differ across parallelism:\nseq: %+v\npar: %+v", seq.Shards, par.Shards)
	}
	if seq.Events != par.Events || seq.Spans != par.Spans || seq.Makespan != par.Makespan {
		t.Fatalf("aggregates differ: seq=%+v par=%+v", seq, par)
	}
	if got := seq.Latencies.N(); got != seq.Tasks {
		t.Fatalf("want %d latency samples, got %d", seq.Tasks, got)
	}
	if p50s, p50p := seq.Latencies.Percentile(50), par.Latencies.Percentile(50); p50s != p50p {
		t.Fatalf("p50 differs across parallelism: %v vs %v", p50s, p50p)
	}
	if seq.Events == 0 || seq.Spans == 0 || seq.Makespan == 0 {
		t.Fatalf("implausible result: %+v", seq)
	}
}

// TestRunMillionTaskStreamingBounded checks the tentpole memory claim:
// with per-shard sinks the collector's retained-window high-water mark
// is a small fraction of the span count, and the virtual simulation is
// unchanged by streaming.
func TestRunMillionTaskStreamingBounded(t *testing.T) {
	snap, err := RunMillionTask(scaleTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := scaleTestConfig()
	sinks := make([]*countSink, cfg.Shards)
	cfg.Sinks = make([]obs.SpanSink, cfg.Shards)
	for i := range sinks {
		sinks[i] = &countSink{}
		cfg.Sinks[i] = sinks[i]
	}
	str, err := RunMillionTask(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Streaming must not perturb the simulation itself.
	if snap.Events != str.Events || snap.Spans != str.Spans || snap.Makespan != str.Makespan {
		t.Fatalf("streaming changed the run: snap=%+v str=%+v", snap, str)
	}
	// Snapshot retention is linear in span count; streaming retention
	// is bounded by the in-flight window.
	for i, sr := range str.Shards {
		if sr.MaxRetained*4 > sr.Spans {
			t.Fatalf("shard %d: streaming retained %d of %d spans — not bounded", i, sr.MaxRetained, sr.Spans)
		}
	}
	if snap.MaxRetained <= str.MaxRetained {
		t.Fatalf("snapshot high-water %d not above streaming %d", snap.MaxRetained, str.MaxRetained)
	}
	// Every span except the pinned worker daemons reaches the sinks.
	var streamed int
	for _, cs := range sinks {
		streamed += cs.n
	}
	if int64(streamed) > str.Spans || int64(streamed) < str.Spans/2 {
		t.Fatalf("sinks saw %d spans of %d", streamed, str.Spans)
	}
}

// TestRunMillionTaskSampling checks deterministic sampling: with
// SampleMod set, the sink sees a strict subset, and two identical runs
// stream identical counts.
func TestRunMillionTaskSampling(t *testing.T) {
	run := func() (int, *ScaleResult) {
		cfg := scaleTestConfig()
		cfg.SampleMod = 4
		sinks := make([]*countSink, cfg.Shards)
		cfg.Sinks = make([]obs.SpanSink, cfg.Shards)
		for i := range sinks {
			sinks[i] = &countSink{}
			cfg.Sinks[i] = sinks[i]
		}
		res, err := RunMillionTask(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var n int
		for _, cs := range sinks {
			n += cs.n
		}
		return n, res
	}
	n1, res1 := run()
	n2, _ := run()
	if n1 != n2 {
		t.Fatalf("sampled stream not deterministic: %d vs %d spans", n1, n2)
	}
	if int64(n1)*2 >= res1.Spans {
		t.Fatalf("SampleMod=4 kept %d of %d spans — sampling ineffective", n1, res1.Spans)
	}
}

// Only app bodies run on coroutines: the htex worker loop and the
// arrival driver are devent Steps, so a scale task resumes a proc
// twice, once when its app starts and once when its Compute ends,
// plus one resume for the shard. The event and resume counts are
// pinned exactly: a dispatch slot that moves changes them.
func TestScaleResumesPerTask(t *testing.T) {
	const tasks = 20000
	res, err := RunMillionTask(ScaleConfig{Tasks: tasks, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d resumes, %.3f per task, %d events", res.Resumes, float64(res.Resumes)/tasks, res.Events)
	if res.Events != 130234 || res.Resumes != 40001 {
		t.Fatalf("%d events, %d resumes; want 130234, 40001", res.Events, res.Resumes)
	}
	if res.Resumes != res.Shards[0].Resumes {
		t.Fatalf("run resumes %d, shard resumes %d", res.Resumes, res.Shards[0].Resumes)
	}
}
