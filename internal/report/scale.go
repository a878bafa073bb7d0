package report

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// ScaleOptions parameterizes the million-task throughput artifact.
// Zero values take the core.ScaleConfig defaults.
type ScaleOptions struct {
	Tasks, Shards, Workers, Window int
	ArrivalRate                    float64
	Seed                           int64
	// SampleMod enables deterministic span sampling in streaming mode
	// (kept task trees ~1/SampleMod).
	SampleMod int
	// Stream runs with per-shard streaming sinks (bounded collection
	// memory); false keeps the snapshot collector.
	Stream bool
	// Compare runs the scenario twice — snapshot then streaming — and
	// reports both, plus the events/sec delta. Implies Stream for the
	// second run.
	Compare bool
	// TracePath, when set with Stream, spills each shard's Chrome
	// trace section to a temp file during the run and splices them into
	// one Perfetto-loadable artifact at this path.
	TracePath string
	// Attach forwards to core.ScaleConfig.Attach and turns per-shard
	// tsdb stores on. With Compare it attaches to the streaming run
	// only (attaching the same shard scopes twice would double-register
	// them), and so does Progress.
	Attach core.AttachFunc
	// Progress forwards to core.ScaleTelemetry.Progress.
	Progress core.ScaleProgress
	// Alerts, when set, renders each shard's end-of-run alert-rule
	// history (engine state + resolved incidents, shard order) to this
	// writer, turning per-shard tsdb stores on. With Compare the shards
	// reported are the streaming run's. Purely virtual: byte-identical
	// at any -parallel level and under -stream.
	Alerts io.Writer
}

func (o ScaleOptions) config() core.ScaleConfig {
	return core.ScaleConfig{
		Tasks: o.Tasks, Shards: o.Shards, Workers: o.Workers, Window: o.Window,
		ArrivalRate: o.ArrivalRate, Seed: o.Seed, SampleMod: o.SampleMod,
	}.WithDefaults()
}

// discardSink enables streaming collection without retaining the
// rendered spans (the scenario's counters are the artifact).
type discardSink struct{}

func (discardSink) EmitSpan(*obs.Span) {}

// scaleWall holds the wall-clock side of one run. These numbers vary
// run to run; everything in core.ScaleResult is virtual and
// deterministic. Determinism tests must only assert the latter.
type scaleWall struct {
	elapsed    time.Duration
	allocs     uint64 // heap objects allocated during the run
	allocBytes uint64 // bytes allocated during the run
}

func (w scaleWall) eventsPerSec(events int64) float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(events) / w.elapsed.Seconds()
}

// Scale runs the million-task scenario and writes the throughput
// artifact: the deterministic virtual results ("virtual:" and
// "shard N:" lines, byte-identical at any -parallel level) followed by
// wall-clock measurements ("wall:" lines — elapsed, events/sec, and
// the allocation proxy for peak memory).
func Scale(w io.Writer, opts ScaleOptions) error {
	bw := bufio.NewWriter(w)
	header(bw, "Million-task throughput — sharded open-loop scenario")
	cfg := opts.config()
	if opts.Compare {
		snapRes, snapWall, err := runScale(cfg, ScaleOptions{}, false)
		if err != nil {
			return err
		}
		writeScaleRun(bw, "snapshot", cfg, snapRes, snapWall)
		strRes, strWall, err := runScale(cfg, opts, true)
		if err != nil {
			return err
		}
		fmt.Fprintln(bw)
		writeScaleRun(bw, "streaming", cfg, strRes, strWall)
		snapEPS, strEPS := snapWall.eventsPerSec(snapRes.Events), strWall.eventsPerSec(strRes.Events)
		fmt.Fprintln(bw)
		fmt.Fprintf(bw, "compare: events_per_sec snapshot=%.0f streaming=%.0f speedup=%+.1f%%\n",
			snapEPS, strEPS, 100*(strEPS/snapEPS-1))
		fmt.Fprintf(bw, "compare: retained_high_water snapshot=%d streaming=%d\n",
			snapRes.MaxRetained, strRes.MaxRetained)
		fmt.Fprintf(bw, "compare: alloc_bytes snapshot=%d streaming=%d\n",
			snapWall.allocBytes, strWall.allocBytes)
		if err := writeScaleAlerts(opts.Alerts, strRes); err != nil {
			return err
		}
		return bw.Flush()
	}
	mode := "snapshot"
	if opts.Stream {
		mode = "streaming"
	}
	res, wall, err := runScale(cfg, opts, opts.Stream)
	if err != nil {
		return err
	}
	writeScaleRun(bw, mode, cfg, res, wall)
	if err := writeScaleAlerts(opts.Alerts, res); err != nil {
		return err
	}
	return bw.Flush()
}

// writeScaleAlerts renders each shard's alert history in shard order.
func writeScaleAlerts(w io.Writer, res *core.ScaleResult) error {
	if w == nil {
		return nil
	}
	for _, sr := range res.Shards {
		if err := tsdb.WriteAlertHistory(w, fmt.Sprintf("shard=%d ", sr.Shard), sr.TSDB); err != nil {
			return err
		}
	}
	return nil
}

// runScale executes one scenario run, timing it and measuring
// allocation deltas. In streaming mode with a trace path, each shard's
// section spills to its own temp file as the run progresses, and the
// files are spliced into the final artifact afterwards.
func runScale(cfg core.ScaleConfig, opts ScaleOptions, stream bool) (*core.ScaleResult, scaleWall, error) {
	tracePath := opts.TracePath
	cfg.TSDB = opts.Attach != nil || opts.Alerts != nil
	cfg.Attach = opts.Attach
	if opts.Progress != nil {
		cfg.Telemetry = &core.ScaleTelemetry{Progress: opts.Progress}
	}
	var wall scaleWall
	var files []*os.File
	var writers []*bufio.Writer
	var sections []*obs.TraceSection
	if stream {
		cfg = cfg.WithDefaults()
		cfg.Sinks = make([]obs.SpanSink, cfg.Shards)
		for i := range cfg.Sinks {
			if tracePath == "" {
				cfg.Sinks[i] = discardSink{}
				continue
			}
			f, err := os.CreateTemp("", "scale-shard-*.trace")
			if err != nil {
				return nil, wall, err
			}
			files = append(files, f)
			fw := bufio.NewWriterSize(f, 1<<20)
			writers = append(writers, fw)
			sec := obs.NewTraceSection(fw, i+1, fmt.Sprintf("scale/shard%d", i))
			sections = append(sections, sec)
			cfg.Sinks[i] = sec
		}
		defer func() {
			for _, f := range files {
				f.Close()
				os.Remove(f.Name())
			}
		}()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := core.RunMillionTask(cfg)
	wall.elapsed = time.Since(t0)
	runtime.ReadMemStats(&after)
	wall.allocs = after.Mallocs - before.Mallocs
	wall.allocBytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return nil, wall, err
	}
	if stream && tracePath != "" {
		for i, sec := range sections {
			if err := sec.Err(); err != nil {
				return nil, wall, err
			}
			if err := writers[i].Flush(); err != nil {
				return nil, wall, err
			}
		}
		out, err := os.Create(tracePath)
		if err != nil {
			return nil, wall, err
		}
		defer out.Close()
		ts := obs.NewTraceStream(out)
		for _, f := range files {
			if _, err := f.Seek(0, io.SeekStart); err != nil {
				return nil, wall, err
			}
			if err := ts.Append(bufio.NewReaderSize(f, 1<<20)); err != nil {
				return nil, wall, err
			}
		}
		if err := ts.Close(); err != nil {
			return nil, wall, err
		}
	}
	return res, wall, nil
}

// writeScaleRun renders one run: config echo, deterministic virtual
// lines, then wall-clock lines.
func writeScaleRun(w io.Writer, mode string, cfg core.ScaleConfig, res *core.ScaleResult, wall scaleWall) {
	c := cfg.WithDefaults()
	fmt.Fprintf(w, "config: mode=%s tasks=%d shards=%d workers=%d window=%d arrival=%.0f/s seed=%d sample_mod=%d\n",
		mode, res.Tasks, len(res.Shards), c.Workers, c.Window, c.ArrivalRate, c.Seed, c.SampleMod)
	fmt.Fprintf(w, "virtual: events=%d spans=%d retained_high_water=%d makespan=%s\n",
		res.Events, res.Spans, res.MaxRetained, res.Makespan)
	fmt.Fprintf(w, "virtual: latency p50=%s p90=%s p99=%s max=%s\n",
		res.Latencies.Percentile(50), res.Latencies.Percentile(90),
		res.Latencies.Percentile(99), res.Latencies.Max())
	for _, sr := range res.Shards {
		fmt.Fprintf(w, "shard %d: tasks=%d events=%d spans=%d retained=%d makespan=%s\n",
			sr.Shard, sr.Tasks, sr.Events, sr.Spans, sr.MaxRetained, sr.Makespan)
	}
	fmt.Fprintf(w, "wall: elapsed=%s events_per_sec=%.0f\n", wall.elapsed.Round(time.Millisecond), wall.eventsPerSec(res.Events))
	fmt.Fprintf(w, "wall: allocs=%d alloc_bytes=%d\n", wall.allocs, wall.allocBytes)
}
