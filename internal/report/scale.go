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
	// SampleMod enables deterministic span sampling: the trace keeps
	// ~1/SampleMod of task trees.
	SampleMod int
	// TracePath, when set, spills each shard's Chrome trace section to
	// a temp file during the run and splices them into one
	// Perfetto-loadable artifact at this path.
	TracePath string
	// Attach forwards to core.ScaleConfig.Attach and turns per-shard
	// tsdb stores on.
	Attach core.AttachFunc
	// Progress forwards to core.ScaleTelemetry.Progress.
	Progress core.ScaleProgress
	// Alerts, when set, renders each shard's end-of-run alert-rule
	// history (engine state + resolved incidents, shard order) to this
	// writer, turning per-shard tsdb stores on. Purely virtual:
	// byte-identical at any -parallel level.
	Alerts io.Writer
}

func (o ScaleOptions) config() core.ScaleConfig {
	return core.ScaleConfig{
		Tasks: o.Tasks, Shards: o.Shards, Workers: o.Workers, Window: o.Window,
		ArrivalRate: o.ArrivalRate, Seed: o.Seed, SampleMod: o.SampleMod,
	}.WithDefaults()
}

// discardSink enables streaming collection without keeping the spans:
// the run's counters are the artifact.
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
// the allocation proxy for peak memory). Every shard streams its spans
// to a sink as they end, so collection memory stays bounded at any
// task count.
func Scale(w io.Writer, opts ScaleOptions) error {
	bw := bufio.NewWriter(w)
	header(bw, "Million-task throughput — sharded open-loop scenario")
	cfg := opts.config()
	res, wall, err := runScale(cfg, opts)
	if err != nil {
		return err
	}
	writeScaleRun(bw, cfg, res, wall)
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

// runScale executes the scenario, timing it and measuring allocation
// deltas. Each shard streams into a discarding sink or, with a trace
// path, into its own trace section spilled to a temp file as the run
// progresses; the files are spliced into the final artifact afterwards.
func runScale(cfg core.ScaleConfig, opts ScaleOptions) (*core.ScaleResult, scaleWall, error) {
	cfg.TSDB = opts.Attach != nil || opts.Alerts != nil
	cfg.Attach = opts.Attach
	if opts.Progress != nil {
		cfg.Telemetry = &core.ScaleTelemetry{Progress: opts.Progress}
	}
	var wall scaleWall
	var files []*os.File
	var writers []*bufio.Writer
	var sections []*obs.TraceSection
	defer func() {
		for _, f := range files {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	cfg.Sinks = make([]obs.SpanSink, cfg.Shards)
	for i := range cfg.Sinks {
		if opts.TracePath == "" {
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
	if opts.TracePath == "" {
		return res, wall, nil
	}
	for i, sec := range sections {
		if err := sec.Err(); err != nil {
			return nil, wall, err
		}
		if err := writers[i].Flush(); err != nil {
			return nil, wall, err
		}
	}
	out, err := os.Create(opts.TracePath)
	if err != nil {
		return nil, wall, err
	}
	defer out.Close() // error paths; the success path checks Close below
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
	if err := out.Close(); err != nil {
		return nil, wall, err
	}
	return res, wall, nil
}

// writeScaleRun renders one run: config echo, deterministic virtual
// lines, then wall-clock lines.
func writeScaleRun(w io.Writer, cfg core.ScaleConfig, res *core.ScaleResult, wall scaleWall) {
	c := cfg.WithDefaults()
	fmt.Fprintf(w, "config: tasks=%d shards=%d workers=%d window=%d arrival=%.0f/s seed=%d sample_mod=%d\n",
		res.Tasks, len(res.Shards), c.Workers, c.Window, c.ArrivalRate, c.Seed, c.SampleMod)
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
