package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/tsdb"
	"repro/internal/report"
)

// workload is one set of inputs the benchmark runs. run builds the
// scenario from the seed, marks its run phase, checks the result and
// returns the run's virtual outcome. Why each workload was chosen is
// recorded in BENCHMARK.json and README.md.
type workload struct {
	name   string
	seeded bool // false: the seed does not reach the inputs
	run    func(sz sizes, seed int64, ph phase) (*outcome, error)
}

// phase bounds the measured run phase: start at the first simulated
// activity (the end of set-up), stop when the last timed call returns,
// before any checking.
type phase struct{ start, stop func() }

// workloads is the benchmark's fixed order; "all" runs them round-robin.
var workloads = []*workload{
	{"scale", true, runScale},
	{"fleet", true, runFleet},
	{"autoscale", true, runAutoscale},
	{"paper-observed", false, runPaper},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizes fixes how much work each workload does. fullSizes is the
// benchmark; the smoke test runs the same code paths at smokeSizes.
type sizes struct {
	scaleTasks       int
	fleetGPUs        int // of each part: A100-80GB and A100-40GB
	fleetHorizon     time.Duration
	fleetCells       int // cell seeds per fleet run
	autoscaleHorizon time.Duration
	completions      int
}

var (
	fullSizes  = sizes{200_000, 64, 10 * time.Minute, 16, 8 * time.Hour, 100}
	smokeSizes = sizes{2_000, 8, 2 * time.Minute, 2, 20 * time.Minute, 4}
)

// outcome is one run's virtual result. Everything except Host is
// deterministic in (workload, sizes, seed) and goes into Digest.
type outcome struct {
	Ops     int      // operations attempted
	Failed  int      // operations that ended in an error
	Refused int      // modelled admission refusals: shed requests, rejected tenants
	Broken  []string // violated invariants
	Digest  string

	// Raw counts the per-layer host costs are divided by.
	Events, Spans, Tasks int64
	// Virtual holds the per-layer metrics the run determines, by name.
	Virtual map[string]float64
	// Host holds host seconds of the public calls the workload times.
	Host map[string]float64
}

func newOutcome() *outcome {
	return &outcome{Virtual: map[string]float64{}, Host: map[string]float64{}}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.Broken = append(o.Broken, fmt.Sprintf(format, args...))
	}
}

// seal computes Digest over every virtual quantity plus extra.
func (o *outcome) seal(extra ...[]byte) {
	h := sha256.New()
	fmt.Fprintf(h, "ops=%d failed=%d refused=%d events=%d spans=%d tasks=%d\n",
		o.Ops, o.Failed, o.Refused, o.Events, o.Spans, o.Tasks)
	keys := make([]string, 0, len(o.Virtual))
	for k := range o.Virtual {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%.17g\n", k, o.Virtual[k])
	}
	for _, b := range extra {
		h.Write(b)
	}
	o.Digest = hex.EncodeToString(h.Sum(nil))
}

// latencies sets the virtual latency percentiles and returns the sorted
// samples' bytes for the digest.
func (o *outcome) latencies(d *metrics.Durations) []byte {
	o.Virtual["core.latency_p50_s"] = d.Percentile(50).Seconds()
	o.Virtual["core.latency_p99_s"] = d.Percentile(99).Seconds()
	s := slices.Clone(d.Samples())
	slices.Sort(s)
	b := make([]byte, 0, 8*len(s))
	for _, v := range s {
		b = fmt.Appendf(b, "%d,", int64(v))
	}
	return b
}

// workerTally discards streamed spans, counting worker lifecycles,
// each of which starts cold: the scale scenario exposes no registry to
// read the count from. Worker spans are pinned, so they arrive at Close.
type workerTally struct{ n int64 }

func (t *workerTally) EmitSpan(s *obs.Span) {
	if s.Cat == "htex" && s.Name == "worker" {
		t.n++
	}
}

// discardSink enables streaming collection without keeping any span.
type discardSink struct{}

func (discardSink) EmitSpan(*obs.Span) {}

// streamTo returns an OnCollector hook that streams spans to a
// discarding sink and calls start at every span, so at the first one,
// whether opened live or added retroactively (which fires only the end
// listeners).
func streamTo(start func()) func(*obs.Collector) {
	return func(c *obs.Collector) {
		c.SetSink(discardSink{})
		c.OnSpanStart(func(obs.Span) { start() })
		c.OnSpanEnd(func(obs.Span) { start() })
	}
}

// counterSum adds a counter family over every label set and collector.
func counterSum(cols []*obs.Collector, names ...string) float64 {
	var sum float64
	for _, c := range cols {
		c.Metrics().VisitSeries(func(name string, _ obs.Kind, inst any) {
			if ctr, ok := inst.(*obs.Counter); ok && slices.Contains(names, name) {
				sum += ctr.Value()
			}
		})
	}
	return sum
}

// registryCounts reads the per-layer counts every scenario's registry
// carries.
func registryCounts(o *outcome, cols []*obs.Collector, dbs ...*tsdb.DB) {
	o.Tasks = int64(counterSum(cols, "faas_tasks_submitted_total"))
	o.Virtual["faas.cold_starts"] = counterSum(cols, "htex_cold_starts_total")
	o.Virtual["faas.retries"] = counterSum(cols, "faas_task_retries_total")
	o.Virtual["simgpu.kernels"] = counterSum(cols, "simgpu_kernels_completed_total")
	o.Virtual["simgpu.context_switches"] = counterSum(cols, "simgpu_domain_context_switches_total")
	o.Virtual["tsdb.alert_transitions"] = counterSum(cols, "alert_pending_total", "alert_firing_total", "alert_resolved_total")
	var scrapes int64
	for _, db := range dbs {
		scrapes += db.Scrapes()
	}
	o.Virtual["tsdb.scrapes"] = float64(scrapes)
	retained := 0
	for _, c := range cols {
		o.Spans += int64(c.Len())
		retained = max(retained, c.MaxRetained())
	}
	o.Virtual["obs.retained_high_water"] = float64(retained)
}

// scaleProgress marks the end of set-up when the shard starts.
type scaleProgress struct{ start func() }

func (p scaleProgress) ShardStarted(int)  { p.start() }
func (p scaleProgress) TasksDone(int)     {}
func (p scaleProgress) ShardFinished(int) {}

// runScale is the open-loop microtask scenario on one shard; op = task.
func runScale(sz sizes, seed int64, ph phase) (*outcome, error) {
	sink := &workerTally{}
	cfg := core.ScaleConfig{
		Tasks: sz.scaleTasks, Shards: 1, Workers: 16, Window: 64,
		ArrivalRate: 8000, MeanService: 2 * time.Millisecond, Seed: seed,
		Sinks:     []obs.SpanSink{sink},
		Telemetry: &core.ScaleTelemetry{Progress: scaleProgress{ph.start}},
	}
	t0 := time.Now()
	res, err := core.RunMillionTask(cfg)
	ph.stop()
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.Host["core.sim_s"] = time.Since(t0).Seconds()
	o.Ops = cfg.Tasks
	o.Events, o.Spans, o.Tasks = res.Events, res.Spans, int64(res.Tasks)
	o.check(res.Latencies.N() == cfg.Tasks, "scale: %d latencies for %d tasks", res.Latencies.N(), cfg.Tasks)
	lat := o.latencies(res.Latencies)
	o.Virtual["core.makespan_s"] = res.Makespan.Seconds()
	// How far the generator fell behind its schedule: the in-flight
	// window throttles the open loop when the workers back up.
	o.Virtual["core.gen_late_frac"] = res.Makespan.Seconds()/(float64(cfg.Tasks)/cfg.ArrivalRate) - 1
	o.Virtual["obs.retained_high_water"] = float64(res.MaxRetained)
	o.Virtual["faas.cold_starts"] = float64(sink.n)
	o.seal(lat)
	return o, nil
}

// runFleet runs the fleet artifact's 1.5x load cell (the paperbench
// fleet defaults: 64+64 GPUs, 56 apps, 10 min horizon, at 3 tenants/s)
// once for each of sz.fleetCells consecutive cell seeds; op = tenant
// arrival. A cell's seed draws its 56-app demand mix, and with it
// whether the rebalancer's scratch solves succeed, so one cell's packer
// cost per arrival differs by up to 2x from the next seed's. Benchmark
// seed s covers cell seeds (s-1)*fleetCells+1 onwards, and its cost per
// arrival is their mean.
func runFleet(sz sizes, seed int64, ph phase) (*outcome, error) {
	t0 := time.Now()
	var results []*core.FleetResult
	for k := range sz.fleetCells {
		res, err := core.RunFleet(core.FleetConfig{
			GPUs80: sz.fleetGPUs, GPUs40: sz.fleetGPUs, Duration: sz.fleetHorizon, ArrivalRate: 3,
			Seed:        (seed-1)*int64(sz.fleetCells) + int64(k) + 1,
			TSDB:        &tsdb.Config{},
			OnCollector: streamTo(ph.start),
		})
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	ph.stop()
	o := newOutcome()
	o.Host["core.sim_s"] = time.Since(t0).Seconds()
	var cols []*obs.Collector
	var dbs []*tsdb.DB
	var placed, moved, samples int
	var frag, makespan float64
	var series []byte
	for _, res := range results {
		o.Ops += res.Arrivals
		o.Refused += res.Rejected
		o.Events += res.Events
		placed += res.Placed
		moved += res.Moved
		o.check(res.Placed+res.Rejected == res.Arrivals, "fleet: %d placed + %d rejected != %d arrivals", res.Placed, res.Rejected, res.Arrivals)
		o.check(res.FinalTenants == 0, "fleet: %d tenants left after drain", res.FinalTenants)
		o.check(res.FinalFrag == 0, "fleet: fragmentation %g left after drain", res.FinalFrag)
		cols, dbs = append(cols, res.Obs), append(dbs, res.TSDB)
		for _, p := range res.FragSeries {
			frag += p.Frag
		}
		samples += len(res.FragSeries)
		makespan += res.Makespan.Seconds()
		b, err := json.Marshal(res.FragSeries)
		if err != nil {
			return nil, err
		}
		series = append(series, b...)
	}
	registryCounts(o, cols, dbs...)
	o.Virtual["fleet.ops"] = counterSum(cols, "fleet_place_total", "fleet_evict_total", "fleet_rebalance_total")
	o.Virtual["fleet.rebalance_moved"] = float64(moved)
	o.Virtual["fleet.rejected"] = float64(o.Refused)
	if o.Ops > 0 {
		o.Virtual["fleet.attainment"] = float64(placed) / float64(o.Ops)
	}
	if samples > 0 {
		o.Virtual["fleet.frag_mean"] = frag / float64(samples)
	}
	o.Virtual["core.makespan_s"] = makespan
	o.seal(series)
	return o, nil
}

// runAutoscale is the autoscaled serving cell under 8 h of the default
// diurnal traffic; op = request arrival.
func runAutoscale(sz sizes, seed int64, ph phase) (*outcome, error) {
	cfg := core.AutoscaleConfig{Seed: seed, DrainHold: 10 * time.Minute}.WithDefaults()
	cfg.Traffic.Horizon = sz.autoscaleHorizon
	cfg.OnCollector = streamTo(ph.start)
	t0 := time.Now()
	res, err := core.RunAutoscale(cfg)
	ph.stop()
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.Host["core.sim_s"] = time.Since(t0).Seconds()
	o.Ops, o.Failed, o.Refused, o.Events = res.Arrivals, res.Failed, res.Shed, res.Events
	o.check(res.Arrivals == res.Completed+res.Shed+res.Failed,
		"autoscale: %d arrivals != %d completed + %d shed + %d failed", res.Arrivals, res.Completed, res.Shed, res.Failed)
	cols := []*obs.Collector{res.Obs}
	registryCounts(o, cols, res.TSDB)
	lat := o.latencies(res.Latencies)
	o.Virtual["core.makespan_s"] = res.Makespan.Seconds()
	o.Virtual["autoscale.ticks"] = counterSum(cols, "autoscale_decisions_total")
	o.Virtual["autoscale.scale_outs"] = float64(res.ScaleOuts)
	o.Virtual["autoscale.scale_ins"] = float64(res.ScaleIns)
	o.Virtual["autoscale.shed"] = float64(res.Shed)
	o.Virtual["autoscale.attainment"] = res.Attainment
	o.Virtual["autoscale.gpu_s_per_good"] = res.GPUSecondsPerGood
	o.seal(lat)
	return o, nil
}

// paperSLO attaches the burn-rate monitor to every paper run, so the
// alert stream has content (time-share cells miss a 10 s objective).
const (
	paperApp = "llama-complete"
	paperSLO = paperApp + ":10s:0.9"
)

// runPaper runs report.ObservedCollectors, the instrumented Fig 4/5
// grid and Table 1 bursts, then exports and analyses their spans into
// hashing writers; op = completion. The seed is unused: the grid is
// fixed. ObservedCollectors takes no collector hook, so the run phase
// starts at the call; the set-up inside it is one platform build.
func runPaper(sz sizes, _ int64, ph phase) (*outcome, error) {
	ph.start()
	t0 := time.Now()
	cols, err := report.ObservedCollectors(sz.completions, paperSLO)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.Host["core.sim_s"] = time.Since(t0).Seconds()

	trace, prom, attrib, folded, alerts := newHashWriter(), newHashWriter(), newHashWriter(), newHashWriter(), newHashWriter()
	t := time.Now()
	if err := obs.WriteChromeTrace(trace, cols...); err != nil {
		return nil, err
	}
	if err := obs.WritePrometheus(prom, cols...); err != nil {
		return nil, err
	}
	o.Host["obs.export_s"] = time.Since(t).Seconds()
	t = time.Now()
	rep := analyze.Analyze(cols...)
	if err := rep.WriteJSON(attrib); err != nil {
		return nil, err
	}
	if err := analyze.WriteFolded(folded, rep); err != nil {
		return nil, err
	}
	o.Host["analyze.attrib_s"] = time.Since(t).Seconds()
	t = time.Now()
	if err := analyze.WriteAlerts(alerts, cols...); err != nil {
		return nil, err
	}
	o.Host["analyze.alerts_s"] = time.Since(t).Seconds()
	ph.stop()

	// Each model process also runs one load task; only completions are
	// ops.
	cells := map[string]*paperCell{}
	for _, c := range cols {
		cells[c.Scope()] = &paperCell{}
	}
	lats := &metrics.Durations{}
	var phases analyze.Breakdown
	var total time.Duration
	for i := range rep.Tasks {
		tk := &rep.Tasks[i]
		if tk.App != paperApp {
			continue
		}
		o.Ops++
		if tk.Status != "done" {
			o.Failed++
		}
		if c := cells[tk.Scope]; c != nil {
			c.addTask(tk)
		}
		lats.Add(tk.Duration())
		for p, d := range tk.Phases {
			phases[p] += d
		}
		total += tk.Duration()
	}
	for _, col := range cols {
		c := cells[col.Scope()]
		if !strings.HasPrefix(col.Scope(), "fig45/") {
			o.check(c.n > 0, "paper %s: no completions analysed", col.Scope())
			continue
		}
		c.addRuns(col)
		o.check(c.n == sz.completions && c.runs == sz.completions,
			"paper %s: %d completions analysed, %d run, want %d", col.Scope(), c.n, c.runs, sz.completions)
		o.Virtual["core.makespan_s"] += c.makespan().Seconds()
	}
	o.check(rerenderMatches(trace, func(w io.Writer) error { return obs.WriteChromeTrace(w, cols...) }, validJSON),
		"paper: Chrome trace is not stable, valid JSON")
	o.check(rerenderMatches(prom, func(w io.Writer) error { return obs.WritePrometheus(w, cols...) }, obs.LintPrometheus),
		"paper: Prometheus exposition is not stable or fails lint")

	registryCounts(o, cols)
	o.Events = int64(counterSum(cols, "devent_events_dispatched_total"))
	lat := o.latencies(lats)
	if total > 0 {
		o.Virtual["faas.queue_frac"] = float64(phases[analyze.PhaseQueue]) / float64(total)
		o.Virtual["simgpu.kernel_queue_frac"] = float64(phases[analyze.PhaseKernelQueue]) / float64(total)
	}
	if o.Virtual["simgpu.model_err"], err = modelErr(cells); err != nil {
		return nil, err
	}
	o.Virtual["obs.export_bytes"] = float64(trace.n + prom.n)
	o.seal(lat, trace.sum(), prom.sum(), attrib.sum(), folded.sum(), alerts.sum())
	return o, nil
}

// paperCell gathers one collector's completions: the figures Fig 4 and
// Fig 5 plot for a grid cell.
type paperCell struct {
	n, runs    int
	start, end int64         // first submission, last result (virtual ns)
	run        time.Duration // summed inference time
}

func (c *paperCell) addTask(tk *analyze.TaskAttribution) {
	if c.n == 0 || tk.StartNS < c.start {
		c.start = tk.StartNS
	}
	c.end = max(c.end, tk.EndNS)
	c.n++
}

// addRuns sums the worker run spans of the completions. The paper's
// latency is the inference alone; a task's attributed duration also
// holds its wait behind the other queued completions.
func (c *paperCell) addRuns(col *obs.Collector) {
	for _, s := range col.Spans() {
		if s.Cat == "htex" && s.Name == "run" && s.Attr("app") == paperApp {
			c.runs++
			c.run += s.Duration()
		}
	}
}

// makespan is the completion time of Fig 4: all completions are
// submitted at once.
func (c *paperCell) makespan() time.Duration { return time.Duration(c.end - c.start) }

func (c *paperCell) meanLatency() time.Duration { return c.run / time.Duration(max(c.runs, 1)) }

// modelErr is the mean absolute relative error of the simulated
// headline ratios against the paper's (EXPERIMENTS.md): MPS-4 vs one
// process completion time -60 %, throughput 2.5x, and MPS-4 vs
// time-share-4 mean latency -44 %. cells are keyed by the scopes
// report.ObservedCollectors gives the Fig 4/5 grid.
func modelErr(cells map[string]*paperCell) (float64, error) {
	cell := func(m core.Mode, n int) (*paperCell, error) {
		scope := fmt.Sprintf("fig45/%s/p%d", m, n)
		c := cells[scope]
		if c == nil || c.n == 0 || c.runs == 0 || c.makespan() <= 0 {
			return nil, fmt.Errorf("paper: no completions in grid cell %s", scope)
		}
		return c, nil
	}
	mps1, err := cell(core.ModeMPS, 1)
	if err != nil {
		return 0, err
	}
	mps4, err := cell(core.ModeMPS, 4)
	if err != nil {
		return 0, err
	}
	ts4, err := cell(core.ModeTimeshare, 4)
	if err != nil {
		return 0, err
	}
	throughput := func(c *paperCell) float64 { return float64(c.n) / c.makespan().Seconds() }
	relErr := func(got, want float64) float64 { return math.Abs(got/want - 1) }
	return (relErr(1-mps4.makespan().Seconds()/mps1.makespan().Seconds(), 0.60) +
		relErr(throughput(mps4)/throughput(mps1), 2.5) +
		relErr(1-mps4.meanLatency().Seconds()/ts4.meanLatency().Seconds(), 0.44)) / 3, nil
}

// hashWriter hashes and counts what an exporter writes, so the timed
// export does no buffering of its own.
type hashWriter struct {
	h hash.Hash
	n int64
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *hashWriter) sum() []byte { return w.h.Sum(nil) }

// rerenderMatches renders an export again into memory and reports
// whether it hashes the same as the timed render and passes valid.
func rerenderMatches(timed *hashWriter, render func(io.Writer) error, valid func(io.Reader) error) bool {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return false
	}
	again := sha256.Sum256(buf.Bytes())
	return bytes.Equal(again[:], timed.sum()) && valid(&buf) == nil
}

func validJSON(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if !json.Valid(b) {
		return errors.New("invalid JSON")
	}
	return nil
}
