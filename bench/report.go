package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd are the host-cost metrics every workload reports with -trace
// 0: medians over the plain (unprofiled) timed repetitions, and for
// setup_s over the set-up probes as well.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"allocs_per_op", "allocs/op"},
	{"alloc_bytes_per_op", "B/op"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics -trace 1 reports. A unit of sim_s marks
// simulated (virtual) seconds; s, us and ns are host time.
var perLayer = []metricDef{
	{"devent.cpu_frac", "frac"}, {"devent.ns_per_event", "ns"}, {"devent.events_per_op", "events/op"},
	{"faas.cpu_frac", "frac"}, {"faas.us_per_task", "us"}, {"faas.cold_starts", "count"},
	{"faas.retries", "count"}, {"faas.queue_frac", "frac"},
	{"simgpu.cpu_frac", "frac"}, {"simgpu.kernels", "count"}, {"simgpu.us_per_kernel", "us"},
	{"simgpu.context_switches", "count"}, {"simgpu.kernel_queue_frac", "frac"}, {"simgpu.model_err", "frac"},
	{"obs.cpu_frac", "frac"}, {"obs.spans_per_op", "spans/op"}, {"obs.ns_per_span", "ns"},
	{"obs.retained_high_water", "count"}, {"obs.export_s", "s"}, {"obs.export_bytes", "B"},
	{"tsdb.cpu_frac", "frac"}, {"tsdb.scrapes", "count"}, {"tsdb.us_per_scrape", "us"},
	{"tsdb.alert_transitions", "count"},
	{"analyze.cpu_frac", "frac"}, {"analyze.attrib_s", "s"}, {"analyze.alerts_s", "s"},
	{"analyze.us_per_task", "us"},
	{"fleet.cpu_frac", "frac"}, {"fleet.ops", "count"}, {"fleet.us_per_op", "us"},
	{"fleet.rebalance_moved", "count"}, {"fleet.rejected", "count"}, {"fleet.attainment", "frac"},
	{"fleet.frag_mean", "frac"},
	{"autoscale.cpu_frac", "frac"}, {"autoscale.ticks", "count"}, {"autoscale.scale_outs", "count"},
	{"autoscale.scale_ins", "count"}, {"autoscale.shed", "count"}, {"autoscale.attainment", "frac"},
	{"autoscale.gpu_s_per_good", "gpu_s"},
	{"core.cpu_frac", "frac"}, {"core.sim_s", "s"}, {"core.gen_late_frac", "frac"},
	{"core.latency_p50_s", "sim_s"}, {"core.latency_p99_s", "sim_s"}, {"core.makespan_s", "sim_s"},
	{"core.fail_frac", "frac"},
	{"runtime.gc_cpu_frac", "frac"}, {"runtime.gc_cycles", "count"}, {"runtime.live_heap_mb_end", "MB"},
	{"runtime.goroutines_left", "count"}, {"runtime.gc_bg_frac", "frac"}, {"runtime.other_frac", "frac"},
	{"trace_overhead_frac", "frac"},
}

// cpuFracName names a fold layer's CPU-share metric.
func cpuFracName(layer string) string {
	if strings.HasPrefix(layer, "runtime.") {
		return layer + "_frac"
	}
	return layer + ".cpu_frac"
}

// perUnitCosts divide a layer's profiled CPU by the work it did: metric
// name, layer, the count's per-layer metric name (or a raw count), and
// the nanoseconds per reported unit.
var perUnitCosts = []struct {
	name, layer, count string
	nsPerUnit          float64
}{
	{"devent.ns_per_event", "devent", "events", 1},
	{"faas.us_per_task", "faas", "tasks", 1e3},
	{"obs.ns_per_span", "obs", "spans", 1},
	{"tsdb.us_per_scrape", "tsdb", "tsdb.scrapes", 1e3},
	{"analyze.us_per_task", "analyze", "tasks", 1e3},
	{"simgpu.us_per_kernel", "simgpu", "simgpu.kernels", 1e3},
	{"fleet.us_per_op", "fleet", "fleet.ops", 1e3},
}

// result is one workload's summary.
type result struct {
	workload          string
	values            map[string]float64
	samples           map[string][]float64 // end-to-end metric samples, for quartiles
	attempted, failed int
	problems          []string
	digest            string
}

// summarize checks every repetition and reduces them to metrics.
// Virtual values come from the first repetition, since every repetition
// must carry the same digest.
func summarize(s *runs, trace bool) *result {
	res := &result{workload: s.w.name, values: map[string]float64{}, samples: map[string][]float64{}}
	first := s.reps[0].Outcome
	res.digest = first.Digest
	refused := 0
	var plain, traced []*rep
	for _, r := range s.reps {
		if r.profiled {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		o := r.Outcome
		res.attempted += o.Ops
		refused += o.Refused
		failed := o.Failed
		if len(o.Broken) > 0 || o.Digest != first.Digest {
			failed = o.Ops
		}
		if o.Digest != first.Digest {
			res.problems = append(res.problems, fmt.Sprintf("digest %s differs from the first repetition's", o.Digest))
		}
		res.problems = append(res.problems, o.Broken...)
		res.failed += failed
	}
	ops := float64(first.Ops)
	opsPerS := func(r *rep) float64 { return ops / r.RunS }
	res.sample("ops_per_s", each(plain, opsPerS))
	res.sample("setup_s", append(each(plain, func(r *rep) float64 { return r.setupS }), s.probes...))
	res.sample("allocs_per_op", each(plain, func(r *rep) float64 { return float64(r.Mallocs) / ops }))
	res.sample("alloc_bytes_per_op", each(plain, func(r *rep) float64 { return float64(r.AllocBytes) / ops }))
	res.sample("rss_peak_mb", each(plain, func(r *rep) float64 { return r.rssMB }))

	v := res.values
	for k, x := range first.Virtual {
		v[k] = x
	}
	for k := range first.Host {
		v[k] = medianOf(plain, func(r *rep) float64 { return r.Outcome.Host[k] })
	}
	v["devent.events_per_op"] = float64(first.Events) / ops
	v["obs.spans_per_op"] = float64(first.Spans) / ops
	v["core.fail_frac"] = float64(res.failed+refused) / float64(res.attempted)
	v["runtime.gc_cpu_frac"] = medianOf(plain, func(r *rep) float64 { return r.GCCPUFrac })
	v["runtime.gc_cycles"] = medianOf(plain, func(r *rep) float64 { return float64(r.GCCycles) })
	v["runtime.live_heap_mb_end"] = medianOf(plain, func(r *rep) float64 { return r.LiveHeapMB })
	v["runtime.goroutines_left"] = medianOf(plain, func(r *rep) float64 { return float64(r.GoroutinesLeft) })
	if !trace || len(traced) == 0 {
		return res
	}

	layerNS := map[string]float64{}
	var total float64
	for _, r := range traced {
		for l, ns := range r.LayerNS {
			layerNS[l] += float64(ns)
			total += float64(ns)
		}
	}
	for _, l := range layerNames {
		if total > 0 {
			v[cpuFracName(l)] = layerNS[l] / total
		}
	}
	counts := map[string]float64{
		"events": float64(first.Events), "spans": float64(first.Spans), "tasks": float64(first.Tasks),
	}
	for _, c := range perUnitCosts {
		n, ok := counts[c.count]
		if !ok {
			n = v[c.count]
		}
		if n > 0 {
			v[c.name] = layerNS[c.layer] / float64(len(traced)) / n / c.nsPerUnit
		}
	}
	v["trace_overhead_frac"] = 1 - medianOf(traced, opsPerS)/medianOf(plain, opsPerS)
	for _, m := range perLayer {
		if _, ok := v[m.name]; !ok {
			v[m.name] = 0 // the layer does no such work on this workload
		}
	}
	return res
}

func (res *result) sample(name string, xs []float64) {
	res.samples[name] = xs
	res.values[name] = quantile(xs, 0.5)
}

func medianOf(reps []*rep, f func(*rep) float64) float64 {
	return quantile(each(reps, f), 0.5)
}

func each(reps []*rep, f func(*rep) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonRecord struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// writeReport prints the metric lines and, last, the JSON record. With
// more than one workload, record keys are prefixed "workload/".
func writeReport(w io.Writer, sets []*runs, trace bool) error {
	rec := jsonRecord{Correct: true, Metrics: map[string]jsonMetric{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, s := range sets {
		res := summarize(s, trace)
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", res.workload, p)
		}
		writeLines(w, res)
		rec.Correct = rec.Correct && res.failed == 0
		rec.Attempted += res.attempted
		rec.Failed += res.failed
		for _, m := range defs {
			key := m.name
			if len(sets) > 1 {
				key = res.workload + "/" + m.name
			}
			rec.Metrics[key] = jsonMetric{res.values[m.name], m.unit}
		}
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// setupFloorS is the smallest setup_s this benchmark resolves: below it
// the time is mostly exec and runtime start-up, whose jitter swamps a
// change. BENCHMARK.json bounds are relative and cannot express it, so
// the metric line flags a median under it.
const setupFloorS = 0.002

func writeLines(w io.Writer, res *result) {
	for _, m := range endToEnd {
		xs := res.samples[m.name]
		note := ""
		if m.name == "setup_s" && res.values[m.name] < setupFloorS {
			note = " unresolved: under the 2 ms floor"
		}
		fmt.Fprintf(w, "%s %s %.6g %s q1=%.6g q3=%.6g n=%d%s\n", res.workload, m.name, res.values[m.name], m.unit,
			quantile(xs, 0.25), quantile(xs, 0.75), len(xs), note)
	}
	for _, m := range perLayer {
		if x, ok := res.values[m.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", res.workload, m.name, x, m.unit)
		}
	}
	fmt.Fprintf(w, "%s ops_attempted %d count\n", res.workload, res.attempted)
	fmt.Fprintf(w, "%s ops_failed %d count\n", res.workload, res.failed)
	fmt.Fprintf(w, "%s digest %s sha256\n", res.workload, res.digest)
}
