package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/colmena"
	"repro/internal/devent"
	"repro/internal/metrics"
	"repro/internal/moldesign"
	"repro/internal/obs"
)

// Fig3Result carries the molecular-design campaign outcome plus the
// task timeline behind the paper's Fig. 3.
type Fig3Result struct {
	Report *moldesign.Report
	// Runs are the campaign's htex "run" spans in ID order, one per
	// task, all closed by Makespan: the track is the worker and the
	// "app" attribute is the campaign method (see moldesign.Phase).
	Runs []obs.Span
	// Phases summarizes Runs per phase, in moldesign.Phases order;
	// phases without tasks are left out.
	Phases []PhaseSummary
	// GPUBusyFraction is the fraction of the campaign the GPU spent
	// on training or inference; the complement is the idle time the
	// paper's Fig. 3 highlights.
	GPUBusyFraction float64
	// GPUIdleGaps counts distinct idle intervals on the GPU ("white
	// lines" in Fig. 3).
	GPUIdleGaps int
	// DeviceBusy is the GPU's busy-SM step series for sparkline
	// rendering.
	DeviceBusy *metrics.StepSeries
	// DeviceSMs is the GPU's SM count (the sparkline's full scale).
	DeviceSMs int
	Makespan  time.Duration
	// Failed counts the tasks lost for good, the sum of
	// Report.Failed; only fault injection loses tasks.
	Failed int
}

// PhaseSummary aggregates one campaign phase's tasks.
type PhaseSummary struct {
	Phase string
	Tasks int
	// Busy is the union of the phase's task intervals; Summed adds
	// their durations, so Summed/Busy is the phase's mean parallelism.
	Busy, Summed time.Duration
}

// RunMolDesign executes the molecular-design campaign (§3.1) on the
// platform's FaaS stack: simulations on the 16-worker CPU executor,
// training and inference on one GPU worker.
func RunMolDesign(cfg moldesign.Config) (*Fig3Result, error) {
	return runMolDesign(cfg, false)
}

// RunMolDesignPipelined runs the asynchronous variant the paper
// suggests under Fig. 3 ("pipe-lining this application will yield
// higher accelerator utilization"): same simulation budget, streaming
// retrain/rescore overlapping the CPU simulations.
func RunMolDesignPipelined(cfg moldesign.Config) (*Fig3Result, error) {
	return runMolDesign(cfg, true)
}

func runMolDesign(cfg moldesign.Config, pipelined bool) (*Fig3Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pl, err := NewPlatform(Options{})
	if err != nil {
		return nil, err
	}
	defer pl.Env.Close()
	res := &Fig3Result{}
	runErr := pl.Run(func(p *devent.Proc) error {
		if err := pl.ConfigureGPUExecutor(p, []string{"0"}, nil); err != nil {
			return err
		}
		ts := colmena.NewTaskServer(pl.DFK, colmena.NewQueues(pl.Env))
		campaign := moldesign.New(cfg, ts, "cpu", "gpu")
		var rep *moldesign.Report
		if pipelined {
			rep, err = campaign.RunPipelined(p)
		} else {
			rep, err = campaign.Run(p)
		}
		if err != nil {
			return err
		}
		res.Report = rep
		res.Makespan = p.Now()
		for _, n := range rep.Failed {
			res.Failed += n
		}
		if res.Runs, err = campaignRuns(pl.DFK.Collector()); err != nil {
			return err
		}
		res.summarize()
		res.DeviceBusy = pl.Devices[0].BusySeries()
		res.DeviceSMs = pl.Devices[0].Spec().SMs
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// campaignRuns returns the collector's htex run spans of campaign
// methods, in ID order. Every task the thinker submitted must have
// finished by the campaign's end, or the timeline would miss it.
func campaignRuns(c *obs.Collector) ([]obs.Span, error) {
	for _, s := range c.CheckClosed() {
		if s.Cat == "htex" && s.Name == "run" {
			return nil, fmt.Errorf("core: task %s (%s) still running at campaign end", s.Attr("task"), s.Attr("app"))
		}
	}
	var runs []obs.Span
	c.EachSpan(func(s *obs.Span) {
		if s.Cat == "htex" && s.Name == "run" && moldesign.Phase(s.Attr("app")) != "" {
			runs = append(runs, *s)
		}
	})
	return runs, nil
}

// summarize fills the per-phase table and the GPU idle statistics
// from Runs over [0, Makespan).
func (r *Fig3Result) summarize() {
	byPhase := map[string][]obs.Span{}
	for _, s := range r.Runs {
		ph := moldesign.Phase(s.Attr("app"))
		byPhase[ph] = append(byPhase[ph], s)
	}
	for _, ph := range moldesign.Phases {
		spans := byPhase[ph]
		if len(spans) == 0 {
			continue
		}
		sum := PhaseSummary{Phase: ph, Tasks: len(spans)}
		for _, s := range spans {
			sum.Summed += s.Duration()
		}
		_, sum.Busy = union(spans, r.Makespan)
		r.Phases = append(r.Phases, sum)
	}
	gpu, busy := union(append(byPhase["training"], byPhase["inference"]...), r.Makespan)
	if r.Makespan > 0 {
		r.GPUBusyFraction = float64(busy) / float64(r.Makespan)
	}
	r.GPUIdleGaps = len(gaps(gpu, r.Makespan))
}

// interval is a half-open [start, end) virtual-time range.
type interval struct{ start, end time.Duration }

// union merges the spans' ranges, clipped to [0, to), into disjoint
// intervals in increasing time order, and returns the time they cover.
// Empty spans cover nothing.
func union(spans []obs.Span, to time.Duration) (cov []interval, covered time.Duration) {
	ivs := make([]interval, 0, len(spans))
	for _, s := range spans {
		if a, b := max(s.Start, 0), min(s.End, to); b > a {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	for _, iv := range ivs {
		if n := len(cov); n > 0 && iv.start <= cov[n-1].end {
			covered += max(iv.end-cov[n-1].end, 0)
			cov[n-1].end = max(cov[n-1].end, iv.end)
			continue
		}
		cov = append(cov, iv)
		covered += iv.end - iv.start
	}
	return cov, covered
}

// gaps returns the idle intervals of [0, to) that the sorted, disjoint
// coverage cov leaves uncovered.
func gaps(cov []interval, to time.Duration) []interval {
	var out []interval
	var cursor time.Duration
	for _, iv := range cov {
		if iv.start > cursor {
			out = append(out, interval{cursor, iv.start})
		}
		cursor = iv.end
	}
	if cursor < to {
		out = append(out, interval{cursor, to})
	}
	return out
}
