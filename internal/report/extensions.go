package report

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
)

// Ablations prints the design-choice studies DESIGN.md calls out:
// host-gap (why time-sharing helps at all), memory-traffic fraction
// (the MPS/MIG crossover driver), batching vs multiplexing, and the
// vGPU quantum.
func Ablations(w io.Writer) error {
	header(w, "Ablation A — host-side gap vs time-sharing benefit")
	gapRows, err := core.AblationHostGap([]time.Duration{0, 20 * time.Millisecond, 45 * time.Millisecond, 90 * time.Millisecond}, 24)
	if err != nil {
		return err
	}
	if err := table(w, "host gap (ms)\tsingle (s)\ttimeshare-4 (s)\timprovement", func(tw io.Writer) {
		for _, r := range gapRows {
			fmt.Fprintf(tw, "%.0f\t%s\t%s\t%.0f%%\n",
				float64(r.HostGap.Milliseconds()), sec(r.SingleMakespan), sec(r.Timeshare4Makespan), r.Improvement*100)
		}
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "with no host gap the GPU is already saturated and time-sharing cannot help;")
	fmt.Fprintln(w, "the calibrated 45 ms gap yields the ~20% Fig-4 time-sharing benefit.")

	header(w, "Ablation B — memory-traffic fraction vs the MPS/MIG gap (3 processes)")
	memRows, err := core.AblationMemFraction([]float64{0.01, 0.2, 0.4, 0.6}, 18)
	if err != nil {
		return err
	}
	if err := table(w, "mem fraction\tMPS-3 (s)\tMIG-3 (s)\tMIG penalty", func(tw io.Writer) {
		for _, r := range memRows {
			fmt.Fprintf(tw, "%.2f\t%s\t%s\t%.2fx\n", r.MemFraction, sec(r.MPS3), sec(r.MIG3), r.MIGPenalty)
		}
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "pure-compute tenants make MIG-2g equal to MPS; weight-streaming traffic exposes")
	fmt.Fprintln(w, "MIG's hard 2/8 bandwidth slice against MPS's soft 1/3 share — §5.2's crossover.")

	header(w, "Ablation C — batching vs multiplexing")
	bRows, err := core.AblationBatchVsMultiplex(40)
	if err != nil {
		return err
	}
	if err := table(w, "strategy\tthroughput (req/s)\tmean latency (s)", func(tw io.Writer) {
		for _, r := range bRows {
			fmt.Fprintf(tw, "%s\t%.3f\t%s\n", r.Strategy, r.Throughput, sec(r.MeanLat))
		}
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "a single tenant should batch; multiplexing is for the multi-tenant case the")
	fmt.Fprintln(w, "paper targets, where requests belong to different functions/users.")

	header(w, "Ablation D — vGPU quantum")
	qRows, err := core.AblationVGPUQuantum([]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond}, 16)
	if err != nil {
		return err
	}
	if err := table(w, "quantum\tmean latency (s)", func(tw io.Writer) {
		for _, r := range qRows {
			fmt.Fprintf(tw, "%v\t%s\n", r.Quantum, sec(r.MeanLat))
		}
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "VM-level slicing stays at ~4x single-stream latency regardless of quantum:")
	fmt.Fprintln(w, "no spatial parallelism is extracted (Table 1's vGPU row).")
	return nil
}

// MixedTenancy prints the latency-sensitive-co-tenant study: ResNet-50
// next to a LLaMa-2 service under each technique.
func MixedTenancy(w io.Writer) error {
	header(w, "Mixed tenancy — real-time ResNet-50 next to a LLaMa-2 service")
	modes := []core.Mode{core.ModeTimeshare, core.ModeMPSDefault, core.ModeMPS, core.ModeMIG, core.ModeVGPU}
	rows, err := harness.Map(len(modes), func(i int) (*core.MixedTenancyResult, error) {
		return core.RunMixedTenancy(modes[i])
	})
	if err != nil {
		return err
	}
	if err := table(w, "technique\tresnet solo\tresnet mean\tresnet p99\tmeets 100ms\tLLM mean (s)", func(tw io.Writer) {
		for i, r := range rows {
			fmt.Fprintf(tw, "%s\t%.1fms\t%.1fms\t%.1fms\t%v\t%s\n", modes[i],
				r.ResNetSolo.Seconds()*1e3, r.ResNetMean.Seconds()*1e3, r.ResNetP99.Seconds()*1e3,
				r.MeetsRealTime, sec(r.LLMMean))
		}
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "under default time-sharing every camera frame queues behind ~180 ms decode")
	fmt.Fprintln(w, "kernels (§6's real-time budget is blown); MPS percentages and MIG keep the")
	fmt.Fprintln(w, "CNN near its solo latency while the LLM keeps its own partition busy.")
	return nil
}

// OpenLoop prints the §5.2 multi-client serving scenario as an open
// system: Poisson arrivals at a load between time-sharing's capacity
// and MPS's, where stability itself separates the techniques.
func OpenLoop(w io.Writer) error {
	header(w, "Open-loop serving — Poisson chatbot arrivals at 0.4 req/s, 4 instances")
	modes := []core.Mode{core.ModeTimeshare, core.ModeMPS, core.ModeMIG}
	rows, err := harness.Map(len(modes), func(i int) (*core.OpenLoopResult, error) {
		return core.RunOpenLoop(core.OpenLoopConfig{Mode: modes[i], Processes: 4, ArrivalRate: 0.4, Requests: 60})
	})
	if err != nil {
		return err
	}
	if err := table(w, "technique\tp50 (s)\tp99 (s)\tsustained (req/s)\tstable", func(tw io.Writer) {
		for i, r := range rows {
			fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.3f\t%v\n", modes[i],
				r.Latencies.Percentile(50).Seconds(), r.Latencies.Percentile(99).Seconds(),
				r.ServiceCapacity, r.Stable)
		}
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "0.4 req/s sits between time-sharing's ~0.27 req/s capacity and MPS's ~0.59:")
	fmt.Fprintln(w, "spatial partitioning is the difference between bounded latency and a backlog")
	fmt.Fprintln(w, "that grows without limit.")
	return nil
}
