package report

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// WriteFigureCSVs writes the figure series runs holds as CSV files into
// dir, ready for external plotting: fig2.csv from the Fig. 2 sweep and
// fig4.csv and fig5.csv from the Fig. 4/5 grid. They come from the
// runs the text reports printed, so the files match them exactly.
func WriteFigureCSVs(dir string, runs *Runs) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if res := runs.Fig2; res != nil {
		var b bytes.Buffer
		fmt.Fprintln(&b, "model,mps_percent,sms,latency_s")
		for _, p := range res.Points {
			fmt.Fprintf(&b, "%s,%d,%d,%.6f\n", p.Model, p.Percent, p.SMs, p.Latency.Seconds())
		}
		// Sorted keys, not map order, so the file is byte-reproducible.
		models := make([]string, 0, len(res.CPUBaselines))
		for model := range res.CPUBaselines {
			models = append(models, model)
		}
		sort.Strings(models)
		for _, model := range models {
			fmt.Fprintf(&b, "%s-cpu,0,0,%.6f\n", model, res.CPUBaselines[model].Seconds())
		}
		if err := os.WriteFile(filepath.Join(dir, "fig2.csv"), b.Bytes(), 0o666); err != nil {
			return err
		}
	}
	if runs.Grid == nil {
		return nil
	}
	var f4, f5 bytes.Buffer
	fmt.Fprintln(&f4, "mode,processes,makespan_s,throughput_per_s,utilization")
	fmt.Fprintln(&f5, "mode,processes,mean_latency_s,p95_latency_s")
	for _, r := range runs.Grid {
		fmt.Fprintf(&f4, "%s,%d,%.3f,%.5f,%.4f\n",
			r.Mode, r.Processes, r.Makespan.Seconds(), r.Throughput, r.Utilization)
		fmt.Fprintf(&f5, "%s,%d,%.4f,%.4f\n",
			r.Mode, r.Processes, r.MeanLatency().Seconds(), r.Latencies.Percentile(95).Seconds())
	}
	if err := os.WriteFile(filepath.Join(dir, "fig4.csv"), f4.Bytes(), 0o666); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "fig5.csv"), f5.Bytes(), 0o666)
}
