package report

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/moldesign"
	"repro/internal/obs"
	"repro/internal/repart"
)

func TestFig1Report(t *testing.T) {
	var b strings.Builder
	if err := Fig1(&b, []int{1, 8}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"resnet50", "resnet101", "vgg16", "alexnet",
		"GFLOPs(b=1)", "GFLOPs(b=8)", "dynamic range"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q", want)
		}
	}
	// ResNet-50's stem conv shows up with its well-known cost.
	if !strings.Contains(out, "conv1") {
		t.Error("missing conv1 row")
	}
}

func TestFig2Report(t *testing.T) {
	var b strings.Builder
	if _, err := Fig2(&b, []int{10, 19, 100}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"llama2-7b", "llama2-13b", "CPU baseline", "180.00", "360.00", "~20 SMs"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 output missing %q", want)
		}
	}
}

// TestFig3Report pins the whole Fig. 3 artifact (phase table, GPU
// idle statistics, timeline, utilization sparkline and the pipelined
// comparison) for a small campaign against testdata/fig3.golden.
func TestFig3Report(t *testing.T) {
	cfg := moldesign.DefaultConfig()
	cfg.InitialPool = 8
	cfg.CandidatePool = 500
	cfg.BatchSize = 4
	cfg.Rounds = 2
	var b strings.Builder
	if err := Fig3(&b, cfg); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig3.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("fig3 output differs from testdata/fig3.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestArtifactGoldens pins the default output of the artifacts built
// from small single-device simulations, of the Fig. 4/5 grid at 8
// completions, of the attribution section, of the repartitioning
// comparison under the default controller spec, and of the fleet and
// autoscale artifacts on their test grids, against
// testdata/<name>.golden. table1-chaos renders Table 1 under a dense
// fault schedule, whose worker kills land before a pick as well as
// mid-task.
func TestArtifactGoldens(t *testing.T) {
	for _, tc := range []struct {
		name   string
		render func(io.Writer) error
		chaos  *fault.Spec
	}{
		{"fig2", func(w io.Writer) error { _, err := Fig2(w, nil); return err }, nil},
		{"coldstart", ColdStart, nil},
		{"reconfig", Reconfig, nil},
		{"table1", func(w io.Writer) error { _, err := Table1(w, Observe{}); return err }, nil},
		{"table1-chaos", func(w io.Writer) error { _, err := Table1(w, Observe{}); return err }, &fault.Spec{Seed: 11, Rate: 0.5}},
		{"fig45", func(w io.Writer) error { _, err := Fig45(w, 8, Observe{}); return err }, nil},
		{"attrib", func(w io.Writer) error { _, err := Attribution(w, ""); return err }, nil},
		{"ablations", Ablations, nil},
		{"mixed", MixedTenancy, nil},
		{"rightsize", Rightsize, nil},
		{"openloop", OpenLoop, nil},
		{"repart", func(w io.Writer) error { return Repart(w, repart.Spec{}) }, nil},
		{"fleet", func(w io.Writer) error { return Fleet(w, fleetTestOptions()) }, nil},
		{"autoscale", func(w io.Writer) error { return Autoscale(w, autoscaleTestOptions()) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.chaos != nil {
				core.SetChaos(tc.chaos)
				t.Cleanup(func() { core.SetChaos(nil) })
			}
			var b strings.Builder
			if err := tc.render(&b); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Fatalf("%s output differs from testdata/%s.golden:\n--- got\n%s--- want\n%s", tc.name, tc.name, got, want)
			}
		})
	}
}

// run builds a campaign run span for the given method.
func run(worker, method string, start, end time.Duration) obs.Span {
	return obs.Span{Cat: "htex", Name: "run", Track: worker, Start: start, End: end,
		Attrs: []obs.Attr{obs.String("app", method)}}
}

func TestFig3GanttRendering(t *testing.T) {
	res := &core.Fig3Result{Runs: []obs.Span{
		run("gpu0", "train", 0, 5*time.Second),
		run("gpu0", "infer", 5*time.Second, 10*time.Second),
		run("cpu0", "simulate", 0, 4*time.Second),
		run("cpu1", "simulate", 6*time.Second, 10*time.Second),
	}}
	want := `            |----------| 0 .. 10s
 inference  |.....IIIII|
simulation  |SSSS..SSSS|
  training  |TTTTT.....|
`
	if got := Fig3Gantt(res, 10); got != want {
		t.Fatalf("got:\n%swant:\n%s", got, want)
	}
}

func TestFig3GanttTinySpanVisible(t *testing.T) {
	res := &core.Fig3Result{Runs: []obs.Span{
		run("cpu0", "simulate", 0, 100*time.Second),
		run("gpu0", "infer", 50*time.Second, 50*time.Second+time.Millisecond),
	}}
	if out := Fig3Gantt(res, 20); !strings.Contains(out, "I") {
		t.Fatalf("tiny span invisible:\n%s", out)
	}
}

func TestFig3GanttEmpty(t *testing.T) {
	if got := Fig3Gantt(&core.Fig3Result{}, 100); got != "(empty trace)\n" {
		t.Fatalf("got %q", got)
	}
}

func TestSparkline(t *testing.T) {
	var s metrics.StepSeries
	s.Set(0, 0)
	s.Set(5*time.Second, 100)
	row := sparkline(&s, 10*time.Second, 10, 100)
	if r := []rune(row); len(r) != 10 || r[0] != ' ' || r[9] != '█' {
		t.Fatalf("row = %q", row)
	}
	// A zero full scale draws an empty row rather than dividing by it.
	if got := sparkline(&s, 10*time.Second, 4, 0); got != "    " {
		t.Fatalf("zero scale row = %q", got)
	}
}

func TestFig45Report(t *testing.T) {
	var b strings.Builder
	if _, err := Fig45(&b, 20, Observe{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Fig 4", "Fig 5", "timeshare", "MPS", "MIG",
		"headline claims", "throughput, 4-way MPS"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig45 output missing %q", want)
		}
	}
}

func TestTable1Report(t *testing.T) {
	var b strings.Builder
	if _, err := Table1(&b, Observe{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"technique", "timeshare", "mps-default", "mig", "vgpu",
		"nvidia-cuda-mps-control", "nvidia-smi", "NVIDIA vGPU driver"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestColdStartAndReconfigReports(t *testing.T) {
	var b strings.Builder
	if err := ColdStart(&b); err != nil {
		t.Fatal(err)
	}
	if err := Reconfig(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"model load", "llama2-13b fp32", "MPS repartition", "weight cache", "MIG re-layout"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRightsizeReport(t *testing.T) {
	var b strings.Builder
	if err := Rightsize(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"knee", "recommendation", "MIG profile", "static estimate"} {
		if !strings.Contains(out, want) {
			t.Errorf("rightsize output missing %q", want)
		}
	}
}

func TestAblationsReport(t *testing.T) {
	var b strings.Builder
	if err := Ablations(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Ablation A", "Ablation B", "Ablation C", "Ablation D",
		"MIG penalty", "batch x4", "multiplex MPS x4", "quantum"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablations output missing %q", want)
		}
	}
}

func TestMixedTenancyReport(t *testing.T) {
	var b strings.Builder
	if err := MixedTenancy(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"resnet p99", "meets 100ms", "timeshare", "mig"} {
		if !strings.Contains(out, want) {
			t.Errorf("mixed output missing %q", want)
		}
	}
}

func TestWriteFigureCSVs(t *testing.T) {
	fig2, err := Fig2(io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := Fig45(io.Discard, 8, Observe{})
	if err != nil {
		t.Fatal(err)
	}
	runs.Fig2 = fig2.Fig2
	dir := t.TempDir()
	if err := WriteFigureCSVs(dir, runs); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2.csv", "fig4.csv", "fig5.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Count(string(data), "\n")
		if lines < 5 {
			t.Errorf("%s has only %d lines", name, lines)
		}
	}
	// fig4 has 12 rows (3 modes × 4 process counts) plus a header.
	data, _ := os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if got := strings.Count(string(data), "\n"); got != 13 {
		t.Errorf("fig4 rows = %d", got-1)
	}
}

func TestOpenLoopReport(t *testing.T) {
	var b strings.Builder
	if err := OpenLoop(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"stable", "p99", "timeshare", "mps"} {
		if !strings.Contains(out, want) {
			t.Errorf("openloop output missing %q", want)
		}
	}
}
