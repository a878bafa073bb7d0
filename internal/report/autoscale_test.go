package report

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// autoscaleTestOptions shrinks the grid to a fast-but-real cell: the
// 40-minute horizon still covers the climb to peak, the 3× burst, and
// the descent into the night cutoff.
func autoscaleTestOptions() AutoscaleOptions {
	return AutoscaleOptions{GPUs: 4, Horizon: 40 * time.Minute, Seed: 3}
}

// TestAutoscaleDeterminism is the artifact's regression contract:
// byte-identical at -parallel 1 and 4, across repeated parallel runs,
// and under -stream.
func TestAutoscaleDeterminism(t *testing.T) {
	render := func(workers int, stream bool) []byte {
		prev := harness.SetParallelism(workers)
		defer harness.SetParallelism(prev)
		var b bytes.Buffer
		opts := autoscaleTestOptions()
		opts.Stream = stream
		if err := Autoscale(&b, opts); err != nil {
			t.Fatalf("Autoscale with %d workers (stream=%v): %v", workers, stream, err)
		}
		return b.Bytes()
	}
	seq := render(1, false)
	if len(seq) == 0 {
		t.Fatal("sequential autoscale artifact is empty")
	}
	par := render(4, false)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel output differs from sequential:\n%s", firstDiff(seq, par))
	}
	par2 := render(4, false)
	if !bytes.Equal(par, par2) {
		t.Fatalf("repeated parallel runs differ:\n%s", firstDiff(par, par2))
	}
	str := render(4, true)
	if !bytes.Equal(seq, str) {
		t.Fatalf("streaming output differs from snapshot:\n%s", firstDiff(seq, str))
	}
}

// TestAutoscaleArtifactShape pins the line vocabulary: a config echo
// and outcome block per cell, and the three-verdict footer.
func TestAutoscaleArtifactShape(t *testing.T) {
	var b bytes.Buffer
	if err := Autoscale(&b, autoscaleTestOptions()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"SLO-driven autoscaling",
		"config: cell=autoscaled", "config: cell=static-1", "config: cell=static-4",
		"config: traffic users=",
		"virtual: arrivals=", "virtual: latency p50=",
		"virtual: economics gpu_seconds=", "virtual: scaling out=",
		"virtual: verdict cost", "virtual: verdict attainment", "virtual: verdict cold-starts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("artifact is missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "wall:") {
		t.Error("autoscale artifact must stay purely virtual (no wall lines)")
	}
}

// TestAutoscaleVerdictHolds locks the experiment's conclusion into the
// artifact: the autoscaled cell undercuts peak-static GPU-seconds and
// out-attains trough-static on the same traffic.
func TestAutoscaleVerdictHolds(t *testing.T) {
	var b bytes.Buffer
	if err := Autoscale(&b, autoscaleTestOptions()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	verdict := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "virtual: verdict cost") {
			verdict = line
		}
	}
	if verdict == "" {
		t.Fatalf("no cost verdict in artifact:\n%s", out)
	}
	var auto, peak float64
	var saving float64
	if _, err := fmt.Sscanf(verdict, "virtual: verdict cost        auto=%fgpu·s peak-static=%fgpu·s saving=%f%%",
		&auto, &peak, &saving); err != nil {
		t.Fatalf("unparseable verdict %q: %v", verdict, err)
	}
	if auto >= peak || saving <= 0 {
		t.Errorf("autoscaler did not undercut peak-static: %s", verdict)
	}
}

// TestAutoscaleTelemetryHooks checks the live-plane wiring: each cell
// attaches under its own scope with its own series store.
func TestAutoscaleTelemetryHooks(t *testing.T) {
	var b bytes.Buffer
	opts := autoscaleTestOptions()
	var log storeLog
	opts.Attach = log.attach
	if err := Autoscale(&b, opts); err != nil {
		t.Fatal(err)
	}
	var scopes []string
	for _, c := range autoscaleGrid(4) {
		scopes = append(scopes, "autoscale/"+c.label)
	}
	log.check(t, scopes)
}
