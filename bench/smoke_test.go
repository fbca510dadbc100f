package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, against a real
// decorrd at SF=0.01 with a 1 s window, and checks that every end-to-end
// and per-layer metric comes out as a finite number with a unit and that no
// op failed its oracle. It does not apply the traced run's own checks (sum
// ratio, dominance): at this scale an op is a millisecond and execution is
// too small to dominate, so they say nothing.
func TestSmoke(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildDecorrd(root)
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	cfg := config{seed: 7, window: time.Second, sf: 0.01, warm: 200 * time.Millisecond, refWin: 500 * time.Millisecond}

	check := func(t *testing.T, r *run, names []string) {
		t.Helper()
		if len(r.res.Metrics) != len(names) {
			t.Errorf("got %d metrics, want %d", len(r.res.Metrics), len(names))
		}
		for _, n := range names {
			m, ok := r.res.Metrics[n]
			if !ok {
				t.Errorf("metric %s not emitted", n)
				continue
			}
			if m.Unit == "" {
				t.Errorf("metric %s has no unit", n)
			}
		}
		// NaN or Inf would mean a skipped measurement reported as a number.
		if _, err := json.Marshal(r.res); err != nil {
			t.Errorf("result is not finite JSON: %v", err)
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			c := cfg
			c.workload = name
			r, err := c.run(bin, outDir)
			if err != nil {
				t.Fatal(err)
			}
			check(t, r, endToEndNames)
			if !r.res.Correct || r.res.Failed != 0 || r.res.Attempted == 0 {
				t.Errorf("served run: correct=%v attempted=%d failed=%d notes=%v", r.res.Correct, r.res.Attempted, r.res.Failed, r.notes)
			}

			c.trace = true
			r, err = c.run(bin, outDir)
			if err != nil {
				t.Fatal(err)
			}
			check(t, r, layerMetricNames)
			if _, err := os.Stat(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// BENCHMARK.json and the harness must name the same workloads and metrics.
func TestBenchmarkJSONAgrees(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name string }, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i] {
				t.Errorf("%s %d: BENCHMARK.json says %q, the harness %q", kind, i, got[i].Name, want[i])
			}
		}
	}
	same("workloads", spec.Workloads, workloadNames)
	same("end_to_end", spec.EndToEnd, endToEndNames)
	same("per_layer", spec.PerLayer, layerMetricNames)
}
