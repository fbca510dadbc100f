package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the A/A check reads: each
// end-to-end metric's direction and the bound it may worsen by.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// aaCell is one (workload, metric) pair of the baseline.
type aaCell struct {
	Unit    string     `json:"unit"`
	Bound   float64    `json:"bound"`
	Medians [2]float64 `json:"medians"` // set 1, set 2
	Spreads [2]float64 `json:"spreads"` // quartile distance / median, per set
	Worse   float64    `json:"set2_worse_by"`
}

// runAA is the acceptance check run on one binary: two sets of ten runs of
// every workload, run i of both sets on seed first+i. The sets are
// interleaved - the two runs of a seed go back to back, and which set goes
// first alternates from seed to seed - so that a drift of the host lands on
// both sets alike, as a comparison of two commits must be run too. It fails
// if a metric's quartile spread within a set exceeds its bound (setup_s
// excepted, as in the acceptance rule) or if the second set's median is
// worse than the first's by more than the bound, and writes what it saw to
// bench/baseline/aa.json only when it passes.
func runAA(cfg config, root, bin, outDir string) error {
	const runs = 10
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return err
	}

	// values[set][workload][metric] = one value per run.
	var values [2]map[string]map[string][]float64
	units := map[string]string{}
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, name := range workloadNames {
			values[set][name] = map[string][]float64{}
		}
	}
	for _, name := range workloadNames {
		for i := 0; i < runs; i++ {
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				c := cfg
				c.workload, c.trace, c.seed = name, false, cfg.seed+int64(i)
				r, err := c.run(bin, outDir)
				if err != nil {
					return err
				}
				if !r.res.Correct {
					return fmt.Errorf("%s seed %d: incorrect run: %v", name, c.seed, r.notes)
				}
				for m, v := range r.res.Metrics {
					values[set][name][m] = append(values[set][name][m], v.Value)
					units[m] = v.Unit
				}
				fmt.Printf("# set %d %s seed %d: p50 %.3f ms, %.2f ops/s\n", set+1, name, c.seed,
					r.res.Metrics["query_p50_ms"].Value, r.res.Metrics["ops_per_s"].Value)
			}
		}
	}

	cells := map[string]map[string]aaCell{}
	var problems []string
	for _, name := range workloadNames {
		cells[name] = map[string]aaCell{}
		for _, e := range spec.EndToEnd {
			a, b := values[0][name][e.Name], values[1][name][e.Name]
			cell := aaCell{Unit: units[e.Name], Bound: e.Bound,
				Medians: [2]float64{median(a), median(b)},
				Spreads: [2]float64{quartileSpread(a), quartileSpread(b)}}
			cell.Worse = (cell.Medians[1] - cell.Medians[0]) / cell.Medians[0]
			if e.Better == "higher" {
				cell.Worse = -cell.Worse
			}
			cells[name][e.Name] = cell
			fmt.Printf("%-12s %-20s medians %12.4f %12.4f %-6s spread %.4f %.4f  set2 worse by %+.4f  (bound %.2f)\n",
				name, e.Name, cell.Medians[0], cell.Medians[1], cell.Unit, cell.Spreads[0], cell.Spreads[1], cell.Worse, e.Bound)
			if e.Name != "setup_s" && max(cell.Spreads[0], cell.Spreads[1]) > e.Bound {
				problems = append(problems, fmt.Sprintf("%s %s: spread %.4f exceeds bound %.2f", name, e.Name, max(cell.Spreads[0], cell.Spreads[1]), e.Bound))
			}
			if cell.Worse > e.Bound {
				problems = append(problems, fmt.Sprintf("%s %s: second set worse by %.4f, bound %.2f", name, e.Name, cell.Worse, e.Bound))
			}
		}
	}
	// A disagreeing run is reported, not recorded: the committed baseline is
	// always one that met the rule.
	if len(problems) > 0 {
		return fmt.Errorf("A/A disagreement: %v", problems)
	}

	doc := map[string]any{
		"host": hostFingerprint(), "runs_per_set": runs, "first_seed": cfg.seed,
		"run_seconds": cfg.window.Seconds(), "workloads": cells,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	baselinePath := filepath.Join(root, "bench", "baseline", "aa.json")
	if err := os.MkdirAll(filepath.Dir(baselinePath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(baselinePath, append(out, '\n'), 0o644)
}
