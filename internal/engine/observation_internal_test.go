package engine

import (
	"context"
	"fmt"
	"regexp"
	"testing"

	"decorr/internal/exec"
	"decorr/internal/qgm"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
	"decorr/internal/trace"
)

// TestObservationParity pins "observation must not change the thing
// observed": for every strategy-table row, paper statement, worker count
// and engine, a profiled Run returns the plain Run's rows and Stats, a
// traced Run (pinned to one worker by exec.New) the plain one-worker Run's,
// and the profile accounts every box the run evaluates with the same
// evals/rows in both engines — EXPLAIN ANALYZE reads the plan that runs.
func TestObservationParity(t *testing.T) {
	db := tpcd.Generate(tpcd.Config{SF: 0.1, Seed: 42})
	queries := []struct{ name, sql string }{
		{"Query1", tpcd.Query1}, {"Query1b", tpcd.Query1b},
		{"Query2", tpcd.Query2}, {"Query3", tpcd.Query3},
	}
	// FormatProfile without its wall-clock column and its engine label,
	// which differ between the engines by design.
	untimed := regexp.MustCompile(` time=\S+( col| row\(\w+\))?`)
	for _, row := range strategyTable {
		for _, q := range queries {
			t.Run(row.name+"/"+q.name, func(t *testing.T) {
				p, err := New(db).Prepare(q.sql, row.id)
				if err != nil {
					t.Skipf("prepare: %v", err)
				}
				run := func(w int, rowMode, profiled bool, tr *trace.Tracer) ([]string, exec.Stats, *exec.Exec) {
					t.Helper()
					opts := p.execOptions(context.Background(), nil, StreamOpts{Workers: w})
					opts.Tracer = tr
					ex := exec.NewPlan(db, p.Graph, rowMode).Executor(opts)
					if profiled {
						ex.EnableProfiling()
					}
					rows, err := ex.Run(p.Graph)
					if err != nil {
						t.Fatalf("workers=%d rowmode=%v profiled=%v traced=%v: %v", w, rowMode, profiled, tr != nil, err)
					}
					return renderRows(rows), ex.Stats, ex
				}
				profiles := map[bool]map[int]string{}
				for _, rowMode := range []bool{false, true} {
					profiles[rowMode] = map[int]string{}
					for _, w := range []int{1, 8} {
						where := fmt.Sprintf("workers=%d rowmode=%v", w, rowMode)
						rows, stats, _ := run(w, rowMode, false, nil)
						prows, pstats, pex := run(w, rowMode, true, nil)
						sameRun(t, where+" profiled", prows, pstats, rows, stats)
						if w == 1 {
							trows, tstats, _ := run(w, rowMode, false, trace.New(trace.NewRingSink(0)))
							sameRun(t, where+" traced", trows, tstats, rows, stats)
						}
						for _, b := range qgm.Boxes(p.Graph.Root) {
							if pex.BoxProfileOf(b).Evals == 0 {
								t.Errorf("%s: box %d %s evaluated but missing from the profile", where, b.ID, b.Kind)
							}
						}
						profiles[rowMode][w] = untimed.ReplaceAllString(pex.FormatProfile(p.Graph), "")
					}
				}
				for _, w := range []int{1, 8} {
					if col, rm := profiles[false][w], profiles[true][w]; col != rm {
						t.Errorf("workers=%d: profile differs between engines\n--- columnar ---\n%s--- row ---\n%s", w, col, rm)
					}
				}
			})
		}
	}
}

func renderRows(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

func sameRun(t *testing.T, what string, rows []string, stats exec.Stats, wantRows []string, wantStats exec.Stats) {
	t.Helper()
	if len(rows) != len(wantRows) {
		t.Fatalf("%s: %d rows, plain run %d", what, len(rows), len(wantRows))
	}
	for i := range rows {
		if rows[i] != wantRows[i] {
			t.Fatalf("%s row %d: %q, plain run %q", what, i, rows[i], wantRows[i])
		}
	}
	if stats != wantStats {
		t.Fatalf("%s: stats\n  %+v\nplain run\n  %+v", what, stats, wantStats)
	}
}
