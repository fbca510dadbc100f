package engine_test

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// auditSF rescales TestCostAudit for the reader (EXPERIMENTS.md's §7 table
// and the derivation of cost.go's constants are its SF=1 printout); the
// bands are asserted at the default only.
var auditSF = flag.Float64("audit-sf", 0.1, "TPC-D scale factor for TestCostAudit")

// auditRaced are the strategies Auto races, in table order, with the reuse
// policy each runs under.
var auditRaced = []struct {
	s     engine.Strategy
	reuse exec.Reuse
}{
	{engine.NI, exec.ReuseNone},
	{engine.NIBatch, exec.ReuseBatch},
	{engine.OptMagic, exec.ReuseNone},
}

// auditBands holds, per (statement, strategy) at SF=0.1 seed 42, the band
// for estimated ÷ actual row operations (exec.EstimateWork against
// Stats.Work()) and for estimated ÷ actual box evaluations. Both sides
// repeat exactly for a seed, so a row leaving its band is a changed model
// or a changed plan, never noise. A band is the ratio the model achieves
// ±10 %; rows far from 1 are the open mis-estimates ROADMAP item 1 lists.
var auditBands = map[string][2]float64{
	"Query1/NI":       {0.96, 0.73},
	"Query1/NIBatch":  {0.96, 0.73},
	"Query1/OptMag":   {0.96, 1.00},
	"Query1b/NI":      {0.77, 0.78},
	"Query1b/NIBatch": {0.90, 1.08},
	"Query1b/OptMag":  {1.17, 1.00},
	"Query2/NI":       {1.48, 0.75},
	"Query2/NIBatch":  {1.48, 0.75},
	"Query2/OptMag":   {1.52, 1.00},
	"Query3/NI":       {2.38, 0.65},
	"Query3/NIBatch":  {10.32, 3.86},
	"Query3/OptMag":   {9.28, 1.00},
	"Example/NI":      {1.90, 1.11},
	"Example/NIBatch": {1.82, 1.00},
	"Example/OptMag":  {1.81, 1.00},
}

// TestCostAudit prints, for the paper's statements under every strategy
// Auto races, the estimated cost beside what execution actually did, and
// holds the model's row-operation and box-evaluation estimates inside
// auditBands of the actual counters. `make cost-audit` wraps it.
func TestCostAudit(t *testing.T) {
	tpcdDB := tpcd.Generate(tpcd.Config{SF: *auditSF, Seed: 42})
	cases := []struct {
		name string
		db   *storage.DB
		sql  string
	}{
		{"Query1", tpcdDB, tpcd.Query1},
		{"Query1b", tpcdDB, tpcd.Query1b},
		{"Query2", tpcdDB, tpcd.Query2},
		{"Query3", tpcdDB, tpcd.Query3},
		{"Example", tpcd.EmpDept(), tpcd.ExampleQuery},
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-8s %9s | %8s %8s %5s | %6s %6s %5s | %6s %6s %8s  %s\n",
		"query", "strategy", "est.cost", "est.ops", "work", "ratio", "est.ev", "evals", "ratio", "invoc", "batch", "ms", "auto")
	for _, c := range cases {
		e := engine.New(c.db)
		e.Workers = 1
		auto, err := e.Prepare(c.sql, engine.Auto)
		if err != nil {
			t.Fatalf("%s/auto: %v", c.name, err)
		}
		for _, r := range auditRaced {
			p, err := e.Prepare(c.sql, r.s)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, r.s, err)
			}
			us, stats := timeRuns(t, p, 5)
			// Estimate under the options the engine runs with, as Prepare does.
			ops, evals := exec.NewPlan(c.db, p.Graph, e.RowMode).EstimateWork(r.reuse, e.MaterializeCSE)
			opsRatio, evalsRatio := ops/float64(stats.Work()), evals/float64(stats.BoxEvals)
			mark := ""
			if auto.Chosen == r.s {
				mark = "<- " + strings.SplitN(auto.Explain(), "\n", 2)[0]
			}
			fmt.Fprintf(&sb, "%-8s %-8s %9.0f | %8.0f %8d %5.2f | %6.0f %6d %5.2f | %6d %6d %8.2f  %s\n",
				c.name, r.s, p.EstimatedCost, ops, stats.Work(), opsRatio, evals, stats.BoxEvals, evalsRatio,
				stats.SubqueryInvocations, stats.BatchExecutions, us[len(us)/2]/1e3, mark)

			for _, a := range auto.Alternatives {
				if a.Strategy == r.s && a.Cost != p.EstimatedCost {
					t.Errorf("%s/%s: Auto costed the row at %v, Prepare at %v", c.name, r.s, a.Cost, p.EstimatedCost)
				}
			}
			if *auditSF != 0.1 {
				continue
			}
			key := c.name + "/" + r.s.String()
			band, ok := auditBands[key]
			if !ok {
				t.Errorf("%s: no band in auditBands", key)
				continue
			}
			for i, got := range []float64{opsRatio, evalsRatio} {
				if got < band[i]*0.9 || got > band[i]*1.1 {
					t.Errorf("%s: estimated/actual %s = %.2f, outside %.2f ±10%%", key, [...]string{"row operations", "box evaluations"}[i], got, band[i])
				}
			}
		}
	}
	t.Logf("TPCD SF=%g seed 42, 1 worker; ms is a median of 5, printed for the reader, never asserted\n%s\n%s",
		*auditSF, sb.String(), auditCalibration(t, tpcdDB))
}

// timeRuns executes p n times and returns the sorted run times in
// microseconds with the last run's counters.
func timeRuns(t *testing.T, p *engine.Prepared, n int) ([]float64, *exec.Stats) {
	t.Helper()
	var us []float64
	var stats *exec.Stats
	for i := 0; i < n; i++ {
		start := time.Now()
		_, st, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		stats = st
	}
	sort.Float64s(us)
	return us, stats
}

// The outer blocks of Query1b and Query2 with the subquery predicate
// removed: what their nested-iteration plans spend outside the subquery.
const (
	query1bOuter = `
Select s.s_name, s.s_acctbal, s.s_address, s.s_phone, s.s_comment
From parts p, suppliers s, partsupp ps
Where s.s_region in ('AMERICA', 'EUROPE') and p.p_type = 'BRASS'
  and p.p_partkey = ps.ps_partkey and s.s_suppkey = ps.ps_suppkey`
	query2Outer = `
Select p.p_partkey From parts p
Where p.p_brand = 'Brand#23' and p.p_container = '6 PACK'`
)

// auditCalibration measures what cost.go's two constants stand for, so the
// numbers in their comments and in EXPERIMENTS.md can be reproduced:
// wall-clock, best of 9, printed and never asserted.
func auditCalibration(t *testing.T, db *storage.DB) string {
	best := func(sql string, s engine.Strategy, rowMode bool) (float64, *exec.Stats) {
		e := engine.New(db)
		e.Workers, e.RowMode = 1, rowMode
		p, err := e.Prepare(sql, s)
		if err != nil {
			t.Fatal(err)
		}
		us, stats := timeRuns(t, p, 9)
		return us[0], stats
	}
	var sb strings.Builder
	var ratios []float64
	var colUs, colOps float64
	fmt.Fprintf(&sb, "rowPathFactor: the decorrelated plans (every box columnar) with RowMode on / off:")
	for _, c := range []struct{ name, sql string }{
		{"Query1", tpcd.Query1}, {"Query1b", tpcd.Query1b}, {"Query2", tpcd.Query2}, {"Query3", tpcd.Query3},
	} {
		col, stats := best(c.sql, engine.OptMagic, false)
		row, _ := best(c.sql, engine.OptMagic, true)
		colUs, colOps = colUs+col, colOps+float64(stats.Work())
		ratios = append(ratios, row/col)
		fmt.Fprintf(&sb, " %s %.0f/%.0f us = x%.1f;", c.name, row, col, row/col)
	}
	sort.Float64s(ratios)
	fmt.Fprintf(&sb, " median x%.1f\n", (ratios[1]+ratios[2])/2)
	colNs := colUs * 1e3 / colOps
	fmt.Fprintf(&sb, "columnar row operation: the same four plans, %.0f us / %.0f row operations = %.0f ns\n", colUs, colOps, colNs)

	fmt.Fprintf(&sb, "boxStartup: nested iteration beyond its outer block, per box evaluation:")
	for _, c := range []struct{ name, sql, outer string }{
		{"Query1b", tpcd.Query1b, query1bOuter}, {"Query2", tpcd.Query2, query2Outer},
	} {
		ni, niStats := best(c.sql, engine.NI, false)
		outer, outerStats := best(c.outer, engine.NI, false)
		evals := niStats.BoxEvals - outerStats.BoxEvals
		ops := niStats.Work() - outerStats.Work()
		perEval := (ni - outer - float64(ops)*colNs/1e3) / float64(evals)
		fmt.Fprintf(&sb, " %s (%.0f - %.0f us - %d row operations) / %d evaluations = %.1f us = %.0f row operations;",
			c.name, ni, outer, ops, evals, perEval, perEval*1e3/colNs)
	}
	sb.WriteString("\n")
	return sb.String()
}
