package bench

import (
	"fmt"

	"decorr/internal/engine"
	"decorr/internal/parallel"
	"decorr/internal/tpcd"
)

// Table1 regenerates the paper's Table 1: the TPC-D table cardinalities.
// At SF=1.0 the counts equal the paper's exactly; the report shows both the
// SF=1 contract and the cardinalities of the experiment database.
func Table1(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	db := tpcd.Generate(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed})
	r := &Report{ID: "table1", Title: "TPC-D database (Table 1)",
		Paper: "customers 15,000 | parts 20,000 | suppliers 1,000 | partsupp 80,000 | lineitem 600,000 (120 MB)",
		Scale: fmt.Sprintf("SF=%g seed=%d", cfg.SF, cfg.Seed)}
	paper := map[string]int{
		"customers": tpcd.BaseCustomers, "parts": tpcd.BaseParts,
		"suppliers": tpcd.BaseSuppliers, "partsupp": tpcd.BasePartSupp,
		"lineitem": tpcd.BaseLineItem,
	}
	r.Extra = append(r.Extra, fmt.Sprintf("%-10s %10s %14s", "table", "tuples", "paper (SF=1)"))
	for _, name := range []string{"customers", "parts", "suppliers", "partsupp", "lineitem"} {
		t := db.Table(name)
		r.Extra = append(r.Extra, fmt.Sprintf("%-10s %10d %14d", name, t.Len(), paper[name]))
	}
	return r, nil
}

// Figure1 renders the QGM of the §2 example query — the textual analogue
// of the paper's Figure 1.
func Figure1(cfg Config) (*Report, error) {
	e := engine.New(tpcd.EmpDept())
	p, err := e.Prepare(tpcd.ExampleQuery, engine.NI)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig1", Title: "example query QGM (Figure 1)",
		Paper: "SELECT box over DEPT correlated to an aggregate subquery over EMP"}
	r.Extra = append(r.Extra, p.Explain())
	return r, nil
}

// Figures2to4 replays the magic decorrelation rewrite on the example query
// and prints every captured stage — the paper's Figures 2 (FEED), 3
// (ABSORB non-SPJ) and 4 (ABSORB SPJ).
func Figures2to4(cfg Config) (*Report, error) {
	e := engine.New(tpcd.EmpDept())
	p, err := e.PrepareTraced(tpcd.ExampleQuery, engine.Magic)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "fig2-4", Title: "magic decorrelation stages (Figures 2–4)",
		Paper: "FEED: SUPP + MAGIC projected; ABSORB: grouping extended by the correlation column; LOJ removes the COUNT bug"}
	for i, s := range p.Trace.Steps {
		r.Extra = append(r.Extra, fmt.Sprintf("--- stage %d: %s ---", i, s.Title))
		r.Extra = append(r.Extra, s.Plan)
	}
	return r, nil
}

// Figure5 is Query 1 with all indexes present.
func Figure5(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	db := tpcd.Generate(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed})
	return runFigure(db, cfg, "fig5", "Query 1, all indexes (Figure 5)",
		"few invocations, no duplicates: Mag slightly beats NI; Kim wasteful; Dayal competitive; Mag pays SUPP recomputation",
		tpcd.Query1, allStrategies)
}

// Figure6 is the Query 1(b) sensitivity variant: thousands of invocations,
// many duplicated bindings.
func Figure6(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	db := tpcd.Generate(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed})
	return runFigure(db, cfg, "fig6", "Query 1(b), wide predicates (Figure 6)",
		"Mag stays best; Kim improves (less wasted work); Dayal degrades (large join before aggregation, redundant aggregations)",
		tpcd.Query1b, allStrategies)
}

// Figure7 is Query 1(c): the index used inside the subquery is dropped,
// inflating the cost of each correlated invocation. (The paper drops the
// PartSupp index its plan probed per invocation; our nested-iteration plan
// probes ps_partkey, so that is the index dropped — see DESIGN.md.)
func Figure7(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	db := tpcd.Generate(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed})
	if err := db.MustTable("partsupp").DropIndex("ps_partkey"); err != nil {
		return nil, err
	}
	return runFigure(db, cfg, "fig7", "Query 1(c), subquery index dropped (Figure 7)",
		"NI degrades badly (full scans per invocation); Mag far ahead of NI; Kim comparable to Mag; Dayal poor",
		tpcd.Query1b, allStrategies)
}

// Figure8 is Query 2: the correlation attribute is a key, the subquery is
// cheap — decorrelation should not help, and must not hurt.
func Figure8(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	db := tpcd.Generate(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed})
	return runFigure(db, cfg, "fig8", "Query 2, key correlation (Figure 8)",
		"OptMag comparable to NI; Mag slightly worse (SUPP recomputation); Kim and Dayal orders of magnitude worse",
		tpcd.Query2, allStrategies)
}

// Figure9 is Query 3: non-linear (UNION) with only 5 distinct correlation
// values — Kim and Dayal are inapplicable, magic wins by a large factor.
func Figure9(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	db := tpcd.Generate(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed})
	return runFigure(db, cfg, "fig9", "Query 3, non-linear with duplicates (Figure 9)",
		"Kim/Dayal not applicable (UNION); Mag yields a large improvement: 5 distinct of ~200 bindings",
		tpcd.Query3, allStrategies)
}

// Parallel sweeps cluster sizes for the §6 analysis.
func Parallel(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	db := tpcd.EmpDeptSized(int(4000*cfg.SF)+100, int(20000*cfg.SF)+500, 32, cfg.Seed)
	r := &Report{ID: "parallel", Title: "shared-nothing execution of the example query (§6)",
		Paper: "NI: per-binding broadcasts, O(n²) fragments; magic: one repartition per table, local joins"}
	r.Extra = append(r.Extra, fmt.Sprintf("%-6s %-9s %10s %10s %10s %10s %10s",
		"nodes", "plan", "messages", "shipped", "fragments", "work", "makespan"))
	for _, n := range []int{2, 4, 8, 16, 32} {
		c := parallel.Config{Nodes: n}
		ni, err := parallel.RunNestedIteration(db, c)
		if err != nil {
			return nil, err
		}
		mg, err := parallel.RunMagic(db, c)
		if err != nil {
			return nil, err
		}
		for _, row := range []struct {
			plan string
			m    parallel.Metrics
		}{{"NI", ni.Metrics}, {"Magic", mg.Metrics}} {
			r.Extra = append(r.Extra, fmt.Sprintf("%-6d %-9s %10d %10d %10d %10d %10d",
				n, row.plan, row.m.Messages, row.m.RowsShipped, row.m.Fragments,
				row.m.Work, row.m.Makespan))
		}
	}
	// Co-partitioned baseline (§6.1 case 1).
	c := parallel.Config{Nodes: 8, Placement: parallel.PartitionByCorrelation}
	ni, err := parallel.RunNestedIteration(db, c)
	if err != nil {
		return nil, err
	}
	r.Extra = append(r.Extra, fmt.Sprintf("%-6d %-9s %10d %10d %10d %10d %10d   (co-partitioned NI, §6.1 case 1)",
		8, "NI", ni.Metrics.Messages, ni.Metrics.RowsShipped, ni.Metrics.Fragments,
		ni.Metrics.Work, ni.Metrics.Makespan))
	return r, nil
}

// ParallelTPCD extends the §6 analysis from the example query to the
// paper's own workload, using the generalized shared-nothing plan model:
// the nested-iteration and magic-decorrelated QGM plans of Queries 1(b)
// and 3 are costed for message traffic and computation fragments.
func ParallelTPCD(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	db := tpcd.Generate(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed})
	e := engine.New(db)
	r := &Report{ID: "parallel-tpcd", Title: "shared-nothing plan costs for the TPC-D queries (§6 generalized)",
		Paper: "decorrelated plans repartition once per table; nested iteration pays a broadcast and n fragments per binding",
		Scale: fmt.Sprintf("TPC-D SF=%g seed=%d, 8 nodes", cfg.SF, cfg.Seed)}
	r.Extra = append(r.Extra, fmt.Sprintf("%-10s %-6s %10s %10s %10s %8s",
		"query", "plan", "messages", "shipped", "fragments", "phases"))
	for _, q := range []struct{ name, sql string }{
		{"Query 1b", tpcd.Query1b},
		{"Query 2", tpcd.Query2},
		{"Query 3", tpcd.Query3},
	} {
		for _, s := range []engine.Strategy{engine.NI, engine.Magic} {
			p, err := e.Prepare(q.sql, s)
			if err != nil {
				return nil, err
			}
			m := parallel.PlanCost(db, p.Graph, parallel.Config{Nodes: 8})
			r.Extra = append(r.Extra, fmt.Sprintf("%-10s %-6s %10d %10d %10d %8d",
				q.name, s, m.Messages, m.RowsShipped, m.Fragments, m.Phases))
		}
	}
	return r, nil
}

// Ablations exercises the §4.4 / §5.3 knobs: materializing the
// supplementary common subexpression, magic decorrelation without
// outer-join support, and magic sets.
func Ablations(cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	db := tpcd.Generate(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed})
	r := &Report{ID: "ablation", Title: "knob ablations",
		Paper: "§5.3: materializing SUPP would make Mag comparable to Dayal on Query 1 and better elsewhere",
		Scale: fmt.Sprintf("TPC-D SF=%g seed=%d", cfg.SF, cfg.Seed)}

	e := engine.New(db)
	e.MaterializeCSE = false // the Starburst recompute the paper measured
	base, err := measure(e, tpcd.Query1, engine.Magic, cfg.Repeats)
	if err != nil {
		return nil, err
	}
	base.Strategy = "Mag"
	r.Lines = append(r.Lines, base)

	e.MaterializeCSE = true
	mat, err := measure(e, tpcd.Query1, engine.Magic, cfg.Repeats)
	if err != nil {
		return nil, err
	}
	mat.Strategy = "Mag+CSE"
	r.Lines = append(r.Lines, mat)
	e.MaterializeCSE = false

	// Magic without outer-join support: partial decorrelation on the
	// example query (which needs the COUNT-bug LOJ).
	ed := engine.New(tpcd.EmpDept())
	ed.CoreOpts.UseOuterJoin = false
	noLOJ, err := measure(ed, tpcd.ExampleQuery, engine.Magic, cfg.Repeats)
	if err != nil {
		return nil, err
	}
	noLOJ.Strategy = "Mag-LOJ"
	noLOJ.Note = fmt.Sprintf("example query, no outer join: %d correlated invocations remain (partial decorrelation)",
		noLOJ.Stats.SubqueryInvocations)
	r.Lines = append(r.Lines, noLOJ)

	// Magic sets ([MFPR90]): restrict a grouped derived table to its join
	// bindings before aggregating.
	const msQuery = `
		select p.p_partkey, t.total
		from parts p,
		  (select l_partkey, sum(l_quantity) from lineitem group by l_partkey) as t(k, total)
		where p.p_partkey = t.k and p.p_brand = 'Brand#23' and p.p_container = '6 PACK'`
	plainMS, err := measure(engine.New(db), msQuery, engine.NI, cfg.Repeats)
	if err != nil {
		return nil, err
	}
	plainMS.Strategy = "view-join"
	r.Lines = append(r.Lines, plainMS)
	ems := engine.New(db)
	ems.MagicSets = true
	withMS, err := measure(ems, msQuery, engine.NI, cfg.Repeats)
	if err != nil {
		return nil, err
	}
	withMS.Strategy = "+magicset"
	r.Lines = append(r.Lines, withMS)
	return r, nil
}
