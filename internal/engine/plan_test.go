package engine_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/tpcd"
)

// A prepared statement keeps the physical plan it was priced with: prepare
// builds one plan per strategy (Auto two, the nested-iteration family's
// and OptMagic's), and no execution of it — repeated, concurrent,
// streamed or profiled — builds another.
func TestPreparedPlanBuiltOnce(t *testing.T) {
	e := engine.New(tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 42}))
	for _, s := range []engine.Strategy{engine.NI, engine.NIBatch, engine.OptMagic, engine.Auto} {
		var p *engine.Prepared
		var err error
		built := counterDelta("exec.plans", func() { p, err = e.Prepare(tpcd.Query2, s) })
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		want := int64(1)
		if s == engine.Auto {
			want = 2
		}
		if built != want {
			t.Errorf("%s: prepare built %d plans, want %d", s, built, want)
		}
		if d := counterDelta("exec.plans", func() {
			for i := 0; i < 3; i++ {
				if _, _, err := p.Run(); err != nil {
					t.Error(err)
				}
			}
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := p.Run(); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			st, err := p.Stream(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for batch, err := st.Next(); batch != nil || err != nil; batch, err = st.Next() {
				if err != nil {
					t.Fatal(err)
				}
			}
			st.Close()
			if _, err := p.ExplainAnalyze(); err != nil {
				t.Error(err)
			}
		}); d != 0 {
			t.Errorf("%s: executions built %d plans, want 0", s, d)
		}
	}
}

// Auto prices the plan that runs: under Engine.RowMode that is the row
// interpreter's plan, priced as the DECORR_ROWMODE escape hatch prices it
// and dearer than the columnar plan.
func TestRowModeAutoPricesRowPlan(t *testing.T) {
	db := tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 42})
	queries := []struct{ name, sql string }{
		{"Query1", tpcd.Query1}, {"Query1b", tpcd.Query1b},
		{"Query2", tpcd.Query2}, {"Query3", tpcd.Query3},
	}
	prepare := func(rowMode bool, sql string) *engine.Prepared {
		t.Helper()
		e := engine.New(db)
		e.RowMode = rowMode
		p, err := e.Prepare(sql, engine.Auto)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var col, row []*engine.Prepared
	for _, q := range queries {
		col, row = append(col, prepare(false, q.sql)), append(row, prepare(true, q.sql))
	}
	t.Setenv("DECORR_ROWMODE", "1")
	for i, q := range queries {
		env := prepare(false, q.sql)
		if row[i].EstimatedCost != env.EstimatedCost || fmt.Sprint(row[i].Alternatives) != fmt.Sprint(env.Alternatives) {
			t.Errorf("%s: RowMode races %v, the row path %v", q.name, row[i].Alternatives, env.Alternatives)
		}
		if row[i].EstimatedCost <= col[i].EstimatedCost {
			t.Errorf("%s: the row plan prices at %v, not above the columnar plan's %v",
				q.name, row[i].EstimatedCost, col[i].EstimatedCost)
		}
	}
}

// A Plan fixes its index probes: after index DDL a statement prepared
// before it fails cleanly or still answers right, and one prepared after
// it answers as nested iteration did. The plan cache re-prepares after
// index DDL: a cached plan neither probes a dropped index nor keeps
// scanning past a new one.
func TestIndexDDLNeedsFreshPrepare(t *testing.T) {
	for _, rowMode := range []bool{false, true} {
		db := tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 42})
		e := engine.New(db)
		e.RowMode = rowMode
		e.EnablePlanCache(16)
		cached := func() *engine.Prepared {
			t.Helper()
			p, err := e.PrepareCached(tpcd.Query1b, engine.NI)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		run := func(p *engine.Prepared) ([]string, int64, error) {
			t.Helper()
			rows, stats, err := p.Run()
			if err != nil {
				return nil, 0, err
			}
			got := ordered(rows)
			slices.Sort(got)
			return got, stats.IndexLookups, nil
		}
		prepare := func() *engine.Prepared {
			t.Helper()
			p, err := e.Prepare(tpcd.Query1b, engine.NI)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		probing := prepare()
		want, probes, err := run(probing)
		if err != nil || probes == 0 {
			t.Fatalf("rowMode=%v: %d index lookups, err %v; the statement does not probe ps_partkey", rowMode, probes, err)
		}
		if got, lookups, err := run(cached()); err != nil || lookups != probes || !slices.Equal(got, want) {
			t.Fatalf("rowMode=%v: cached plan: %d rows (NI has %d), %d index lookups of %d, err %v",
				rowMode, len(got), len(want), lookups, probes, err)
		}
		partsupp := db.MustTable("partsupp")
		if err := partsupp.DropIndex("ps_partkey"); err != nil {
			t.Fatal(err)
		}
		if got, lookups, err := run(cached()); err != nil || lookups >= probes || !slices.Equal(got, want) {
			t.Errorf("rowMode=%v: cached after DropIndex: %d rows (NI has %d), %d index lookups of %d, err %v",
				rowMode, len(got), len(want), lookups, probes, err)
		}
		if _, _, err := run(probing); err == nil || !strings.Contains(err.Error(), "vanished mid-plan") {
			t.Errorf("rowMode=%v: a plan probing a dropped index returned %v, want the vanished-index error", rowMode, err)
		}
		scanning := prepare()
		got, lookups, err := run(scanning)
		if err != nil || lookups >= probes || !slices.Equal(got, want) {
			t.Errorf("rowMode=%v: prepared after DropIndex: %d rows (NI has %d), %d index lookups of %d, err %v",
				rowMode, len(got), len(want), lookups, probes, err)
		}
		if err := partsupp.CreateIndex("ps_partkey"); err != nil {
			t.Fatal(err)
		}
		if got, lookups, err := run(cached()); err != nil || lookups != probes || !slices.Equal(got, want) {
			t.Errorf("rowMode=%v: cached after CreateIndex: %d rows (NI has %d), %d index lookups, want %d, err %v",
				rowMode, len(got), len(want), lookups, probes, err)
		}
		got, again, err := run(scanning)
		if err != nil || again != lookups || !slices.Equal(got, want) {
			t.Errorf("rowMode=%v: the scanning plan after CreateIndex: %d rows (NI has %d), %d index lookups, want %d, err %v",
				rowMode, len(got), len(want), again, lookups, err)
		}
		if got, _, err := run(probing); err != nil || !slices.Equal(got, want) {
			t.Errorf("rowMode=%v: the probing plan after CreateIndex: %d rows (NI has %d), err %v", rowMode, len(got), len(want), err)
		}
	}
}
