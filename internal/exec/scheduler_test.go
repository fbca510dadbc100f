package exec_test

import (
	"strings"
	"sync"
	"testing"

	"decorr/internal/exec"
	"decorr/internal/parser"
	"decorr/internal/qgm"
	"decorr/internal/semant"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// runWorkers executes sql with a fixed worker count, returning rendered
// rows in engine order (no sorting beyond the query's own ORDER BY).
func runWorkers(t *testing.T, db *storage.DB, sql string, workers int, rowMode bool) []string {
	t.Helper()
	g := mustBind(t, db, sql)
	rows, err := exec.NewPlan(db, g, rowMode).Executor(exec.Options{Workers: workers}).Run(g)
	if err != nil {
		t.Fatalf("run %q workers=%d: %v", sql, workers, err)
	}
	return render(rows)
}

func mustBind(t *testing.T, db *storage.DB, sql string) *qgm.Graph {
	t.Helper()
	q, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		t.Fatalf("bind %q: %v", sql, err)
	}
	if err := qgm.Validate(g); err != nil {
		t.Fatalf("validate %q: %v", sql, err)
	}
	return g
}

// TestParallelDeterminism pins the engine's central parallelism guarantee:
// the same query produces the same rows in the same order at workers 1, 2,
// and 8, in both engines — covering union dedup, group-by (COUNT, MIN, MAX,
// COUNT DISTINCT, and the float-accumulating SUM/AVG) through the one
// sequential fold, set operations, outer joins, and correlated subquery
// fan-out. This is the regression test for the dedupeRows/evalUnion/group
// ordering requirement.
func TestParallelDeterminism(t *testing.T) {
	queries := []struct {
		name, sql string
	}{
		{"union-distinct", `
			select building from dept
			union
			select building from emp`},
		{"union-all", `
			select name from dept where budget > 100
			union all
			select name from emp`},
		{"group-mergeable", `
			select building, count(*), min(budget), max(budget)
			from dept group by building`},
		{"group-float-fold", `
			select building, sum(budget), avg(budget)
			from dept group by building`},
		{"group-distinct", `
			select building, count(distinct name) from emp group by building`},
		{"select-distinct", `select distinct building from emp`},
		{"intersect", `
			select building from dept intersect select building from emp`},
		{"except-all", `
			select building from dept except all select building from emp`},
		{"left-join", `
			select d.name, e.name from dept d
			left join emp e on d.building = e.building`},
		{"correlated-exists", `
			select name from dept d where exists
			  (select * from emp e where e.building = d.building)`},
		{"correlated-scalar", `
			select d.name,
			  (select count(*) from emp e where e.building = d.building)
			from dept d`},
		{"count-bug-witness", tpcd.ExampleQuery},
		{"hash-join", `
			select e.name, d.name from emp e, dept d
			where e.building = d.building order by e.name, d.name`},
	}
	dbs := map[string]*storage.DB{
		"empdept": tpcd.EmpDept(),
		"sized":   tpcd.EmpDeptSized(60, 240, 7, 11),
	}
	for dbName, db := range dbs {
		for _, q := range queries {
			t.Run(dbName+"/"+q.name, func(t *testing.T) {
				want := runWorkers(t, db, q.sql, 1, false)
				for _, w := range []int{1, 2, 8} {
					for _, rowMode := range []bool{false, true} {
						if w == 1 && !rowMode {
							continue // the reference run
						}
						got := runWorkers(t, db, q.sql, w, rowMode)
						if len(got) != len(want) {
							t.Fatalf("workers=%d rowmode=%v: %d rows, want %d", w, rowMode, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("workers=%d rowmode=%v row %d: got %q want %q", w, rowMode, i, got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestParallelDeterministicError pins sequential error semantics: the first
// failing morsel in input order wins, so the reported error is identical at
// any worker count — and so is the plan builder's one verdict on a box it
// rejects, which ordering and costing must survive.
func TestParallelDeterministicError(t *testing.T) {
	db := tpcd.EmpDept()
	cases := []struct {
		name, sql string
		mutate    func(g *qgm.Graph)
		want      string
	}{
		// The scalar subquery yields several rows for buildings housing
		// more than one department — a per-tuple runtime error.
		{"scalar-cardinality", `select e.name,
		  (select d.name from dept d where d.building = e.building)
		from emp e`, nil, "scalar subquery returned"},
		// No SQL text binds to a predicate tying two subquery quantifiers;
		// fusing the two ANY conjuncts into one builds the shape by hand.
		{"two-subquery-tie", `select d.name from dept d
		where d.budget > any (select d2.budget from dept d2)
		  and d.num_emps < any (select count(*) from emp e2 group by e2.building)`,
			func(g *qgm.Graph) {
				p := g.Root.Preds
				g.Root.Preds = []qgm.Expr{&qgm.Bin{Op: qgm.OpAnd, L: p[0], R: p[1]}}
			}, "two subquery quantifiers"},
	}
	for _, c := range cases {
		g := mustBind(t, db, c.sql)
		if c.mutate != nil {
			c.mutate(g)
		}
		ex := exec.New(db, exec.Options{Workers: 1})
		if n := len(ex.JoinOrder(g.Root)); n != len(g.Root.Quants) {
			t.Errorf("%s: JoinOrder has %d of %d quantifiers", c.name, n, len(g.Root.Quants))
		}
		if cost := ex.EstimateCost(g); !(cost > 0) {
			t.Errorf("%s: EstimateCost = %v", c.name, cost)
		}
		_, err1 := ex.Run(g)
		if err1 == nil || !strings.Contains(err1.Error(), c.want) {
			t.Fatalf("%s: error %v, want one containing %q", c.name, err1, c.want)
		}
		for _, w := range []int{2, 8} {
			for _, rowMode := range []bool{false, true} {
				_, err := exec.NewPlan(db, g, rowMode).Executor(exec.Options{Workers: w}).Run(g)
				if err == nil || err.Error() != err1.Error() {
					t.Fatalf("%s workers=%d rowMode=%v: error %v, want %v", c.name, w, rowMode, err, err1)
				}
			}
		}
	}
}

// TestSchedulerHammer drives one Exec's scheduler hard under the race
// detector: a correlated workload with batching, memoization, CSE sharing,
// profiling and per-Run metrics publication, repeated so every
// synchronized structure (Stats atomics, memo/bindings/cse maps, profile
// map, estimator memos, storage statistics caches) is hit from many
// workers. The memo is reached through the last EXISTS: its inner
// subquery is correlated only to the outer block, so the middle box's
// per-binding evaluations, fanned out over the workers, share it. The
// assertions are secondary; the point is `go test -race ./internal/exec`.
func TestSchedulerHammer(t *testing.T) {
	db := tpcd.EmpDeptSized(80, 400, 6, 7)
	sql := `
		select d.name,
		  (select count(*) from emp e where e.building = d.building)
		from dept d
		where exists (select * from emp e2 where e2.building = d.building)
		  and d.budget >= (select min(budget) from dept)
		  and exists (select * from dept d3
		              where d3.name = d.name
		                and exists (select * from emp e3 where e3.building = d.building))`
	g := mustBind(t, db, sql)
	ex := exec.New(db, exec.Options{Workers: 8, Reuse: exec.ReuseBatch})
	ex.EnableProfiling()
	var want []string
	for i := 0; i < 6; i++ {
		rows, err := ex.Run(g)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		got := render(rows)
		if i == 0 {
			want = got
			if len(want) == 0 {
				t.Fatalf("hammer query returned no rows")
			}
			continue
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("run %d row %d: got %q want %q", i, j, got[j], want[j])
			}
		}
	}
	if ex.Stats.MemoHits == 0 {
		t.Error("the hammer never reached the memo cache")
	}
}

// TestConcurrentExecsShareTables runs independent Execs over the same DB
// concurrently (each itself parallel) — the storage statistics caches and
// the process metrics registry are the shared state under test.
func TestConcurrentExecsShareTables(t *testing.T) {
	db := tpcd.EmpDeptSized(40, 160, 5, 3)
	sql := `select building, count(*) from emp where name <> 'nobody' group by building`
	g := mustBind(t, db, sql)
	want := runWorkers(t, db, sql, 1, false)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, err := exec.New(db, exec.Options{Workers: 4}).Run(g)
			if err != nil {
				errs[i] = err
				return
			}
			got := render(rows)
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("exec %d row %d: got %q want %q", i, j, got[j], want[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
	}
}
