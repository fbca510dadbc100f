package exec_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"decorr/internal/exec"
	"decorr/internal/qgm"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// TestColumnarNestedSteps pins the columnar engine's nested steps — the
// scalar, existential/universal and lateral quantifiers a select box runs
// in place through the row binders — against the row path. Every statement
// runs under nested iteration and NIBatch (ReuseNone, ReuseBatch), with the
// vectorized engine on and off, at workers 1, 2 and 8, on the paper's
// EmpDept and on a random EmpDept with NULLs in every nullable column.
// Each run returns nested iteration's row-path bag (or its error, the same
// error text), and within a reuse policy every run that succeeds has the
// same Stats.
// The statement's root must be planned columnar whenever the engine is on,
// so the in-place path is what runs.
func TestColumnarNestedSteps(t *testing.T) {
	cases := []struct {
		name, sql string
		mutate    func(*qgm.Graph)
		err       string // the error every run must fail with, if any
	}{
		{name: "scalar-correlated", sql: `select d.name,
			  (select count(*) from emp e where e.building = d.building)
			from dept d`},
		{name: "scalar-in-predicate", sql: `select d.name from dept d
			where d.num_emps > (select count(*) from emp e where e.building = d.building)`},
		{name: "scalar-two-rows", sql: `select e.name,
			  (select d.name from dept d where d.building = e.building)
			from emp e`, err: "scalar subquery returned"},
		{name: "exists", sql: `select d.name from dept d
			where exists (select * from emp e where e.building = d.building)`},
		{name: "not-exists", sql: `select d.name from dept d
			where not exists (select * from emp e where e.building = d.building and e.name <> d.name)`},
		{name: "in-correlated", sql: `select d.name from dept d
			where d.building in (select e.building from emp e where e.name <> d.name)`},
		{name: "in-uncorrelated", sql: `select e.name from emp e
			where e.building in (select d.building from dept d where d.budget > 5000)`},
		{name: "not-in", sql: `select e.name from emp e
			where e.building not in (select d.building from dept d where d.budget < 9000)`},
		{name: "any", sql: `select d.name from dept d
			where d.budget > any (select d2.budget from dept d2
			                      where d2.building = d.building and d2.name <> d.name)`},
		{name: "all", sql: `select d.name from dept d
			where d.num_emps >= all (select d2.num_emps from dept d2 where d2.building = d.building)`},
		{name: "all-uncorrelated", sql: `select d.name from dept d
			where d.budget > all (select d2.budget from dept d2 where d2.num_emps > 2)`},
		// Nothing of the box is bound when the subquery runs: it is placed
		// before the first ForEach.
		{name: "exists-before-foreach", sql: `select d.name from dept d
			where exists (select * from emp e where e.building = 'B1') and d.budget < 9000`},
		{name: "scalar-before-foreach", sql: `select d.name from dept d
			where d.budget > (select avg(d2.budget) from dept d2)`},
		// e is read only by the tie predicate, never by the subquery's
		// subtree: the step's Env must bind it all the same.
		{name: "tie-only-quantifier", sql: `select d.name, e.name from dept d, emp e
			where d.building = e.building
			  and e.name in (select e2.name from emp e2 where e2.building = d.building)`},
		{name: "tie-only-uncorrelated", sql: `select d.name, e.name from dept d, emp e
			where d.building = e.building and e.name = any (select e2.name from emp e2)`},
		{name: "lateral", sql: `select d.name, x.c from dept d,
			  (select count(*) from emp e where e.building = d.building) as x(c)`},
		// No SQL text binds to a predicate tying two subquery quantifiers;
		// fusing the two ANY conjuncts into one builds the shape by hand.
		{name: "two-subquery-tie", sql: `select d.name from dept d
			where d.budget > any (select d2.budget from dept d2)
			  and d.num_emps < any (select count(*) from emp e2 group by e2.building)`,
			mutate: func(g *qgm.Graph) {
				p := g.Root.Preds
				g.Root.Preds = []qgm.Expr{&qgm.Bin{Op: qgm.OpAnd, L: p[0], R: p[1]}}
			}, err: "two subquery quantifiers"},
	}
	dbs := []struct {
		name string
		db   *storage.DB
	}{
		{"EmpDept", tpcd.EmpDept()},
		{"EmpDeptRandom", tpcd.EmpDeptRandom(3, 40, 160, 8)},
	}
	for _, d := range dbs {
		for _, c := range cases {
			t.Run(d.name+"/"+c.name, func(t *testing.T) {
				g := mustBind(t, d.db, c.sql)
				if c.mutate != nil {
					c.mutate(g)
				}
				if err := checkNestedParity(t, d.db, g); !strings.Contains(fmt.Sprint(err), c.err) || (err == nil) != (c.err == "") {
					t.Fatalf("error %v, want one containing %q", err, c.err)
				}
			})
		}
	}
	// Query 3's lateral derived table over TPC-D.
	db := tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 7})
	t.Run("TPCD/Query3", func(t *testing.T) {
		if err := checkNestedParity(t, db, mustBind(t, db, tpcd.Query3)); err != nil {
			t.Fatal(err)
		}
	})
}

// checkNestedParity runs g under every (reuse, engine, workers)
// combination against nested iteration's row path at one worker, and
// returns that path's error.
func checkNestedParity(t *testing.T, db *storage.DB, g *qgm.Graph) error {
	t.Helper()
	run := func(reuse exec.Reuse, rowMode bool, w int) ([]string, exec.Stats, error, *exec.Plan) {
		plan := exec.NewPlan(db, g, rowMode)
		ex := plan.Executor(exec.Options{Reuse: reuse, Workers: w})
		rows, err := ex.Run(g)
		bag := render(rows)
		slices.Sort(bag)
		return bag, ex.Stats, err, plan
	}
	wantBag, _, wantErr, _ := run(exec.ReuseNone, true, 1)
	for _, reuse := range []exec.Reuse{exec.ReuseNone, exec.ReuseBatch} {
		var wantStats *exec.Stats
		for _, rowMode := range []bool{true, false} {
			for _, w := range []int{1, 2, 8} {
				where := fmt.Sprintf("reuse=%d rowmode=%v workers=%d", reuse, rowMode, w)
				bag, stats, err, plan := run(reuse, rowMode, w)
				if plan.Columnar(g.Root) == rowMode {
					t.Fatalf("%s: root planned columnar=%v", where, !rowMode)
				}
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: error %v, nested iteration's row path %v", where, err, wantErr)
				}
				if !slices.Equal(bag, wantBag) {
					t.Fatalf("%s: rows %v, nested iteration's row path %v", where, bag, wantBag)
				}
				if err != nil {
					continue // how far a failing run got depends on the workers
				}
				if wantStats == nil {
					wantStats = &stats
				} else if stats != *wantStats {
					t.Fatalf("%s: stats %+v, want %+v", where, stats, *wantStats)
				}
			}
		}
	}
	return wantErr
}
