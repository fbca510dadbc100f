package core_test

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"decorr/internal/core"
	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/parser"
	"decorr/internal/qgm"
	"decorr/internal/rewrite"
	"decorr/internal/semant"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
	"decorr/internal/trace"
)

// diff runs sql under NI and under Magic (with the given engine knobs) and
// asserts identical multisets; it returns the Magic stats.
func diff(t *testing.T, db *storage.DB, sql string, tune func(*engine.Engine)) *exec.Stats {
	t.Helper()
	e := engine.New(db)
	if tune != nil {
		tune(e)
	}
	niRows, _, err := e.Query(sql, engine.NI)
	if err != nil {
		t.Fatalf("NI: %v", err)
	}
	magRows, stats, err := e.Query(sql, engine.Magic)
	if err != nil {
		t.Fatalf("Magic: %v", err)
	}
	if got, want := render(magRows), render(niRows); got != want {
		t.Fatalf("Magic diverges from NI on %q:\n got %s\nwant %s", sql, got, want)
	}
	return stats
}

// optsFor is full decorrelation with the executor's join order, wired the
// way the engine wires it: Decorrelate has no order of its own.
func optsFor(db *storage.DB) core.Options {
	opts := core.DefaultOptions()
	opts.Order = exec.New(db, exec.Options{}).JoinOrder
	return opts
}

func render(rows []storage.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// The catalogue of correlated query shapes magic decorrelation must
// handle; each is differentially tested against nested iteration.
func TestDecorrelationCatalogue(t *testing.T) {
	db := tpcd.EmpDept()
	cases := []struct {
		name, sql  string
		decorrDone bool // expect zero remaining invocations
	}{
		{"scalar count", tpcd.ExampleQuery, true},
		{"scalar min null-rejecting", `
			select d.name from dept d
			where d.budget > (select min(budget) from dept d2 where d2.building = d.building)`, true},
		{"scalar in output position", `
			select d.name, (select count(*) from emp e where e.building = d.building) from dept d`, true},
		{"scalar sum null output", `
			select d.name, (select sum(budget) from dept d2
			                where d2.building = d.building and d2.budget > d.budget) from dept d`, true},
		{"exists", `
			select d.name from dept d
			where exists (select * from emp e where e.building = d.building)`, true},
		{"not exists", `
			select d.name from dept d
			where not exists (select * from emp e where e.building = d.building)`, true},
		{"in with non-equality correlation", `
			select e.name from emp e
			where e.building in (select building from dept d where d.budget < e.name)`, true},
		{"in correlated", `
			select d.name from dept d
			where d.num_emps in (select count(*) from emp e where e.building = d.building)`, true},
		{"all stays correlated", `
			select d.name from dept d
			where d.budget <= all (select budget from dept d2 where d2.building = d.building)`, false},
		{"multi-level", `
			select d.name from dept d
			where d.num_emps > (
				select count(*) from emp e
				where e.building = d.building and exists (
					select * from emp e2 where e2.building = d.building and e2.name < e.name))`, true},
		{"two subqueries", `
			select d.name from dept d
			where d.num_emps > (select count(*) from emp e where e.building = d.building)
			  and d.budget < (select sum(budget) from dept d2 where d2.building = d.building)`, true},
		{"correlated derived table", `
			select d.name, t.n from dept d,
			  (select count(*) from emp e where e.building = d.building) as t(n)
			where d.budget < 10000`, true},
		{"union subquery", `
			select d.name, t.n from dept d,
			  (select sum(x) from
			    ((select budget from dept a where a.building = d.building)
			     union all
			     (select num_emps from dept b where b.building = d.building)) as u(x)
			  ) as t(n)`, true},
		{"union distinct subquery", `
			select d.name, t.n from dept d,
			  (select sum(x) from
			    ((select budget from dept a where a.building = d.building)
			     union
			     (select budget from dept b where b.building = d.building)) as u(x)
			  ) as t(n)`, true},
		{"intersect subquery", `
			select d.name, t.n from dept d,
			  (select count(x) from
			    ((select building from emp e where e.building = d.building)
			     intersect all
			     (select building from dept d2 where d2.building = d.building)) as u(x)
			  ) as t(n)`, true},
		{"except subquery", `
			select d.name, t.n from dept d,
			  (select count(x) from
			    ((select building from dept d2 where d2.building = d.building)
			     except
			     (select building from emp e where e.building = d.building)) as u(x)
			  ) as t(n)`, true},
		{"avg with expression", `
			select e.name from emp e
			where 1 < (select 0.5 * count(*) from emp e2 where e2.building = e.building)`, true},
		{"correlation under group arg", `
			select d.name from dept d
			where d.budget >= (select max(d.num_emps + d2.budget) from dept d2
			                   where d2.building = d.building)`, true},
		{"two correlation columns", `
			select d.name from dept d
			where d.num_emps >= (select count(*) from dept d2
			                     where d2.building = d.building and d2.budget < d.budget)`, true},
		{"correlated expression not bare column", `
			select d.name from dept d
			where d.budget > (select sum(d2.num_emps) from dept d2
			                  where d2.budget < d.budget + 500)`, true},
		{"not exists with extra condition", `
			select d.name from dept d
			where not exists (select * from emp e
			                  where e.building = d.building and e.name like 'a%')`, true},
		{"exists under scalar compensation", `
			select d.name,
			  (select count(*) from dept d2
			   where d2.building = d.building
			     and exists (select * from emp e where e.building = d2.building))
			from dept d`, true},
		{"duplicate corr values", `
			select d.name, d2.name from dept d, dept d2
			where d.building = d2.building
			  and d.num_emps > (select count(*) from emp e where e.building = d.building)`, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stats := diff(t, db, c.sql, nil)
			if c.decorrDone && stats.SubqueryInvocations != 0 {
				t.Errorf("expected full decorrelation, %d invocations remain", stats.SubqueryInvocations)
			}
			if !c.decorrDone && stats.SubqueryInvocations == 0 {
				t.Errorf("expected residual correlation, found none")
			}
		})
	}
}

func TestKnobNoExistentialDecorrelation(t *testing.T) {
	db := tpcd.EmpDept()
	sql := `select d.name from dept d
	        where exists (select * from emp e where e.building = d.building)`
	stats := diff(t, db, sql, func(e *engine.Engine) {
		e.CoreOpts.DecorrelateExistential = false
	})
	if stats.SubqueryInvocations == 0 {
		t.Error("existential knob off, but the subquery was decorrelated anyway")
	}
}

func TestKnobNoOuterJoinPartialDecorrelation(t *testing.T) {
	db := tpcd.EmpDept()
	// COUNT needs the compensation LOJ; with outer joins disabled the
	// aggregate stays correlated but the answer must stay right.
	stats := diff(t, db, tpcd.ExampleQuery, func(e *engine.Engine) {
		e.CoreOpts.UseOuterJoin = false
	})
	if stats.SubqueryInvocations == 0 {
		t.Error("without outer joins the COUNT subquery must remain correlated")
	}
}

// TestTraceCapturesEveryStage checks both views of a decorrelation: the
// Trace's QGM snapshots, and the tracer's rule spans — one rule:feed span
// that fired per fed quantifier, then one that found nothing left to feed.
func TestTraceCapturesEveryStage(t *testing.T) {
	db := tpcd.EmpDept()
	for _, c := range []struct {
		sql string
		fed int
	}{
		{tpcd.ExampleQuery, 1},
		{`select d.name from dept d
		  where d.num_emps > (select count(*) from emp e where e.building = d.building)
		    and d.budget < (select sum(budget) from dept d2 where d2.building = d.building)`, 2},
	} {
		q, err := parser.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		g, err := semant.Bind(q, db.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		if err := rewrite.NewCleanup().Run(g); err != nil {
			t.Fatal(err)
		}
		tr := &core.Trace{}
		ring := trace.NewRingSink(0)
		opts := optsFor(db)
		opts.Tracer = trace.New(ring)
		if err := core.Decorrelate(g, opts, tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Steps) < 5 {
			t.Fatalf("only %d stages captured", len(tr.Steps))
		}
		if tr.Steps[0].Title == "" || !strings.Contains(tr.Steps[0].Title, "initial") {
			t.Errorf("first stage = %q", tr.Steps[0].Title)
		}
		ties := 0
		for _, s := range tr.Steps {
			if !strings.Contains(s.Plan, "Box") {
				t.Errorf("stage %q has no plan", s.Title)
			}
			if strings.Contains(s.Title, "tied to outer block") {
				ties++
			}
		}
		if ties != c.fed {
			t.Fatalf("%d quantifiers tied to the outer block, want %d", ties, c.fed)
		}
		var fired []string
		for _, ev := range ring.Events() {
			if ev.Name != "rule:feed" {
				continue
			}
			for _, a := range ev.Args {
				if a.Key == "fired" {
					fired = append(fired, fmt.Sprint(a.Value))
				}
			}
		}
		var want []string
		for range c.fed {
			want = append(want, "true")
		}
		want = append(want, "false")
		if !slices.Equal(fired, want) {
			t.Errorf("rule:feed spans fired %v, want %v", fired, want)
		}
	}
}

func TestDecorrelatedPlanMentionsHelperBoxes(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	p, err := e.Prepare(tpcd.ExampleQuery, engine.Magic)
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Explain()
	for _, want := range []string{"SUPP", "MAGIC", "BUGFIX", "LOJ", "coalesce"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	// And the decorrelated plan has no remaining correlation markers.
	if strings.Contains(plan, "correlated") {
		t.Errorf("plan still correlated:\n%s", plan)
	}
}

func TestValidAfterDecorrelation(t *testing.T) {
	for _, sql := range []string{
		tpcd.ExampleQuery,
	} {
		q, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		db := tpcd.EmpDept()
		g, err := semant.Bind(q, db.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.Decorrelate(g, core.DefaultOptions(), nil); err == nil {
			t.Fatal("Decorrelate accepted a nil Options.Order")
		}
		if err := core.Decorrelate(g, optsFor(db), nil); err != nil {
			t.Fatal(err)
		}
		if err := qgm.Validate(g); err != nil {
			t.Fatalf("invalid graph after decorrelation: %v", err)
		}
	}
}

func TestUncorrelatedQueryUntouched(t *testing.T) {
	q, err := parser.Parse("select name from dept where budget < 10000")
	if err != nil {
		t.Fatal(err)
	}
	db := tpcd.EmpDept()
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	before := len(qgm.Boxes(g.Root))
	if err := core.Decorrelate(g, optsFor(db), nil); err != nil {
		t.Fatal(err)
	}
	if got := len(qgm.Boxes(g.Root)); got != before {
		t.Errorf("uncorrelated query rewritten: %d -> %d boxes", before, got)
	}
}

// TestManySubqueriesDecorrelate: every firing of the feed rule is one pass
// of the rewrite engine, so a statement with more correlated subqueries
// than the engine's default 64 passes would stop at ErrNoFixpoint unless
// Decorrelate sizes its run to the graph. Prepare only: run, the magic
// plan recomputes its shared boxes per reference.
func TestManySubqueriesDecorrelate(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("select e.name")
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&sb, ", (select count(*) from dept d where d.building = e.building) as c%d", i)
	}
	sb.WriteString(" from emp e")
	p, err := engine.New(tpcd.EmpDept()).Prepare(sb.String(), engine.OptMagic)
	if errors.Is(err, rewrite.ErrNoFixpoint) {
		t.Fatalf("the feed rule ran out of passes: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if plan := p.Explain(); strings.Contains(plan, "correlated") {
		t.Errorf("plan still correlated:\n%s", plan)
	}
}
