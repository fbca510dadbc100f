package classic_test

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"decorr/internal/classic"
	"decorr/internal/engine"
	"decorr/internal/parser"
	"decorr/internal/qgm"
	"decorr/internal/semant"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

func bind(t *testing.T, db *storage.DB, sql string) *qgm.Graph {
	t.Helper()
	q, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	return g
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

// expectEqual runs sql under NI and under the given strategy and compares.
func expectEqual(t *testing.T, db *storage.DB, sql string, s engine.Strategy) {
	t.Helper()
	e := engine.New(db)
	ni, _, err := e.Query(sql, engine.NI)
	if err != nil {
		t.Fatalf("NI: %v", err)
	}
	got, _, err := e.Query(sql, s)
	if err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	if render(got) != render(ni) {
		t.Fatalf("%s diverges:\n got %s\nwant %s", s, render(got), render(ni))
	}
}

func TestKimRemovesCorrelation(t *testing.T) {
	db := tpcd.EmpDept()
	g := bind(t, db, `
		select d.name from dept d
		where d.budget > (select min(budget) from dept d2 where d2.building = d.building)`)
	if err := classic.ApplyKim(g); err != nil {
		t.Fatal(err)
	}
	for _, b := range qgm.Boxes(g.Root) {
		for _, q := range b.Quants {
			if qgm.IsCorrelated(q.Input) {
				t.Fatal("correlation remains after Kim")
			}
		}
	}
	if err := qgm.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestKimCorrectWhenNoCountBug(t *testing.T) {
	// MIN with a null-rejecting predicate: Kim is semantically fine.
	expectEqual(t, tpcd.EmpDept(), `
		select d.name from dept d
		where d.budget > (select min(budget) from dept d2 where d2.building = d.building)`,
		engine.Kim)
}

func TestKimNotApplicableCases(t *testing.T) {
	db := tpcd.EmpDept()
	cases := map[string]string{
		"non-equality correlation": `
			select d.name from dept d
			where d.num_emps > (select count(*) from emp e where e.building < d.building)`,
		"correlation outside body": `
			select d.name from dept d
			where d.num_emps > (select count(*) + d.budget from emp e where e.building = d.building)`,
		"grouped subquery": `
			select d.name from dept d
			where d.num_emps > (select count(*) from emp e where e.building = d.building group by e.name)`,
	}
	for name, sql := range cases {
		t.Run(name, func(t *testing.T) {
			var g *qgm.Graph
			func() {
				defer func() { recover() }() // grouped scalar may fail bind-time checks
				g = bind(t, db, sql)
			}()
			if g == nil {
				t.Skip("did not bind")
			}
			if err := classic.ApplyKim(g); !errors.Is(err, classic.ErrNotApplicable) {
				t.Errorf("got %v, want ErrNotApplicable", err)
			}
		})
	}
}

func TestDayalCorrectOnExample(t *testing.T) {
	expectEqual(t, tpcd.EmpDept(), tpcd.ExampleQuery, engine.Dayal)
}

func TestDayalCountBugFixedByWitness(t *testing.T) {
	// The archives department (empty building) must survive Dayal's
	// rewrite: COUNT(*) becomes COUNT(witness), counting zero for the
	// NULL-extended row.
	e := engine.New(tpcd.EmpDept())
	rows, _, err := e.Query(tpcd.ExampleQuery, engine.Dayal)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r[0].S == "archives" {
			found = true
		}
	}
	if !found {
		t.Fatal("Dayal lost the empty-building department (COUNT bug)")
	}
}

func TestDayalRequiresKeys(t *testing.T) {
	// A database whose outer table declares no key.
	db := storage.NewDB()
	def := tpcd.EmpDept().Catalog.Lookup("dept")
	clone := *def
	clone.Keys = nil
	db.Create(&clone)
	db.Create(tpcd.EmpDept().Catalog.Lookup("emp"))
	for _, r := range tpcd.EmpDept().MustTable("dept").RowForm() {
		if err := db.MustTable("dept").Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	g := bind(t, db, tpcd.ExampleQuery)
	if err := classic.ApplyDayal(g); !errors.Is(err, classic.ErrNotApplicable) {
		t.Errorf("got %v, want ErrNotApplicable (no declared key)", err)
	}
}

func TestDayalMultipleSubqueriesNotApplicable(t *testing.T) {
	g := bind(t, tpcd.EmpDept(), `
		select d.name from dept d
		where d.num_emps > (select count(*) from emp e where e.building = d.building)
		  and d.budget < (select sum(budget) from dept d2 where d2.building = d.building)`)
	if err := classic.ApplyDayal(g); !errors.Is(err, classic.ErrNotApplicable) {
		t.Errorf("got %v, want ErrNotApplicable", err)
	}
}

func TestKimHandlesMultipleSubqueries(t *testing.T) {
	expectEqual(t, tpcd.EmpDept(), `
		select d.name from dept d
		where d.budget > (select min(budget) from dept d2 where d2.building = d.building)
		  and d.budget <= (select max(budget) from dept d3 where d3.building = d.building)`,
		engine.Kim)
}

func TestGanskiWongSingleTableOnly(t *testing.T) {
	expectEqual(t, tpcd.EmpDept(), tpcd.ExampleQuery, engine.GanskiWong)

	e := engine.New(tpcd.EmpDept())
	_, err := e.Prepare(`
		select d.name from dept d, emp e0
		where e0.building = d.building
		  and d.num_emps > (select count(*) from emp e where e.building = d.building)`,
		engine.GanskiWong)
	if !errors.Is(err, classic.ErrNotApplicable) {
		t.Errorf("multi-table outer block: got %v, want ErrNotApplicable", err)
	}
}

func TestClassicNoOpOnUncorrelated(t *testing.T) {
	db := tpcd.EmpDept()
	for _, apply := range []func(*qgm.Graph) error{classic.ApplyKim, classic.ApplyDayal} {
		g := bind(t, db, "select name from dept where budget < 10000")
		if err := apply(g); err != nil {
			t.Errorf("uncorrelated query rejected: %v", err)
		}
	}
}

func TestDayalAvgExpressionWrapper(t *testing.T) {
	// The subquery's projection multiplies the aggregate; Dayal must
	// recompose it above the new group box.
	expectEqual(t, tpcd.Generate(tpcd.Config{SF: 0.02, Seed: 7}), tpcd.Query2, engine.Dayal)
}
