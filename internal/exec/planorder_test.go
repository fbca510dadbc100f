package exec_test

import (
	"strings"
	"testing"

	"decorr/internal/exec"
	"decorr/internal/parser"
	"decorr/internal/qgm"
	"decorr/internal/semant"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// orderOf binds sql against db and returns the join order of the box that
// owns the scalar subquery, as (position of scalar, names of inputs bound
// before it).
func orderOf(t *testing.T, db *storage.DB, sql string) (int, []string) {
	t.Helper()
	q, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.New(db, exec.Options{})
	for _, b := range qgm.Boxes(g.Root) {
		for _, qq := range b.Quants {
			if qq.Kind == qgm.QScalar {
				order := ex.JoinOrder(b)
				var before []string
				for i, oq := range order {
					if oq == qq {
						return i, before
					}
					label := "?"
					if oq.Input.Kind == qgm.BoxBase {
						label = oq.Input.Table.Name
					}
					_ = i
					before = append(before, label)
				}
				t.Fatal("scalar quantifier missing from join order")
			}
		}
	}
	t.Fatal("no scalar subquery in query")
	return 0, nil
}

// The paper's §5.3 observations about where the optimizer places the
// subquery: Query 1 runs it after the outer joins (they shrink the
// intermediate result), Query 2 runs it right after the Parts scan.
func TestJoinOrderSubqueryPlacement(t *testing.T) {
	db := tpcd.Generate(tpcd.Config{SF: 0.1, Seed: 42})

	pos, before := orderOf(t, db, tpcd.Query1)
	if pos != 3 {
		t.Errorf("Query 1: subquery at position %d after %v, want after all three joins", pos, before)
	}

	pos, before = orderOf(t, db, tpcd.Query2)
	if pos != 1 || before[0] != "parts" {
		t.Errorf("Query 2: subquery at position %d after %v, want right after parts", pos, before)
	}
}

func TestJoinOrderRespectsLateralDeps(t *testing.T) {
	db := tpcd.Generate(tpcd.Config{SF: 0.02, Seed: 42})
	q, err := parser.Parse(tpcd.Query3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.New(db, exec.Options{})
	order := ex.JoinOrder(g.Root)
	if len(order) != 2 {
		t.Fatalf("order length = %d", len(order))
	}
	// The lateral derived table references suppliers and must bind second.
	if order[0].Input.Kind != qgm.BoxBase || order[0].Input.Table.Name != "suppliers" {
		t.Errorf("first bound input = %v", order[0].Input.Label)
	}
}

func TestJoinOrderIncludesEveryQuantifierOnce(t *testing.T) {
	db := tpcd.EmpDept()
	q, err := parser.Parse(`
		select d.name from dept d, emp e
		where d.building = e.building
		  and exists (select * from emp e2 where e2.building = d.building)
		  and d.num_emps > (select count(*) from emp e3 where e3.building = d.building)`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	ex := exec.New(db, exec.Options{})
	order := ex.JoinOrder(g.Root)
	if len(order) != len(g.Root.Quants) {
		t.Fatalf("order has %d entries for %d quantifiers", len(order), len(g.Root.Quants))
	}
	seen := map[*qgm.Quantifier]bool{}
	for _, oq := range order {
		if seen[oq] {
			t.Fatal("quantifier appears twice in join order")
		}
		seen[oq] = true
	}
}

// The rewrites call JoinOrder on boxes they are in the middle of mutating
// (engine.orderer hands one Exec to core.Decorrelate), so it must plan the
// box as it stands on every call — even on an Exec whose per-box plan memo
// an earlier Run filled.
func TestJoinOrderSeesMutatedBox(t *testing.T) {
	db := tpcd.EmpDept()
	g := mustBind(t, db, `
		select d.name, e.name from dept d, emp e
		where d.building = e.building and e.name = 'anne'`)
	ex := exec.New(db, exec.Options{})
	if _, err := ex.Run(g); err != nil {
		t.Fatal(err)
	}
	names := func(order []*qgm.Quantifier) string {
		var s []string
		for _, q := range order {
			s = append(s, q.Input.Table.Name)
		}
		return strings.Join(s, " ")
	}
	if got := names(ex.JoinOrder(g.Root)); got != "emp dept" {
		t.Fatalf("order with the selective emp filter = %q, want emp first", got)
	}
	g.Root.Preds = g.Root.Preds[:1] // drop e.name = 'anne'
	if got := names(ex.JoinOrder(g.Root)); got != "dept emp" {
		t.Errorf("order after dropping the filter = %q, want the smaller dept first", got)
	}
}
