package exec

import (
	"fmt"
	"reflect"
	"testing"

	"decorr/internal/parser"
	"decorr/internal/qgm"
	"decorr/internal/semant"
	"decorr/internal/tpcd"
)

// snapshot copies a plan one level deep — fresh slices and maps over the
// same quantifier and expression pointers — so a later DeepEqual against
// the live plan detects any write to it.
func (p *selectPlan) snapshot() *selectPlan {
	c := &selectPlan{err: p.err, col: p.col,
		order: append([]*qgm.Quantifier(nil), p.order...),
		preds: make([]*selPred, 0, len(p.preds)),
		sibs:  map[*qgm.Quantifier]map[*qgm.Quantifier]bool{}}
	for _, pi := range p.preds {
		cp := &selPred{expr: pi.expr, sub: pi.sub, deps: map[*qgm.Quantifier]bool{}}
		for d, v := range pi.deps {
			cp.deps[d] = v
		}
		c.preds = append(c.preds, cp)
	}
	for q, sib := range p.sibs {
		c.sibs[q] = map[*qgm.Quantifier]bool{}
		for d, v := range sib {
			c.sibs[q][d] = v
		}
	}
	return c
}

// TestSelectPlanSharedDeterminism pins the plan memo's contract: analyze
// builds one selectPlan per select box, every reader — row evaluator,
// columnar evaluator, cost model — gets that same pointer, and no
// evaluation writes to it, whatever the reuse policy, worker count or
// engine. The nested-iteration fan-out re-enters the subquery boxes from
// all workers at once, so under -race this is also the check that the
// per-evaluation state really left the plan.
func TestSelectPlanSharedDeterminism(t *testing.T) {
	db := tpcd.EmpDeptSized(60, 240, 7, 11)
	q, err := parser.Parse(`
		select d.name,
		  (select count(*) from emp e where e.building = d.building)
		from dept d, emp m
		where d.building = m.building
		  and exists (select * from emp e2 where e2.building = d.building and e2.name <> m.name)`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, reuse := range []Reuse{ReuseNone, ReuseBatch} {
		for _, workers := range []int{1, 8} {
			for _, rowMode := range []bool{false, true} {
				name := fmt.Sprintf("reuse=%d/workers=%d/rowMode=%v", reuse, workers, rowMode)
				ex := New(db, Options{Reuse: reuse, Workers: workers, DisableColumnar: rowMode})
				rows, err := ex.Run(g)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := fmt.Sprint(rows); want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s: rows differ from the first configuration", name)
				}
				memo := map[*qgm.Box]*selectPlan{}
				snap := map[*qgm.Box]*selectPlan{}
				for _, b := range qgm.Boxes(g.Root) {
					if b.Kind != qgm.BoxSelect {
						continue
					}
					p := ex.plans[b]
					if p == nil {
						t.Fatalf("%s: box %d has no memoized plan after Run", name, b.ID)
					}
					memo[b], snap[b] = p, p.snapshot()
				}
				if len(memo) < 3 {
					t.Fatalf("%s: %d select boxes, want the root and both subqueries", name, len(memo))
				}
				if _, err := ex.Run(g); err != nil {
					t.Fatalf("%s: second run: %v", name, err)
				}
				ex.EstimateCost(g)
				for b, p := range memo {
					if ex.plans[b] != p || ex.planOf(b) != p {
						t.Errorf("%s: box %d was re-planned", name, b.ID)
					}
					if !reflect.DeepEqual(p, snap[b]) {
						t.Errorf("%s: box %d's plan was written to after analyze", name, b.ID)
					}
				}
			}
		}
	}
}
