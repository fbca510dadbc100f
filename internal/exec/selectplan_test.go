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

// snapshot copies a plan — fresh slices and maps over the same
// quantifier, expression and table pointers, every step's predicate and
// key lists included — so a later DeepEqual against the live plan detects
// any write to it.
func (p *selectPlan) snapshot() *selectPlan {
	preds := func(ps []*selPred) []*selPred { return append([]*selPred(nil), ps...) }
	exprs := func(es []qgm.Expr) []qgm.Expr { return append([]qgm.Expr(nil), es...) }
	c := &selectPlan{err: p.err, col: p.col,
		order: append([]*qgm.Quantifier(nil), p.order...),
		preds: make([]*selPred, 0, len(p.preds)),
		sibs:  map[*qgm.Quantifier]map[*qgm.Quantifier]bool{}}
	c.pre, c.left, c.steps = preds(p.pre), p.left, make([]Step, 0, len(p.steps))
	for _, s := range p.steps {
		s.ties, s.filter, s.after = preds(s.ties), preds(s.filter), preds(s.after)
		s.QKeys, s.BoundKeys = exprs(s.QKeys), exprs(s.BoundKeys)
		s.NullSafe = append([]bool(nil), s.NullSafe...)
		c.steps = append(c.steps, s)
	}
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
// evaluation writes to it or to its steps, whatever the reuse policy,
// worker count or engine. The nested-iteration fan-out re-enters the
// subquery boxes from all workers at once, so under -race this is also the
// check that the per-evaluation state really left the plan. The e3 EXISTS
// takes NIBatch's single-execution path, whose stripped root is walked on
// the spot: that walk must leave the memo alone too.
func TestSelectPlanSharedDeterminism(t *testing.T) {
	db := tpcd.EmpDeptSized(60, 240, 7, 11)
	q, err := parser.Parse(`
		select d.name,
		  (select count(*) from emp e where e.building = d.building)
		from dept d, emp m
		where d.building = m.building and d.budget > 1000
		  and exists (select * from emp e2 where e2.building = d.building and e2.name <> m.name)
		  and exists (select * from emp e3 where e3.building = m.building and e3.name <> 'emp-0')`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.Bind(q, db.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	single, probe := false, New(db, Options{})
	probe.analyze(g.Root)
	for _, q := range g.Root.Quants {
		if _, ok := qgm.ExtractBatchSignature(q.Input, probe.varyingQuants(q.Input, g.Root)); ok && q.Kind == qgm.QExists {
			single = true
		}
	}
	if !single {
		t.Fatal("no EXISTS takes NIBatch's single-execution path; the stripped-root walk goes untested")
	}
	var want string
	for _, reuse := range []Reuse{ReuseNone, ReuseBatch} {
		for _, workers := range []int{1, 8} {
			for _, rowMode := range []bool{false, true} {
				name := fmt.Sprintf("reuse=%d/workers=%d/rowMode=%v", reuse, workers, rowMode)
				ex := New(db, Options{Reuse: reuse, Workers: workers, DisableColumnar: rowMode})
				ex.analyze(g.Root)
				memo := map[*qgm.Box]*selectPlan{}
				snap := map[*qgm.Box]*selectPlan{}
				for _, b := range qgm.Boxes(g.Root) {
					if b.Kind != qgm.BoxSelect {
						continue
					}
					p := ex.plans[b]
					if p == nil {
						t.Fatalf("%s: box %d has no memoized plan after analyze", name, b.ID)
					}
					memo[b], snap[b] = p, p.snapshot()
				}
				if len(memo) < 4 {
					t.Fatalf("%s: %d select boxes, want the root and all three subqueries", name, len(memo))
				}
				planned := len(ex.plans)
				for run := 0; run < 2; run++ {
					rows, err := ex.Run(g)
					if err != nil {
						t.Fatalf("%s: run %d: %v", name, run, err)
					}
					if got := fmt.Sprint(rows); want == "" {
						want = got
					} else if got != want {
						t.Errorf("%s: run %d: rows differ from the first configuration", name, run)
					}
				}
				ex.EstimateCost(g)
				if len(ex.plans) != planned {
					t.Errorf("%s: %d memoized plans after two runs, want %d", name, len(ex.plans), planned)
				}
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
