package exec

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
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
	c := &selectPlan{err: p.err, col: p.col, rowWhy: p.rowWhy,
		order: append([]*qgm.Quantifier(nil), p.order...),
		preds: make([]*selPred, 0, len(p.preds)),
		sibs:  map[*qgm.Quantifier]map[*qgm.Quantifier]bool{}}
	c.selWalk = p.selWalk.snapshot()
	for _, pi := range p.preds {
		c.preds = append(c.preds, &selPred{expr: pi.expr, sub: pi.sub, deps: maps.Clone(pi.deps)})
	}
	for q, sib := range p.sibs {
		c.sibs[q] = maps.Clone(sib)
	}
	return c
}

func (w selWalk) snapshot() selWalk {
	preds := func(ps []*selPred) []*selPred { return append([]*selPred(nil), ps...) }
	exprs := func(es []qgm.Expr) []qgm.Expr { return append([]qgm.Expr(nil), es...) }
	c := selWalk{pre: preds(w.pre), left: w.left, steps: make([]Step, 0, len(w.steps))}
	for _, s := range w.steps {
		s.ties, s.filter, s.after = preds(s.ties), preds(s.filter), preds(s.after)
		s.QKeys, s.BoundKeys = exprs(s.QKeys), exprs(s.BoundKeys)
		s.NullSafe = append([]bool(nil), s.NullSafe...)
		c.steps = append(c.steps, s)
	}
	return c
}

// snapshot copies the whole Plan the same way: every memo, select plan
// and batch site afresh.
func (p *Plan) snapshot() *Plan {
	c := *p
	c.est, c.refs = maps.Clone(p.est), maps.Clone(p.refs)
	c.volatileBox, c.colGrp = maps.Clone(p.volatileBox), maps.Clone(p.colGrp)
	c.freeRefs = map[*qgm.Box][]qgm.RefKey{}
	for b, fr := range p.freeRefs {
		c.freeRefs[b] = slices.Clone(fr)
	}
	c.plans = map[*qgm.Box]*selectPlan{}
	for b, sp := range p.plans {
		c.plans[b] = sp.snapshot()
	}
	c.batch = map[*qgm.Quantifier]*batchSite{}
	for q, site := range p.batch {
		sig := &qgm.BatchSignature{Skip: maps.Clone(site.sig.Skip),
			Outer: append([]qgm.Expr(nil), site.sig.Outer...), Inner: append([]qgm.Expr(nil), site.sig.Inner...)}
		c.batch[q] = &batchSite{sig: sig, walk: site.walk.snapshot()}
	}
	return &c
}

// TestSelectPlanSharedDeterminism pins the Plan's contract: NewPlan builds
// one selectPlan per select box, and any number of concurrent executions
// of the Plan — under either reuse policy, at one worker or eight — and
// the cost model read it without writing to it, its select plans, their
// steps, its memos or its batch sites. Each engine (row mode is a plan
// input) gets its own Plan; rows and Stats agree across all of them. The
// nested-iteration fan-out re-enters the subquery boxes from all workers
// and all executions at once, so under -race this is also the check that
// the per-execution state really left the plan. The e3 EXISTS takes
// NIBatch's single-execution path along its site's stripped walk.
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
	type result struct {
		name  string
		reuse Reuse
		rows  string
		stats Stats
		err   error
	}
	var want string
	wantStats := map[Reuse]Stats{}
	for _, rowMode := range []bool{false, true} {
		plan := NewPlan(db, g, rowMode)
		single := false
		for _, q := range g.Root.Quants {
			single = single || q.Kind == qgm.QExists && plan.batch[q] != nil
		}
		if !single {
			t.Fatal("no EXISTS takes NIBatch's single-execution path; the stripped-root walk goes untested")
		}
		if len(plan.plans) < 4 {
			t.Fatalf("rowMode=%v: %d select plans, want the root and all three subqueries", rowMode, len(plan.plans))
		}
		snap := plan.snapshot()
		results := make(chan result, 16)
		var wg sync.WaitGroup
		for _, reuse := range []Reuse{ReuseNone, ReuseBatch} {
			for _, workers := range []int{1, 8} {
				for run := 0; run < 2; run++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						ex := plan.Executor(Options{Reuse: reuse, Workers: workers})
						rows, err := ex.Run(g)
						if ex.plan != plan {
							err = fmt.Errorf("the execution planned its graph afresh")
						}
						name := fmt.Sprintf("rowMode=%v/reuse=%d/workers=%d/run=%d", rowMode, reuse, workers, run)
						results <- result{name, reuse, fmt.Sprint(rows), ex.Stats, err}
					}()
				}
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan.EstimateCost(ReuseBatch, true)
		}()
		wg.Wait()
		close(results)
		for r := range results {
			if r.err != nil {
				t.Fatalf("%s: %v", r.name, r.err)
			}
			if want == "" {
				want = r.rows
			} else if r.rows != want {
				t.Errorf("%s: rows differ from the first execution", r.name)
			}
			if ws, ok := wantStats[r.reuse]; !ok {
				wantStats[r.reuse] = r.stats
			} else if r.stats != ws {
				t.Errorf("%s: stats %+v, want %+v", r.name, r.stats, ws)
			}
		}
		if !reflect.DeepEqual(plan, snap) {
			t.Errorf("rowMode=%v: the plan was written to after NewPlan", rowMode)
		}
	}
}
