package exec

import (
	"fmt"
	"math"

	"decorr/internal/qgm"
)

// selPred is one classified conjunct of a select box.
type selPred struct {
	expr qgm.Expr
	deps map[*qgm.Quantifier]bool // b's own row-contributing quantifiers referenced
	sub  *qgm.Quantifier          // subquery quantifier tied by this predicate, if any
}

// selectPlan is everything the executor decides about a select box before
// it sees a row: the classified predicates, each quantifier's sibling
// correlation, the binding order, and whether the vectorized engine may
// run it. buildSelectPlan is its only producer; the row evaluator, the
// columnar evaluator, the cost model, EstimateGrowth and JoinOrder read
// it. A plan is immutable once built — analyze memoizes one per box and
// every worker and every nested-iteration re-entry shares it — so whatever
// a walk over it mutates lives in a selState.
type selectPlan struct {
	preds []*selPred
	// err rejects the box: a predicate ties two subquery quantifiers.
	// Evaluation returns it; ordering and costing still see a full plan.
	err error
	// sibs holds, per quantifier, the row-contributing quantifiers of the
	// same box its input subtree references (lateral/scalar correlation).
	sibs  map[*qgm.Quantifier]map[*qgm.Quantifier]bool
	order []*qgm.Quantifier
	col   bool // the columnar engine can evaluate the box (colSelectable)
}

// correlated reports whether q's input must be re-evaluated per tuple of
// its siblings (nested iteration) rather than once per box evaluation.
func (p *selectPlan) correlated(q *qgm.Quantifier) bool { return len(p.sibs[q]) > 0 }

// selState is the mutable half of one walk over a selectPlan — an
// evaluation, a costing pass or the ordering simulation: which quantifiers
// are bound and which predicates are consumed (applied[i] pairs with
// preds[i]).
type selState struct {
	preds   []*selPred
	applied []bool
	bound   map[*qgm.Quantifier]bool
}

func (p *selectPlan) newState() *selState {
	return &selState{preds: p.preds, applied: make([]bool, len(p.preds)), bound: map[*qgm.Quantifier]bool{}}
}

// takeReady consumes the unapplied ordinary predicates whose quantifiers
// are all bound: the evaluators filter the tuple stream through them after
// every bind step.
func (st *selState) takeReady() []*selPred {
	var ready []*selPred
	for i, pi := range st.preds {
		if !st.applied[i] && pi.sub == nil && depsSubset(pi.deps, st.bound, nil) {
			ready = append(ready, pi)
			st.applied[i] = true
		}
	}
	return ready
}

// bind is the evaluators' bind-then-filter step with the filtering left
// out, for the ordering simulation and the cost model.
func (st *selState) bind(q *qgm.Quantifier) {
	st.bound[q] = true
	st.takeReady()
}

// takeLocal consumes the unapplied predicates referencing only q (plus
// outer bindings): they narrow q's rows before any join.
func (st *selState) takeLocal(q *qgm.Quantifier) []*selPred {
	var local []*selPred
	for i, pi := range st.preds {
		if !st.applied[i] && pi.sub == nil && len(pi.deps) == 1 && pi.deps[q] {
			local = append(local, pi)
			st.applied[i] = true
		}
	}
	return local
}

// takeJoinable consumes the unapplied predicates connecting q to the bound
// set: an index probe evaluates them per candidate row.
func (st *selState) takeJoinable(q *qgm.Quantifier) []*selPred {
	var local []*selPred
	for i, pi := range st.preds {
		if !st.applied[i] && pi.sub == nil && pi.deps[q] && depsSubset(pi.deps, st.bound, q) {
			local = append(local, pi)
			st.applied[i] = true
		}
	}
	return local
}

// takeEquiJoin consumes the equality predicates connecting q to the bound
// set and returns their two sides — the hash-join keys.
func (st *selState) takeEquiJoin(q *qgm.Quantifier) (qSides, boundSides []qgm.Expr) {
	for i, pi := range st.preds {
		if st.applied[i] || pi.sub != nil || !pi.deps[q] || !depsSubset(pi.deps, st.bound, q) {
			continue
		}
		if qs, bs, ok := splitEqui(pi.expr, q, st.bound); ok {
			qSides = append(qSides, qs)
			boundSides = append(boundSides, bs)
			st.applied[i] = true
		}
	}
	return qSides, boundSides
}

// checkDone is the evaluators' closing assertion: every predicate of b was
// consumed by some bind step.
func (st *selState) checkDone(b *qgm.Box) error {
	for i, pi := range st.preds {
		if !st.applied[i] {
			return fmt.Errorf("exec: predicate %s left unapplied in box %d", qgm.FormatExpr(pi.expr), b.ID)
		}
	}
	return nil
}

// planOf returns select box b's memoized plan. A box analyze did not visit
// is planned on the spot and not stored: the memo is written only before
// any fan-out, never from a worker.
func (ex *Exec) planOf(b *qgm.Box) *selectPlan {
	if p := ex.plans[b]; p != nil {
		return p
	}
	return ex.buildSelectPlan(b)
}

// JoinOrder computes the static binding order of all quantifiers of a
// select box. ForEach quantifiers are ordered greedily by estimated growth
// (selective scans first, connected joins before cross products); scalar
// and existential quantifiers are then placed at the position of minimum
// estimated intermediate cardinality among positions where their
// dependencies are satisfied.
//
// This placement rule reproduces the optimizer behavior the paper reports:
// Query 1's subquery runs after the outer joins (they shrink the
// intermediate result below the number of qualifying parts), while Query
// 2's subquery runs right after the Parts scan, before the join with
// Lineitem inflates the tuple count (§5.3). Magic decorrelation reuses this
// same order to split off the supplementary table (§7) — on boxes it is in
// the middle of rewriting, which is why this entry plans b afresh on every
// call instead of reading the per-box memo.
func (ex *Exec) JoinOrder(b *qgm.Box) []*qgm.Quantifier {
	return ex.buildSelectPlan(b).order
}

// buildSelectPlan classifies b's predicates, records sibling correlation,
// simulates the greedy binding order and judges columnar eligibility.
func (ex *Exec) buildSelectPlan(b *qgm.Box) *selectPlan {
	p := &selectPlan{
		preds: make([]*selPred, 0, len(b.Preds)),
		sibs:  make(map[*qgm.Quantifier]map[*qgm.Quantifier]bool, len(b.Quants)),
	}
	own := make(map[*qgm.Quantifier]bool, len(b.Quants))
	for _, q := range b.Quants {
		own[q] = true
	}
	for _, e := range b.Preds {
		pi := &selPred{expr: e, deps: map[*qgm.Quantifier]bool{}}
		for q := range qgm.QuantSet(e) {
			if !own[q] {
				continue
			}
			if q.Kind.IsSubquery() {
				if pi.sub != nil && pi.sub != q {
					p.err = fmt.Errorf("exec: predicate references two subquery quantifiers")
				}
				pi.sub = q
			} else {
				pi.deps[q] = true
			}
		}
		p.preds = append(p.preds, pi)
	}
	// deps are the ordering constraints: sibling correlation for every
	// quantifier, plus — for subquery quantifiers — whatever their tie
	// predicates reference.
	deps := map[*qgm.Quantifier]map[*qgm.Quantifier]bool{}
	for _, q := range b.Quants {
		sib := map[*qgm.Quantifier]bool{}
		for _, r := range qgm.FreeRefs(q.Input) {
			if own[r.Q] && !r.Q.Kind.IsSubquery() {
				sib[r.Q] = true
			}
		}
		p.sibs[q] = sib
		deps[q] = sib
		if q.Kind.IsSubquery() {
			d := map[*qgm.Quantifier]bool{}
			for x := range sib {
				d[x] = true
			}
			for _, pi := range p.preds {
				if pi.sub == q {
					for x := range pi.deps {
						d[x] = true
					}
				}
			}
			deps[q] = d
		}
	}

	// Correlated scalar subqueries are "late" like the existential kinds
	// (they do not grow the intermediate result); lateral ForEach
	// quantifiers join rows and participate in the greedy order with a
	// dependency constraint.
	var fquants, late []*qgm.Quantifier
	for _, q := range b.Quants {
		if q.Kind == qgm.QForEach {
			fquants = append(fquants, q)
		} else {
			late = append(late, q)
		}
	}

	// Greedy order over ForEach quantifiers with dependency constraints,
	// recording the estimated cardinality after each step.
	st := p.newState()
	var order []*qgm.Quantifier
	card := []float64{1}
	cur := 1.0
	remaining := append([]*qgm.Quantifier(nil), fquants...)
	for len(remaining) > 0 {
		best, bestScore := -1, math.Inf(1)
		for i, q := range remaining {
			if !depsSubset(deps[q], st.bound, nil) {
				continue
			}
			score := ex.estQuantGrowth(q, st)
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			// Dependency cycle among lateral quantifiers; fall back to
			// declared order to avoid losing quantifiers entirely.
			best = 0
		}
		q := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		order = append(order, q)
		st.bind(q)
		cur *= bestScoreOr(bestScore, 1)
		cur = math.Max(cur, 1)
		card = append(card, cur)
	}

	// Place each late quantifier at the cheapest legal position.
	type insertion struct {
		q   *qgm.Quantifier
		pos int
	}
	var ins []insertion
	for _, q := range late {
		earliest := 0
		for d := range deps[q] {
			for i, oq := range order {
				if oq == d && i+1 > earliest {
					earliest = i + 1
				}
			}
		}
		bestPos, bestCard := earliest, math.Inf(1)
		for pos := earliest; pos < len(card); pos++ {
			if card[pos] < bestCard {
				bestPos, bestCard = pos, card[pos]
			}
		}
		ins = append(ins, insertion{q: q, pos: bestPos})
	}
	// Build the final interleaving: after binding order[:pos], insert all
	// late quantifiers placed at pos (declared order).
	for pos := 0; pos <= len(order); pos++ {
		for _, in := range ins {
			if in.pos == pos {
				p.order = append(p.order, in.q)
			}
		}
		if pos < len(order) {
			p.order = append(p.order, order[pos])
		}
	}
	p.col = ex.colOK && ex.colSelectable(b, p)
	return p
}

func bestScoreOr(v, def float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return def
	}
	return v
}
