package exec

import (
	"fmt"
	"math"

	"decorr/internal/qgm"
	"decorr/internal/storage"
)

// selPred is one classified conjunct of a select box.
type selPred struct {
	expr qgm.Expr
	deps map[*qgm.Quantifier]bool // b's own row-contributing quantifiers referenced
	sub  *qgm.Quantifier          // subquery quantifier tied by this predicate, if any
}

// selectPlan is everything the executor decides about a select box before
// it sees a row: the classified predicates, each quantifier's sibling
// correlation, the binding order, the join step each quantifier takes in
// that order, and whether the vectorized engine may run it.
// buildSelectPlan is its only producer; the row evaluator, the columnar
// evaluator, the cost model, the scan streamer and (through Steps) the
// shared-nothing model read its steps and decide nothing themselves. A
// plan is immutable once built — NewPlan builds one per box and every
// execution, worker and nested-iteration re-entry shares it.
type selectPlan struct {
	preds []*selPred
	// err rejects the box: a predicate ties two subquery quantifiers.
	// Evaluation returns it; ordering and costing still see a full plan.
	err error
	// sibs holds, per quantifier, the row-contributing quantifiers of the
	// same box its input subtree references (lateral/scalar correlation).
	sibs  map[*qgm.Quantifier]map[*qgm.Quantifier]bool
	order []*qgm.Quantifier
	selWalk
	// col: the columnar engine evaluates the box; rowWhy says why not
	// (colSelectable's reason, "" when col).
	col    bool
	rowWhy string
}

// selWalk is the predicate-consumption walk over a plan's order: the
// predicates that hold before anything binds, then one step per quantifier.
type selWalk struct {
	pre   []*selPred
	steps []Step
	left  error // a predicate no step consumed (checkDone's verdict)
}

// Step is one quantifier's binding step in a select box's plan: how the
// quantifier binds, which predicates the step consumes, and what the
// estimator expects of it. The plan's walk decides every step once; the
// evaluators, the cost model and the shared-nothing model read the same
// steps, so what is costed and simulated is what runs.
type Step struct {
	Q *qgm.Quantifier
	// Correlated: Q's input re-evaluates per tuple of its siblings (a
	// lateral table or a nested-iteration subquery).
	Correlated bool
	// QKeys and BoundKeys are the equalities joining an uncorrelated
	// ForEach quantifier to the bound ones (Q side, bound side): the hash
	// join's keys, and on an index step the keys the shared-nothing model
	// repartitions on. Neither an index nor keys means a cross product.
	// NullSafe[i] marks key i as a null-safe equality (qgm.NewNullEq),
	// under which a NULL component matches NULL.
	QKeys, BoundKeys []qgm.Expr
	NullSafe         []bool
	// Growth is the per-tuple growth of binding Q here; local is Q's input
	// size after its local predicates alone (estQuantRows at this step).
	Growth float64
	local  float64

	ties []*selPred // a subquery quantifier's tie predicates
	// index, when non-nil, binds Q by probing the table's index on column
	// col with probe, evaluated per bound tuple.
	index *storage.Table
	col   int
	probe qgm.Expr
	// filter narrows Q's rows before the join: its local predicates, or on
	// an index step every predicate the probe's candidates must pass.
	filter []*selPred
	after  []*selPred // hold once Q is bound
}

// step returns q's step.
func (w *selWalk) step(q *qgm.Quantifier) *Step {
	for i := range w.steps {
		if w.steps[i].Q == q {
			return &w.steps[i]
		}
	}
	return nil
}

// correlated reports whether q's input must be re-evaluated per tuple of
// its siblings (nested iteration) rather than once per box evaluation.
func (p *selectPlan) correlated(q *qgm.Quantifier) bool { return len(p.sibs[q]) > 0 }

// selState is the mutable half of the ordering simulation or the walk:
// which quantifiers are bound and which predicates are consumed
// (applied[i] pairs with preds[i]).
type selState struct {
	preds   []*selPred
	applied []bool
	bound   map[*qgm.Quantifier]bool
}

func (p *selectPlan) newState() *selState {
	return &selState{preds: p.preds, applied: make([]bool, len(p.preds)), bound: map[*qgm.Quantifier]bool{}}
}

// takeReady consumes the unapplied ordinary predicates whose quantifiers
// are all bound.
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

// bind is the walk's bind step without its decisions, for the ordering
// simulation.
func (st *selState) bind(q *qgm.Quantifier) {
	st.bound[q] = true
	st.takeReady()
}

// joinable reports whether predicate i is unapplied, ordinary, reads q and
// otherwise only bound quantifiers: a predicate binding q can consume.
func (st *selState) joinable(i int, q *qgm.Quantifier) bool {
	pi := st.preds[i]
	return !st.applied[i] && pi.sub == nil && pi.deps[q] && depsSubset(pi.deps, st.bound, q)
}

// checkDone is the walk's closing assertion: every predicate of b was
// consumed by some step.
func (st *selState) checkDone(b *qgm.Box) error {
	for i, pi := range st.preds {
		if !st.applied[i] {
			return fmt.Errorf("exec: predicate %s left unapplied in box %d", qgm.FormatExpr(pi.expr), b.ID)
		}
	}
	return nil
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
// the middle of rewriting, which is why this entry orders b afresh on every
// call instead of reading a Plan, and builds no steps. The executor's
// cardinality memo persists across calls, as the rewrite asks for one
// order after another.
func (ex *Exec) JoinOrder(b *qgm.Box) []*qgm.Quantifier {
	if ex.order == nil {
		ex.order = &estimator{db: ex.db, est: map[*qgm.Box]float64{}}
	}
	return ex.order.orderSelect(b, qgm.FreeRefSets(b)).order
}

// buildSelectPlan orders b, walks the order into steps and judges columnar
// eligibility.
func (p *Plan) buildSelectPlan(b *qgm.Box) *selectPlan {
	sp := p.orderSelect(b, p.freeRefs)
	sp.selWalk = p.walkPlan(b, sp, nil)
	sp.rowWhy = p.colSelectable(b)
	sp.col = sp.rowWhy == ""
	return sp
}

// orderSelect classifies b's predicates, records sibling correlation (from
// free, the free references of b's inputs) and simulates the greedy
// binding order.
func (es *estimator) orderSelect(b *qgm.Box, free map[*qgm.Box][]qgm.RefKey) *selectPlan {
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
		for _, r := range free[q.Input] {
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
			if _, score := es.estQuantRows(q, st); score < bestScore {
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
	return p
}

func bestScoreOr(v, def float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return def
	}
	return v
}

// walkPlan walks p's order once, deciding every step: the predicates that
// hold before anything binds, then per quantifier its tie predicates (a
// subquery), its access path and the predicates binding it consumes (an
// uncorrelated ForEach), and the predicates that hold once it is bound.
// Predicates in skip start out consumed — a batched subquery site's
// stripped root (batchSite) — so they cannot drive index or hash-join
// placement either; the order is still the box's own.
func (p *Plan) walkPlan(b *qgm.Box, sp *selectPlan, skip map[qgm.Expr]bool) selWalk {
	st := sp.newState()
	for i, pi := range sp.preds {
		st.applied[i] = skip[pi.expr]
	}
	w := selWalk{pre: st.takeReady(), steps: make([]Step, len(sp.order))}
	for k, q := range sp.order {
		s := &w.steps[k]
		s.Q, s.Correlated = q, sp.correlated(q)
		s.local, s.Growth = p.estQuantRows(q, st)
		switch {
		case q.Kind.IsSubquery():
			for i, pi := range sp.preds {
				if pi.sub == q && !st.applied[i] {
					s.ties = append(s.ties, pi)
					st.applied[i] = true
				}
			}
		case q.Kind == qgm.QForEach && !s.Correlated:
			p.joinStep(s, st)
		}
		st.bound[q] = true
		s.after = st.takeReady()
	}
	w.left = st.checkDone(b)
	return w
}

// joinStep decides how uncorrelated ForEach quantifier s.Q binds in state
// st, in one pass over the predicates it could consume (selState.joinable):
// an index step consumes them all, the probe's own predicate by the probe
// and the rest as filter. Otherwise q's local predicates become filter and
// its equalities with the bound set hash keys; any other join predicate is
// left to hold once q is bound. Either way the equalities are recorded as
// the step's keys.
func (p *Plan) joinStep(s *Step, st *selState) {
	q := s.Q
	var ipred int
	s.index, ipred, s.col, s.probe = p.findIndexPred(q, st)
	for i, pi := range st.preds {
		if !st.joinable(i, q) {
			continue
		}
		local := len(pi.deps) == 1
		key := false
		if !local {
			var qs, bs qgm.Expr
			var nullSafe bool
			if qs, bs, nullSafe, key = splitEqui(pi.expr, q, st.bound); key {
				s.QKeys, s.BoundKeys = append(s.QKeys, qs), append(s.BoundKeys, bs)
				s.NullSafe = append(s.NullSafe, nullSafe)
			}
		}
		switch {
		case s.index != nil:
			if i != ipred {
				s.filter = append(s.filter, pi)
			}
		case local:
			s.filter = append(s.filter, pi)
		case !key:
			continue
		}
		st.applied[i] = true
	}
}

// findIndexPred decides whether q is bound by index probe in state st: its
// input is a stored base table and a joinable predicate has the form
// q.col = <expr over bound/outer> with an index on col. It returns that
// table, the predicate's position, the column and the probe expression; a
// nil table means no index path.
func (p *Plan) findIndexPred(q *qgm.Quantifier, st *selState) (*storage.Table, int, int, qgm.Expr) {
	if q.Input.Kind != qgm.BoxBase {
		return nil, 0, 0, nil
	}
	tbl := p.db.Table(q.Input.Table.Name)
	if tbl == nil {
		return nil, 0, 0, nil
	}
	// The probe side is a bare indexed column of q; the other side is
	// evaluated per tuple and must not read q.
	indexed := func(e qgm.Expr) bool {
		ref, ok := e.(*qgm.ColRef)
		return ok && ref.Q == q && tbl.HasIndex(ref.Col)
	}
	notQ := func(e qgm.Expr) bool { return !qgm.RefsQuant(e, q) }
	for i, pi := range st.preds {
		if !st.joinable(i, q) {
			continue
		}
		if ref, other, nullSafe, ok := qgm.SplitEq(pi.expr, indexed, notQ); ok && !nullSafe {
			return tbl, i, ref.(*qgm.ColRef).Col, other
		}
	}
	return nil, 0, 0, nil
}

// depsSubset reports whether deps ⊆ bound ∪ {q}; a nil q asks whether
// deps are all bound.
func depsSubset(deps, bound map[*qgm.Quantifier]bool, q *qgm.Quantifier) bool {
	for d := range deps {
		if d != q && !bound[d] {
			return false
		}
	}
	return true
}

// splitEqui decomposes p as qSideExpr = boundSideExpr where the q side
// references q (and possibly outer quantifiers) and the bound side only
// bound/outer quantifiers; nullSafe as qgm.SplitEq reports it.
func splitEqui(p qgm.Expr, q *qgm.Quantifier, bound map[*qgm.Quantifier]bool) (qSide, boundSide qgm.Expr, nullSafe, ok bool) {
	sideOK := func(e qgm.Expr, wantQ bool) bool {
		hasQ := false
		for qq := range qgm.QuantSet(e) {
			if qq == q {
				hasQ = true
			} else if qq.Owner == q.Owner && !bound[qq] {
				return false
			}
		}
		return hasQ == wantQ
	}
	return qgm.SplitEq(p,
		func(e qgm.Expr) bool { return sideOK(e, true) },
		func(e qgm.Expr) bool { return sideOK(e, false) })
}
