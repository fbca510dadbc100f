package exec

import (
	"math"

	"decorr/internal/qgm"
	"decorr/internal/storage"
)

// The estimator is deliberately small: it exists to order joins the way the
// paper's optimizer would (selective scans first, connected joins before
// cross products), not to be a cost model. Selectivity defaults follow the
// classic System R constants.
const (
	selEqDefault    = 0.1
	selRange        = 1.0 / 3.0
	selLike         = 0.1
	selNe           = 0.9
	selOther        = 1.0 / 3.0
	crossPenalty    = 1e3
	defaultNDVRatio = 10.0
)

// estimator is the cardinality model over one database: per-box row
// estimates, memoized in est. A Plan's memo is complete once NewPlan
// returns and only read after that, so concurrent executions and the cost
// model share it without a lock; JoinOrder's fills as the rewrite asks.
type estimator struct {
	db  *storage.DB
	est map[*qgm.Box]float64
}

// estBoxRows estimates the output cardinality of a box, memoized.
func (es *estimator) estBoxRows(b *qgm.Box) float64 {
	if v, ok := es.est[b]; ok {
		return v
	}
	es.est[b] = 1 // guard against cycles (impossible in valid graphs)
	var v float64
	switch b.Kind {
	case qgm.BoxBase:
		if t := es.db.Table(b.Table.Name); t != nil {
			v = math.Max(1, float64(t.Len()))
		} else {
			v = 1
		}
	case qgm.BoxSelect:
		v = 1
		for _, q := range b.Quants {
			if q.Kind == qgm.QForEach {
				v *= es.estBoxRows(q.Input)
			}
		}
		for _, p := range b.Preds {
			v *= es.predSel(p)
		}
		if b.Distinct {
			v = math.Min(v, es.estDistinctRows(b))
		}
		v = math.Max(1, v)
	case qgm.BoxGroup:
		if len(b.GroupBy) == 0 {
			v = 1
		} else {
			in := es.estBoxRows(b.Quants[0].Input)
			ndv := 1.0
			for _, g := range b.GroupBy {
				ndv *= es.estNDV(g)
			}
			v = math.Max(1, math.Min(in, ndv))
		}
	case qgm.BoxUnion:
		for _, q := range b.Quants {
			v += es.estBoxRows(q.Input)
		}
	case qgm.BoxIntersect:
		v = math.Max(1, math.Min(es.estBoxRows(b.Quants[0].Input), es.estBoxRows(b.Quants[1].Input))/2)
	case qgm.BoxExcept:
		v = math.Max(es.estBoxRows(b.Quants[0].Input)/2, 1)
	case qgm.BoxLeftJoin:
		v = math.Max(es.estBoxRows(b.Quants[0].Input), 1)
	default:
		v = 1
	}
	es.est[b] = v
	return v
}

// estDistinctRows bounds the rows a DISTINCT select box can emit by the
// product of its output columns' distinct counts — the [MAGIC] table of a
// decorrelated plan holds one row per correlation value, not one per
// supplementary row. +Inf when some column's count is unknown.
func (es *estimator) estDistinctRows(b *qgm.Box) float64 {
	rows := 1.0
	for _, c := range b.Cols {
		rows *= es.estColNDV(c.Expr)
	}
	return rows
}

// estColNDV is the distinct count of a column traced through select boxes
// that pass it along unchanged down to its base table, capped by each
// box's cardinality on the way; +Inf for anything it cannot trace.
func (es *estimator) estColNDV(e qgm.Expr) float64 {
	r, ok := e.(*qgm.ColRef)
	if !ok {
		return math.Inf(1)
	}
	switch in := r.Q.Input; in.Kind {
	case qgm.BoxBase:
		if t := es.db.Table(in.Table.Name); t != nil {
			return math.Max(1, float64(t.NDV(r.Col)))
		}
	case qgm.BoxSelect:
		if r.Col < len(in.Cols) { // JoinOrder plans boxes mid-rewrite
			return math.Min(es.estColNDV(in.Cols[r.Col].Expr), es.estBoxRows(in))
		}
	}
	return math.Inf(1)
}

// estNDV estimates the number of distinct values of an expression: a
// column reference traced to its base table (estColNDV), else a tenth of
// its box's rows; a root heuristic for anything else.
func (es *estimator) estNDV(e qgm.Expr) float64 {
	if r, ok := e.(*qgm.ColRef); ok {
		if n := es.estColNDV(r); !math.IsInf(n, 1) {
			return n
		}
		return math.Max(1, es.estBoxRows(r.Q.Input)/defaultNDVRatio)
	}
	return defaultNDVRatio
}

// predSel estimates the selectivity of one conjunct.
func (es *estimator) predSel(p qgm.Expr) float64 {
	switch x := p.(type) {
	case *qgm.Bin:
		switch x.Op {
		case qgm.OpEq:
			_, lc := x.L.(*qgm.ColRef)
			_, rc := x.R.(*qgm.ColRef)
			switch {
			case lc && rc:
				return 1 / math.Max(es.estNDV(x.L), es.estNDV(x.R))
			case lc: // column = value: one of the column's distinct values
				return 1 / es.estNDV(x.L)
			case rc:
				return 1 / es.estNDV(x.R)
			}
			return selEqDefault // both sides non-columns: generic equality
		case qgm.OpNe:
			return selNe
		case qgm.OpLt, qgm.OpLe, qgm.OpGt, qgm.OpGe:
			if s, ok := es.histogramSel(x); ok {
				return s
			}
			return selRange
		case qgm.OpAnd:
			return es.predSel(x.L) * es.predSel(x.R)
		case qgm.OpOr:
			return math.Min(1, es.predSel(x.L)+es.predSel(x.R))
		}
	case *qgm.Like:
		return selLike
	case *qgm.Not:
		return 1 - es.predSel(x.E)
	case *qgm.IsNull:
		return 0.1
	}
	return selOther
}

// estQuantRows estimates binding q next in state st: local, q's input size
// after its local predicates alone (what a join step with nothing to hash
// or probe on pairs every bound tuple with), and growth, the per-tuple
// growth factor — local times the selectivity of the join predicates
// connecting q to the bound set; disconnected quantifiers pay a cross
// penalty. Predicates already consumed do not count against q.
func (es *estimator) estQuantRows(q *qgm.Quantifier, st *selState) (local, growth float64) {
	base := es.estBoxRows(q.Input)
	local = base
	connected := len(st.bound) == 0
	for i, pi := range st.preds {
		if st.applied[i] || pi.sub != nil || !pi.deps[q] {
			continue
		}
		if len(pi.deps) == 1 {
			sel := es.predSel(pi.expr) // local predicate
			base *= sel
			local *= sel
			continue
		}
		if depsSubset(pi.deps, st.bound, q) {
			base *= es.predSel(pi.expr)
			connected = true
		}
	}
	if !connected && len(st.bound) > 0 {
		base *= crossPenalty
	}
	return local, math.Max(base, 1e-6)
}

// histogramSel estimates a range comparison between a base-table column
// and a constant from the column's equi-depth histogram.
func (es *estimator) histogramSel(b *qgm.Bin) (float64, bool) {
	ref, cst, op := exprConstSides(b)
	if ref == nil {
		return 0, false
	}
	in := ref.Q.Input
	if in.Kind != qgm.BoxBase {
		return 0, false
	}
	t := es.db.Table(in.Table.Name)
	if t == nil {
		return 0, false
	}
	h := t.Histogram(ref.Col)
	if h == nil {
		return 0, false
	}
	var s float64
	switch op {
	case qgm.OpLt:
		s = h.FracBelow(cst.V, false)
	case qgm.OpLe:
		s = h.FracBelow(cst.V, true)
	case qgm.OpGt:
		s = float64(h.NonNull)/float64(h.Total) - h.FracBelow(cst.V, true)
	case qgm.OpGe:
		s = float64(h.NonNull)/float64(h.Total) - h.FracBelow(cst.V, false)
	default:
		return 0, false
	}
	return math.Min(1, math.Max(s, 1e-4)), true
}

// exprConstSides decomposes cmp into (column, constant, normalized op with
// the column on the left).
func exprConstSides(b *qgm.Bin) (*qgm.ColRef, *qgm.Const, qgm.Op) {
	if r, ok := b.L.(*qgm.ColRef); ok {
		if c, ok := b.R.(*qgm.Const); ok {
			return r, c, b.Op
		}
	}
	if r, ok := b.R.(*qgm.ColRef); ok {
		if c, ok := b.L.(*qgm.Const); ok {
			return r, c, b.Op.Flip()
		}
	}
	return nil, nil, b.Op
}
