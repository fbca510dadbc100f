package rewrite

import (
	"decorr/internal/qgm"
)

// PushPredicates moves a parent SELECT's conjuncts into a non-shared
// SELECT child when every reference the predicate makes resolves through
// that child (outer correlated references ride along). Magic decorrelation
// benefits doubly: filters sink below the supplementary table's
// projection, and the magic table's input shrinks before the DISTINCT.
//
// Pushing below DISTINCT is sound for filters (restricting before or
// after deduplication keeps the same set). Pushing into GROUP BY or set
// operations is not attempted.
type PushPredicates struct{}

// Name implements Rule.
func (PushPredicates) Name() string { return "push-predicates" }

// Apply implements Rule.
func (PushPredicates) Apply(g *qgm.Graph) (bool, error) {
	refs := qgm.RefCounts(g.Root)
	changed := false
	for _, parent := range qgm.Boxes(g.Root) {
		if parent.Kind != qgm.BoxSelect {
			continue
		}
		kept := parent.Preds[:0:0]
		for _, p := range parent.Preds {
			target := pushTarget(parent, p, refs)
			if target == nil {
				kept = append(kept, p)
				continue
			}
			pushed, ok := rebaseThroughChild(p, target)
			if !ok {
				kept = append(kept, p)
				continue
			}
			target.Input.Preds = append(target.Input.Preds, pushed)
			changed = true
		}
		parent.Preds = kept
	}
	return changed, nil
}

// pushTarget returns the single ForEach quantifier (over a pushable SELECT
// child) that p's local references go through, or nil.
func pushTarget(parent *qgm.Box, p qgm.Expr, refs map[*qgm.Box]int) *qgm.Quantifier {
	var target *qgm.Quantifier
	for q := range qgm.QuantSet(p) {
		if q.Owner != parent {
			continue // outer reference: rides along
		}
		if target != nil && target != q {
			return nil // touches two local quantifiers: a join predicate
		}
		target = q
	}
	if target == nil || target.Kind != qgm.QForEach {
		return nil
	}
	child := target.Input
	if child.Kind != qgm.BoxSelect || refs[child] > 1 {
		return nil
	}
	return target
}

// rebaseThroughChild rewrites p, replacing references through q with the
// child's defining output expressions. It refuses when an output
// expression is not a plain column reference or constant (duplicating
// arbitrary expressions below a filter could re-evaluate side-conditions
// like division).
func rebaseThroughChild(p qgm.Expr, q *qgm.Quantifier) (qgm.Expr, bool) {
	child := q.Input
	ok := true
	out := qgm.Rewrite(p, func(e qgm.Expr) qgm.Expr {
		r, isRef := e.(*qgm.ColRef)
		if !isRef || r.Q != q {
			return e
		}
		if r.Col >= len(child.Cols) {
			ok = false
			return e
		}
		def := child.Cols[r.Col].Expr
		switch def.(type) {
		case *qgm.ColRef, *qgm.Const:
			return qgm.CloneExpr(def)
		default:
			ok = false
			return e
		}
	})
	if !ok {
		return nil, false
	}
	return out, true
}
