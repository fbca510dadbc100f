// Package classic implements the pre-magic decorrelation algorithms the
// paper compares against (§2, §5.1): Kim's method [Kim82] — including its
// historical COUNT bug —, Dayal's outer-join method [Day87], and the
// Ganski/Wong method [GW87]. Each has the applicability limits the paper
// describes; ApplyX returns ErrNotApplicable-wrapped errors when a query
// falls outside them (e.g. the non-linear Query 3).
package classic

import (
	"errors"
	"fmt"

	"decorr/internal/qgm"
)

// ErrNotApplicable marks queries outside an algorithm's reach.
var ErrNotApplicable = errors.New("algorithm not applicable")

// aggPattern describes the canonical correlated scalar aggregate subquery
// the classic methods understand: a chain of simple SELECT wrappers over an
// ungrouped GROUP BY over an SPJ body that holds the correlated equality
// predicates.
type aggPattern struct {
	outer *qgm.Box
	q     *qgm.Quantifier
	chain []*qgm.Box // SELECT wrappers from q.Input down (possibly empty)
	group *qgm.Box
	body  *qgm.Box

	// Correlation decomposition: outerRefs[i] = innerExprs[i] were the
	// correlated equality conjuncts removed from body.Preds by decompose.
	outerRefs  []*qgm.ColRef
	innerExprs []qgm.Expr
}

// findAggPattern matches the subquery under q against the canonical shape.
func findAggPattern(outer *qgm.Box, q *qgm.Quantifier) (*aggPattern, error) {
	p := &aggPattern{outer: outer, q: q}
	cur := q.Input
	for cur.Kind == qgm.BoxSelect {
		if len(cur.Quants) != 1 || cur.Quants[0].Kind != qgm.QForEach ||
			len(cur.Preds) != 0 || cur.Distinct {
			return nil, fmt.Errorf("%w: subquery is not a simple aggregate block", ErrNotApplicable)
		}
		p.chain = append(p.chain, cur)
		cur = cur.Quants[0].Input
	}
	if cur.Kind != qgm.BoxGroup || len(cur.GroupBy) != 0 {
		return nil, fmt.Errorf("%w: subquery is not an ungrouped aggregate", ErrNotApplicable)
	}
	p.group = cur
	p.body = cur.Quants[0].Input
	if p.body.Kind != qgm.BoxSelect {
		return nil, fmt.Errorf("%w: aggregate input is not a select block", ErrNotApplicable)
	}
	// Correlation must live exclusively in the body's predicates and
	// reference only the outer box's row quantifiers (single level).
	for _, b := range qgm.Boxes(q.Input) {
		var bad error
		b.ExprSlots(func(slot *qgm.Expr) {
			if bad != nil {
				return
			}
			for _, r := range qgm.Refs(*slot) {
				if r.Q.Owner == b || insideSubtree(r.Q.Owner, q.Input) {
					continue
				}
				if r.Q.Owner != outer {
					bad = fmt.Errorf("%w: correlation spans multiple levels", ErrNotApplicable)
					return
				}
				if b != p.body {
					bad = fmt.Errorf("%w: correlation outside the subquery body", ErrNotApplicable)
					return
				}
			}
		})
		if bad != nil {
			return nil, bad
		}
	}
	return p, nil
}

func insideSubtree(b, root *qgm.Box) bool {
	return qgm.Contains(root, b)
}

// decompose removes the correlated conjuncts from the body, requiring each
// to be a simple equality between a bare outer column and an expression
// over the body's own quantifiers (Kim's restriction: "the transformation
// works only if the correlated predicate is a simple equality predicate").
func (p *aggPattern) decompose() error {
	var kept []qgm.Expr
	for _, pred := range p.body.Preds {
		corr := false
		for _, r := range qgm.Refs(pred) {
			if r.Q.Owner == p.outer {
				corr = true
				break
			}
		}
		if !corr {
			kept = append(kept, pred)
			continue
		}
		l, r, ok := qgm.SplitEq(pred,
			func(e qgm.Expr) bool { return sideIsOuterRef(e, p.outer) },
			func(e qgm.Expr) bool { return exprOverBody(e, p.body) })
		if !ok {
			return fmt.Errorf("%w: correlated predicate is not a simple equality of an outer column and an inner expression", ErrNotApplicable)
		}
		p.outerRefs = append(p.outerRefs, l.(*qgm.ColRef))
		p.innerExprs = append(p.innerExprs, r)
	}
	p.body.Preds = kept
	return nil
}

func sideIsOuterRef(e qgm.Expr, outer *qgm.Box) bool {
	r, ok := e.(*qgm.ColRef)
	return ok && r.Q.Owner == outer
}

func exprOverBody(e qgm.Expr, body *qgm.Box) bool {
	for q := range qgm.QuantSet(e) {
		if q.Owner != body {
			return false
		}
	}
	return true
}

// remainingCorrelation reports whether any quantifier's input subtree still
// has free references — correlation an algorithm failed to remove.
func remainingCorrelation(g *qgm.Graph) bool {
	for _, b := range qgm.Boxes(g.Root) {
		for _, q := range b.Quants {
			if qgm.IsCorrelated(q.Input) {
				return true
			}
		}
	}
	return false
}
