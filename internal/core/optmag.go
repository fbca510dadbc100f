package core

import (
	"fmt"

	"decorr/internal/qgm"
)

// optFeed implements the OptMag variant (§5.1): when the correlation
// attributes form a key of the supplementary table, the magic table is the
// supplementary table itself — there is no point projecting distinct
// bindings out of a relation they already identify, and the common
// subexpression (SUPP referenced both by the outer block and under the
// magic table) disappears. The decorrelated subquery carries every
// supplementary column through its grouping, so the outer block reads SUPP
// through the subquery and drops its own reference.
func (f *feed) optFeed(cur *qgm.Box, q *qgm.Quantifier, qsupp *qgm.Quantifier, supp *qgm.Box) error {
	child := q.Input

	refMap := map[qgm.RefKey]int{}
	for c := range supp.Cols {
		refMap[qgm.RefKey{Q: qsupp, Col: c}] = c
	}
	pos, err := f.absorb(child, supp, refMap)
	if err != nil {
		return err
	}

	// The outer block now reads every supplementary column through the
	// absorbed child: drop the direct supplementary quantifier and
	// redirect its remaining uses.
	cur.RemoveQuant(qsupp)
	mapping := map[qgm.RefKey]qgm.Expr{}
	for c := range supp.Cols {
		mapping[qgm.RefKey{Q: qsupp, Col: c}] = qgm.Ref(q, pos[c])
	}
	// Rewrite cur's own expressions and every remaining child subtree —
	// except the fed child's, whose supplementary references were already
	// absorbed (and whose subtree now legitimately contains SUPP).
	targets := []*qgm.Box{cur}
	for _, rq := range cur.Quants {
		if rq == q {
			continue
		}
		targets = append(targets, qgm.Boxes(rq.Input)...)
	}
	qgm.RedirectRefsIn(targets, mapping)
	if q.Kind == qgm.QScalar {
		q.Kind = qgm.QForEach
	}
	if supp.Label == "SUPP" {
		supp.Label = "SUPP=MAGIC"
	}
	f.snap(fmt.Sprintf("OptMag: supplementary CSE eliminated for %s (correlation attributes form a key of SUPP)", q.Name()))
	return nil
}
