package core

import (
	"fmt"
	"sort"

	"decorr/internal/qgm"
)

// ApplyMagicSets implements the classical (non-recursive) magic sets
// rewriting the paper positions itself against (§7): where magic
// DECORRELATION propagates correlation bindings, magic SETS propagates
// join bindings — a derived table equi-joined to the rest of a SELECT box
// is restricted to the join values that can actually participate, before
// it does its (possibly aggregating) work.
//
// For every SELECT box with a ForEach quantifier q over a non-shared
// derived child D and an equality predicate otherExpr = q.col:
//
//	SUPP  := the box's other row quantifiers and their predicates
//	MAGIC := SELECT DISTINCT otherExpr FROM SUPP
//	D     := D semi-joined with MAGIC on col — pushed below D's GROUP BY
//	         when col is a grouping column (the restriction then limits
//	         the aggregation itself, which is the point of the exercise)
//
// The transformation composes with magic decorrelation: the engine applies
// it when Engine.MagicSets is enabled.
func ApplyMagicSets(g *qgm.Graph) error {
	refs := qgm.RefCounts(g.Root)
	for _, b := range qgm.Boxes(g.Root) {
		if b.Kind != qgm.BoxSelect {
			continue
		}
		for _, q := range append([]*qgm.Quantifier(nil), b.Quants...) {
			if !magicSetsCandidate(refs, b, q) {
				continue
			}
			fired, err := feedJoinBindings(g, b, q)
			if err != nil {
				return err
			}
			if fired {
				// The magic table reads the box's other inputs, which are
				// shared from here on.
				refs = qgm.RefCounts(g.Root)
			}
		}
	}
	if err := qgm.Validate(g); err != nil {
		return fmt.Errorf("core: magic sets left inconsistent graph: %w", err)
	}
	return nil
}

// magicSetsCandidate reports whether q is a derived-table quantifier worth
// restricting: ForEach over a non-shared GROUP BY pipeline (restricting a
// plain SPJ child is MergeSPJ's job), uncorrelated, with at least one
// other row quantifier to derive bindings from.
func magicSetsCandidate(refs map[*qgm.Box]int, b *qgm.Box, q *qgm.Quantifier) bool {
	if q.Kind != qgm.QForEach {
		return false
	}
	child := q.Input
	if child.Kind != qgm.BoxGroup && !(child.Kind == qgm.BoxSelect && child.Distinct) {
		return false
	}
	if qgm.IsCorrelated(child) || refs[child] > 1 {
		return false
	}
	others := 0
	for _, oq := range b.Quants {
		if oq != q && !oq.Kind.IsSubquery() {
			others++
		}
	}
	return others > 0
}

// msTie is one equality binding pushed by magic sets: child output column
// col equated with an expression over the box's other quantifiers.
type msTie struct {
	col   int
	other qgm.Expr
}

// feedJoinBindings restricts q.Input by the distinct join values of the
// box's other quantifiers, reporting whether it did.
func feedJoinBindings(g *qgm.Graph, cur *qgm.Box, q *qgm.Quantifier) (bool, error) {
	child := q.Input
	// Collect equality predicates joining q to the other quantifiers,
	// where the q side is a bare column of the child.
	var ties []msTie
	qCol := func(e qgm.Expr) bool {
		ref, ok := e.(*qgm.ColRef)
		return ok && ref.Q == q
	}
	feeds := func(e qgm.Expr) bool { // over the other row quantifiers only
		for oq := range qgm.QuantSet(e) {
			if oq == q || (oq.Owner == cur && oq.Kind.IsSubquery()) {
				return false
			}
		}
		return true
	}
	for _, p := range cur.Preds {
		if ref, other, ok := qgm.SplitEq(p, qCol, feeds); ok {
			ties = append(ties, msTie{col: ref.(*qgm.ColRef).Col, other: other})
		}
	}
	if len(ties) == 0 {
		return false, nil
	}
	sort.Slice(ties, func(i, j int) bool { return ties[i].col < ties[j].col })

	// MAGIC: the distinct binding values computed from the other
	// quantifiers. (No supplementary split: the other quantifiers stay in
	// place; the magic table references them through a copy of the same
	// inputs would require CSE machinery, so instead project directly from
	// the same input boxes — sharing them as common subexpressions.)
	magic := g.NewBox(qgm.BoxSelect, "MAGICSET")
	magic.Distinct = true
	clone := map[*qgm.Quantifier]*qgm.Quantifier{}
	for _, oq := range cur.Quants {
		if oq == q || oq.Kind.IsSubquery() {
			continue
		}
		// Clones keep their kind: a scalar quantifier's empty-input
		// null-fill semantics must carry over to the binding computation.
		clone[oq] = g.AddQuant(magic, oq.Kind, oq.Input)
	}
	remap := func(e qgm.Expr) (qgm.Expr, bool) {
		ok := true
		out := qgm.Rewrite(e, func(x qgm.Expr) qgm.Expr {
			if r, isRef := x.(*qgm.ColRef); isRef {
				if nq, has := clone[r.Q]; has {
					return qgm.Ref(nq, r.Col)
				}
				if r.Q.Owner == cur {
					ok = false
				}
			}
			return x
		})
		return out, ok
	}
	// The magic table applies the box's own restrictions over the cloned
	// quantifiers so the binding set is as tight as the outer computation.
	for _, p := range cur.Preds {
		if qgm.RefsQuant(p, q) {
			continue
		}
		np, ok := remap(p)
		if !ok {
			continue
		}
		magic.Preds = append(magic.Preds, np)
	}
	usable := ties[:0]
	for _, t := range ties {
		no, ok := remap(t.other)
		if !ok {
			continue
		}
		magic.Cols = append(magic.Cols, qgm.OutCol{
			Name: fmt.Sprintf("m%d", len(magic.Cols)), Expr: no})
		usable = append(usable, t)
	}
	if len(usable) == 0 || len(magic.Quants) == 0 {
		return false, nil
	}

	// Restrict the child: semi-join with the magic table, pushed below a
	// GROUP BY when every tie column is a grouping column.
	qm, target, colFor := pushRestriction(g, child, magic, usable)
	for i, t := range usable {
		target.Preds = append(target.Preds, qgm.NewEq(colFor(t.col, i), qgm.Ref(qm, i)))
	}
	return true, nil
}

// pushRestriction attaches a ForEach quantifier over magic to the box that
// should absorb the restriction: the GROUP BY's input when the tie columns
// are grouping columns, the child itself otherwise. It returns the magic
// quantifier, the box holding the new predicates, and a translator from
// (child output ordinal, tie index) to the expression to compare.
func pushRestriction(g *qgm.Graph, child, magic *qgm.Box, ties []msTie) (*qgm.Quantifier, *qgm.Box, func(int, int) qgm.Expr) {
	if child.Kind == qgm.BoxGroup {
		// Push below the aggregate only when every tie column is a plain
		// grouping column whose source is a column of the group's input.
		body := child.Quants[0].Input
		if body.Kind == qgm.BoxSelect && !body.Distinct {
			sources := make([]qgm.Expr, len(ties))
			ok := true
			for i, t := range ties {
				if t.col >= len(child.Cols) {
					ok = false
					break
				}
				cr, isRef := child.Cols[t.col].Expr.(*qgm.ColRef)
				if !isRef || !isGroupCol(child, cr) {
					ok = false
					break
				}
				sources[i] = qgm.Ref(cr.Q, cr.Col) // ref into the body via the group quant
				// The predicate will live in the body, so reference the
				// body's own output expression instead.
				if cr.Col >= len(body.Cols) {
					ok = false
					break
				}
				sources[i] = body.Cols[cr.Col].Expr
			}
			if ok {
				qm := g.AddQuant(body, qgm.QForEach, magic)
				return qm, body, func(col, i int) qgm.Expr {
					return qgm.CloneExpr(sources[i])
				}
			}
		}
	}
	// Fallback: semi-join above the child by wrapping it.
	wrap := g.NewBox(qgm.BoxSelect, "RESTRICT")
	qc := g.AddQuant(wrap, qgm.QForEach, child)
	qm := g.AddQuant(wrap, qgm.QForEach, magic)
	for i, c := range child.Cols {
		wrap.Cols = append(wrap.Cols, qgm.OutCol{Name: c.Name, Expr: qgm.Ref(qc, i)})
	}
	// Replace the child under its consumer.
	for _, b := range qgm.Boxes(g.Root) {
		for _, bq := range b.Quants {
			if bq.Input == child && b != wrap {
				bq.Input = wrap
			}
		}
	}
	return qm, wrap, func(col, i int) qgm.Expr {
		return qgm.Ref(qc, col)
	}
}

func isGroupCol(grp *qgm.Box, ref *qgm.ColRef) bool {
	for _, ge := range grp.GroupBy {
		if gr, ok := ge.(*qgm.ColRef); ok && gr.Q == ref.Q && gr.Col == ref.Col {
			return true
		}
	}
	return false
}
