package qgm

import (
	"cmp"
	"fmt"
	"slices"
)

// ExprSlots calls f with a pointer to every expression slot of box b (its
// predicates, output column expressions, and grouping expressions), so
// callers can inspect or replace them in place.
func (b *Box) ExprSlots(f func(*Expr)) {
	for i := range b.Preds {
		f(&b.Preds[i])
	}
	for i := range b.Cols {
		if b.Cols[i].Expr != nil {
			f(&b.Cols[i].Expr)
		}
	}
	for i := range b.GroupBy {
		f(&b.GroupBy[i])
	}
}

// boxSet returns the set of the listed boxes.
func boxSet(boxes []*Box) map[*Box]bool {
	s := make(map[*Box]bool, len(boxes))
	for _, x := range boxes {
		s[x] = true
	}
	return s
}

// FreeRefs returns the ColRefs occurring anywhere in b's subtree whose
// quantifier is owned outside the subtree — i.e. the correlated references
// of the subtree. Order is deterministic (box DFS order, slot order).
func FreeRefs(b *Box) []*ColRef {
	boxes := Boxes(b)
	inside := boxSet(boxes)
	var out []*ColRef
	for _, box := range boxes {
		box.ExprSlots(func(slot *Expr) {
			for _, r := range Refs(*slot) {
				if !inside[r.Q.Owner] {
					out = append(out, r)
				}
			}
		})
	}
	return out
}

// FreeRefSets returns the free references of every box of root's subtree:
// the (quantifier, column) pairs its expressions read from quantifiers
// owned outside it, deduplicated and ordered by quantifier ID and column.
// One bottom-up pass: a box's set is its own slots' references and its
// inputs' sets, less the references to its own quantifiers (a reference
// leaves the set at the box that owns its quantifier), so each expression
// is read once — where calling FreeRefs on every box walks each subtree
// once per ancestor.
func FreeRefSets(root *Box) map[*Box][]RefKey {
	free := map[*Box][]RefKey{}
	var visit func(b *Box) []RefKey
	visit = func(b *Box) []RefKey {
		if fr, ok := free[b]; ok {
			return fr
		}
		free[b] = nil // DAG guard; the set is stored below
		var out []RefKey
		b.ExprSlots(func(slot *Expr) {
			for _, r := range Refs(*slot) {
				out = append(out, RefKey{Q: r.Q, Col: r.Col})
			}
		})
		for _, q := range b.Quants {
			out = append(out, visit(q.Input)...)
		}
		out = slices.DeleteFunc(out, func(k RefKey) bool { return k.Q.Owner == b })
		slices.SortFunc(out, func(x, y RefKey) int { return cmp.Or(cmp.Compare(x.Q.ID, y.Q.ID), cmp.Compare(x.Col, y.Col)) })
		free[b] = slices.Compact(out)
		return free[b]
	}
	visit(root)
	return free
}

// IsCorrelated reports whether b's subtree has any correlated reference.
func IsCorrelated(b *Box) bool { return len(FreeRefs(b)) > 0 }

// CorrelatedTo reports whether b's subtree references any quantifier owned
// by the given box. Callers ask it of a box that owner reads, which the DAG
// keeps outside b's subtree, so every such reference is a correlated one.
func CorrelatedTo(b, owner *Box) bool {
	found := false
	for _, box := range Boxes(b) {
		box.ExprSlots(func(slot *Expr) {
			Walk(*slot, func(x Expr) bool {
				if r, ok := x.(*ColRef); ok && r.Q.Owner == owner {
					found = true
				}
				return !found
			})
		})
		if found {
			return true
		}
	}
	return false
}

// RedirectRefs rewrites, across root's whole subtree, every reference to a
// (quantifier, column) pair present in the mapping, replacing it with the
// mapped expression. Keys are encoded by refKey.
func RedirectRefs(root *Box, mapping map[RefKey]Expr) {
	RedirectRefsIn(Boxes(root), mapping)
}

// RedirectRefsIn is RedirectRefs over an explicit box list: every
// expression of every listed box (and no other) has its mapped references
// replaced by a fresh copy of the mapped expression.
func RedirectRefsIn(boxes []*Box, mapping map[RefKey]Expr) {
	for _, b := range boxes {
		b.ExprSlots(func(slot *Expr) {
			*slot = Rewrite(*slot, func(e Expr) Expr {
				if r, ok := e.(*ColRef); ok {
					if repl, ok := mapping[RefKey{r.Q, r.Col}]; ok {
						return CloneExpr(repl)
					}
				}
				return e
			})
		})
	}
}

// RefKey identifies a (quantifier, column) pair for rewrite maps.
type RefKey struct {
	Q   *Quantifier
	Col int
}

// CloneExpr deep-copies an expression (quantifier pointers are shared; they
// identify graph edges, not owned state).
func CloneExpr(e Expr) Expr {
	return Rewrite(e, func(x Expr) Expr { return x })
}

// RefCounts returns how many quantifiers read each box reachable from
// root. A box read more than once is shared (a common subexpression).
func RefCounts(root *Box) map[*Box]int {
	n := map[*Box]int{}
	for _, b := range Boxes(root) {
		for _, q := range b.Quants {
			n[q.Input]++
		}
	}
	return n
}

// Validate checks structural invariants of the graph. It is called by the
// engine after semantic analysis and after every rewrite, mirroring the
// paper's requirement that "each rule application should leave the QGM in
// a consistent state".
func Validate(g *Graph) error {
	if g.Root == nil {
		return fmt.Errorf("qgm: graph has no root")
	}
	boxes := Boxes(g.Root)
	inGraph := boxSet(boxes)
	// below[o] is the set of boxes reachable from o, built for each box
	// whose quantifiers a reference reaches out to: o is an ancestor of b
	// when it is in the graph, is not b, and reaches b.
	below := map[*Box]map[*Box]bool{}
	ancestor := func(o, b *Box) bool {
		if o == b || !inGraph[o] {
			return false
		}
		s, ok := below[o]
		if !ok {
			s = boxSet(Boxes(o))
			below[o] = s
		}
		return s[b]
	}
	for _, b := range boxes {
		if err := validateBoxShape(b); err != nil {
			return err
		}
		quants := map[*Quantifier]bool{}
		for _, q := range b.Quants {
			if q.Owner != b {
				return fmt.Errorf("qgm: box %d has quantifier %s owned by box %d", b.ID, q.Name(), q.Owner.ID)
			}
			if q.Input == nil {
				return fmt.Errorf("qgm: quantifier %s of box %d has no input", q.Name(), b.ID)
			}
			quants[q] = true
		}
		var refErr error
		b.ExprSlots(func(slot *Expr) {
			if refErr != nil {
				return
			}
			for _, r := range Refs(*slot) {
				if r.Q == nil || r.Q.Input == nil {
					refErr = fmt.Errorf("qgm: box %d references a detached quantifier", b.ID)
					return
				}
				if !quants[r.Q] && !ancestor(r.Q.Owner, b) {
					refErr = fmt.Errorf("qgm: box %d references %s.c%d owned by box %d which is not an ancestor",
						b.ID, r.Q.Name(), r.Col, r.Q.Owner.ID)
					return
				}
				if r.Col < 0 || r.Col >= len(r.Q.Input.Cols) {
					refErr = fmt.Errorf("qgm: box %d references %s.c%d out of range (input box %d has %d cols)",
						b.ID, r.Q.Name(), r.Col, r.Q.Input.ID, len(r.Q.Input.Cols))
					return
				}
			}
		})
		if refErr != nil {
			return refErr
		}
	}
	return nil
}

func validateBoxShape(b *Box) error {
	switch b.Kind {
	case BoxBase:
		if b.Table == nil {
			return fmt.Errorf("qgm: base box %d has no table", b.ID)
		}
		if len(b.Quants) != 0 || len(b.Preds) != 0 {
			return fmt.Errorf("qgm: base box %d must have no quantifiers or predicates", b.ID)
		}
		if len(b.Cols) != len(b.Table.Columns) {
			return fmt.Errorf("qgm: base box %d arity mismatch with table %q", b.ID, b.Table.Name)
		}
	case BoxSelect:
		if len(b.ForEachQuants()) == 0 {
			return fmt.Errorf("qgm: select box %d has no row-contributing quantifier", b.ID)
		}
		for _, c := range b.Cols {
			if c.Expr == nil {
				return fmt.Errorf("qgm: select box %d output %q has no expression", b.ID, c.Name)
			}
			if containsAgg(c.Expr) {
				return fmt.Errorf("qgm: select box %d output %q contains an aggregate", b.ID, c.Name)
			}
		}
		for _, p := range b.Preds {
			if containsAgg(p) {
				return fmt.Errorf("qgm: select box %d predicate contains an aggregate", b.ID)
			}
		}
	case BoxGroup:
		if len(b.Quants) != 1 || b.Quants[0].Kind != QForEach {
			return fmt.Errorf("qgm: group box %d must have exactly one ForEach quantifier", b.ID)
		}
		if len(b.Preds) != 0 {
			return fmt.Errorf("qgm: group box %d must not carry predicates (HAVING lives above)", b.ID)
		}
		for _, c := range b.Cols {
			if c.Expr == nil {
				return fmt.Errorf("qgm: group box %d output %q has no expression", b.ID, c.Name)
			}
		}
	case BoxUnion, BoxIntersect, BoxExcept:
		if len(b.Quants) < 2 {
			return fmt.Errorf("qgm: %s box %d needs at least two inputs", b.Kind, b.ID)
		}
		if b.Kind != BoxUnion && len(b.Quants) != 2 {
			return fmt.Errorf("qgm: %s box %d must have exactly two inputs", b.Kind, b.ID)
		}
		arity := len(b.Quants[0].Input.Cols)
		for _, q := range b.Quants {
			if q.Kind != QForEach {
				return fmt.Errorf("qgm: %s box %d has non-ForEach quantifier", b.Kind, b.ID)
			}
			if len(q.Input.Cols) != arity {
				return fmt.Errorf("qgm: %s box %d inputs have differing arity", b.Kind, b.ID)
			}
		}
		if len(b.Cols) != arity {
			return fmt.Errorf("qgm: %s box %d output arity mismatch", b.Kind, b.ID)
		}
		if len(b.Preds) != 0 {
			return fmt.Errorf("qgm: %s box %d must not carry predicates", b.Kind, b.ID)
		}
	case BoxLeftJoin:
		if len(b.Quants) != 2 || b.Quants[0].Kind != QForEach || b.Quants[1].Kind != QForEach {
			return fmt.Errorf("qgm: left-join box %d must have exactly two ForEach quantifiers", b.ID)
		}
		for _, c := range b.Cols {
			if c.Expr == nil {
				return fmt.Errorf("qgm: left-join box %d output %q has no expression", b.ID, c.Name)
			}
		}
	}
	return nil
}

func containsAgg(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if _, ok := x.(*Agg); ok {
			found = true
		}
		return true
	})
	return found
}
