package core

import (
	"fmt"

	"decorr/internal/qgm"
)

// absorb is the ABSORB stage (§4.3): it rewrites box b in place so that it
// computes M × b with the correlated references resolved against the magic
// table, and appends M's columns to b's outputs. It returns the positions
// of the appended magic columns.
//
// SPJ boxes take the magic table directly into their FROM list (§4.3.2).
// Non-SPJ boxes (GROUP BY, UNION) feed the bindings to their children
// first and then absorb: a group box adds the magic columns to its
// grouping list, a union box pushes the magic table into every branch
// (§4.3.1).
func (f *feed) absorb(b *qgm.Box, m *qgm.Box, refMap map[qgm.RefKey]int) ([]int, error) {
	k := len(m.Cols)
	switch b.Kind {
	case qgm.BoxSelect:
		// Snapshot the subtree before attaching the magic quantifier so
		// the rewrite cannot touch M's own internals (SUPP references).
		snapshot := qgm.Boxes(b)
		qm := f.g.AddQuant(b, qgm.QForEach, m)
		mapping := map[qgm.RefKey]qgm.Expr{}
		for rk, j := range refMap {
			mapping[rk] = qgm.Ref(qm, j)
		}
		qgm.RedirectRefsIn(snapshot, mapping)
		base := len(b.Cols)
		pos := make([]int, k)
		for j := 0; j < k; j++ {
			pos[j] = base + j
			b.Cols = append(b.Cols, qgm.OutCol{Name: m.Cols[j].Name, Expr: qgm.Ref(qm, j)})
		}
		return pos, nil

	case qgm.BoxGroup:
		qd := b.Quants[0]
		childPos, err := f.absorb(qd.Input, m, refMap)
		if err != nil {
			return nil, err
		}
		// The group box's own expressions (aggregate arguments, grouping
		// expressions) may hold correlated references too; they now read
		// the magic columns through the child.
		mapping := map[qgm.RefKey]qgm.Expr{}
		for rk, j := range refMap {
			mapping[rk] = qgm.Ref(qd, childPos[j])
		}
		qgm.RedirectRefsIn([]*qgm.Box{b}, mapping)
		base := len(b.Cols)
		pos := make([]int, k)
		for j := 0; j < k; j++ {
			pos[j] = base + j
			b.GroupBy = append(b.GroupBy, qgm.Ref(qd, childPos[j]))
			b.Cols = append(b.Cols, qgm.OutCol{Name: m.Cols[j].Name, Expr: qgm.Ref(qd, childPos[j])})
		}
		return pos, nil

	case qgm.BoxUnion, qgm.BoxIntersect, qgm.BoxExcept:
		// Feed the magic table to every branch; each branch appends the
		// same k columns, so arities stay aligned. For INTERSECT/EXCEPT
		// this is sound because the magic tag partitions the rows:
		// per-binding set operations equal the global tagged ones.
		for _, qb := range b.Quants {
			if _, err := f.absorb(qb.Input, m, refMap); err != nil {
				return nil, err
			}
		}
		base := len(b.Cols)
		pos := make([]int, k)
		for j := 0; j < k; j++ {
			pos[j] = base + j
			b.Cols = append(b.Cols, qgm.OutCol{Name: m.Cols[j].Name})
		}
		return pos, nil
	}
	return nil, fmt.Errorf("core: cannot absorb a magic table into a %s box", b.Kind)
}
