package rewrite

import (
	"slices"
	"sort"

	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
)

// PruneProjections removes output columns no consumer references. The
// supplementary tables magic decorrelation builds carry every column any
// consumer might need; after the CI merges settle, many are dead weight —
// pruning them narrows hash-join payloads and scans of derived tables.
//
// Boxes are skipped when pruning would change semantics or break
// alignment: base tables (storage layout), DISTINCT boxes (projection
// width defines duplicate semantics), union boxes and their direct inputs
// (positional alignment), and the root (client-visible shape).
type PruneProjections struct{}

// Name implements Rule.
func (PruneProjections) Name() string { return "prune-projections" }

// Apply implements Rule.
func (PruneProjections) Apply(g *qgm.Graph) (bool, error) {
	boxes := qgm.Boxes(g.Root)
	used := map[*qgm.Box]map[int]bool{}
	setOpInput := map[*qgm.Box]bool{}
	isSetOp := func(k qgm.BoxKind) bool {
		return k == qgm.BoxUnion || k == qgm.BoxIntersect || k == qgm.BoxExcept
	}
	for _, b := range boxes {
		for _, q := range b.Quants {
			if used[q.Input] == nil {
				used[q.Input] = map[int]bool{}
			}
			if isSetOp(b.Kind) {
				setOpInput[q.Input] = true
			}
		}
		b.ExprSlots(func(slot *qgm.Expr) {
			for _, r := range qgm.Refs(*slot) {
				if used[r.Q.Input] == nil {
					used[r.Q.Input] = map[int]bool{}
				}
				used[r.Q.Input][r.Col] = true
			}
		})
	}
	changed := false
	for _, b := range boxes {
		// Set-operation boxes and their inputs are untouchable: row
		// identity covers every column and branch arities must align.
		if b == g.Root || b.Kind == qgm.BoxBase || isSetOp(b.Kind) ||
			b.Distinct || setOpInput[b] {
			continue
		}
		u := used[b]
		if len(u) == len(b.Cols) {
			continue
		}
		// Keep at least one column so the box still produces rows with
		// observable width (existential inputs may use none).
		keep := make([]int, 0, len(u))
		for c := range u {
			keep = append(keep, c)
		}
		sort.Ints(keep)
		if len(keep) == 0 {
			keep = []int{0}
		}
		if len(keep) == len(b.Cols) {
			continue
		}
		remap := map[int]int{}
		newCols := make([]qgm.OutCol, 0, len(keep))
		for newIdx, oldIdx := range keep {
			remap[oldIdx] = newIdx
			newCols = append(newCols, b.Cols[oldIdx])
		}
		b.Cols = newCols
		// Rewrite every reference to b across the graph.
		for _, holder := range boxes {
			holder.ExprSlots(func(slot *qgm.Expr) {
				*slot = qgm.Rewrite(*slot, func(e qgm.Expr) qgm.Expr {
					if r, ok := e.(*qgm.ColRef); ok && r.Q.Input == b {
						if n, ok := remap[r.Col]; ok {
							return qgm.Ref(r.Q, n)
						}
					}
					return e
				})
			})
		}
		changed = true
	}
	return changed, nil
}

// FoldConstants evaluates constant sub-expressions at rewrite time and
// removes predicates that fold to TRUE.
type FoldConstants struct{}

// Name implements Rule.
func (FoldConstants) Name() string { return "fold-constants" }

// Apply implements Rule.
func (FoldConstants) Apply(g *qgm.Graph) (bool, error) {
	changed := false
	for _, b := range qgm.Boxes(g.Root) {
		b.ExprSlots(func(slot *qgm.Expr) {
			if foldable(*slot) {
				*slot = qgm.Rewrite(*slot, foldConst)
				changed = true
			}
		})
		// A LOJ's ON clause and an SPJ both tolerate losing TRUE conjuncts.
		if (b.Kind == qgm.BoxSelect || b.Kind == qgm.BoxLeftJoin) && slices.ContainsFunc(b.Preds, isTrue) {
			b.Preds = slices.DeleteFunc(slices.Clone(b.Preds), isTrue)
			changed = true
		}
	}
	return changed, nil
}

// isTrue reports whether p is the constant TRUE.
func isTrue(p qgm.Expr) bool {
	c, ok := p.(*qgm.Const)
	return ok && c.V.K == sqltypes.KindBool && c.V.B
}

// foldable reports whether rewriting e with foldConst changes it. The
// lowest node that folds has children foldConst leaves alone, so it folds
// in e as written: asking every node of e is enough, and allocates nothing
// when the answer is no.
func foldable(e qgm.Expr) bool {
	found := false
	qgm.Walk(e, func(x qgm.Expr) bool {
		found = found || foldConst(x) != x
		return !found
	})
	return found
}

// foldConst folds one node whose operands are constants; it returns e
// itself when there is nothing to fold.
func foldConst(e qgm.Expr) qgm.Expr {
	switch x := e.(type) {
	case *qgm.Bin:
		l, lok := x.L.(*qgm.Const)
		r, rok := x.R.(*qgm.Const)
		if !lok || !rok {
			return e
		}
		switch x.Op {
		case qgm.OpAdd, qgm.OpSub, qgm.OpMul, qgm.OpDiv:
			v, err := sqltypes.Arith(arith(x.Op), l.V, r.V)
			if err != nil {
				return e // keep the runtime error (e.g. division by zero)
			}
			return &qgm.Const{V: v}
		case qgm.OpEq, qgm.OpNe, qgm.OpLt, qgm.OpLe, qgm.OpGt, qgm.OpGe:
			c, ok := sqltypes.Compare(l.V, r.V)
			if !ok {
				return &qgm.Const{V: sqltypes.Null}
			}
			var res bool
			switch x.Op {
			case qgm.OpEq:
				res = c == 0
			case qgm.OpNe:
				res = c != 0
			case qgm.OpLt:
				res = c < 0
			case qgm.OpLe:
				res = c <= 0
			case qgm.OpGt:
				res = c > 0
			case qgm.OpGe:
				res = c >= 0
			}
			return &qgm.Const{V: sqltypes.NewBool(res)}
		}
	case *qgm.Func:
		if x.Name == "coalesce" {
			// coalesce with a leading non-NULL constant folds to it.
			if len(x.Args) > 0 {
				if c, ok := x.Args[0].(*qgm.Const); ok && !c.V.IsNull() {
					return c
				}
			}
		}
	case *qgm.IsNull:
		if c, ok := x.E.(*qgm.Const); ok {
			res := c.V.IsNull()
			if x.Negate {
				res = !res
			}
			return &qgm.Const{V: sqltypes.NewBool(res)}
		}
	}
	return e
}

func arith(op qgm.Op) sqltypes.ArithOp {
	switch op {
	case qgm.OpAdd:
		return sqltypes.OpAdd
	case qgm.OpSub:
		return sqltypes.OpSub
	case qgm.OpMul:
		return sqltypes.OpMul
	}
	return sqltypes.OpDiv
}

// DropRedundantDistinct clears the DISTINCT flag of select boxes whose
// output is provably duplicate-free (the outputs contain a candidate key of
// the underlying join). Magic tables over key-preserving supplementary
// tables are the motivating case.
type DropRedundantDistinct struct{}

// Name implements Rule.
func (DropRedundantDistinct) Name() string { return "drop-redundant-distinct" }

// Apply implements Rule.
func (DropRedundantDistinct) Apply(g *qgm.Graph) (bool, error) {
	changed := false
	for _, b := range qgm.Boxes(g.Root) {
		if b.Kind != qgm.BoxSelect || !b.Distinct {
			continue
		}
		all := map[int]bool{}
		for i := range b.Cols {
			all[i] = true
		}
		b.Distinct = false // evaluate the key property of the bare join
		if qgm.KeyWithin(b, all) {
			changed = true // flag stays cleared
		} else {
			b.Distinct = true
		}
	}
	return changed, nil
}
