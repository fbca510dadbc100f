// Package qgm implements the Query Graph Model, the plan representation
// used by Starburst and by this reproduction. A query is a DAG of boxes
// (SELECT/SPJ, GROUP BY, UNION, LEFT OUTER JOIN, and base tables) connected
// by quantifiers ("iterators" in the paper's figures). Correlation is
// represented structurally: a column reference inside a box that resolves
// to a quantifier owned by an ancestor box.
//
// The magic decorrelation rewrite (internal/core), the classic rewrites
// (internal/classic) and the executor (internal/exec) all operate on this
// representation.
package qgm

import (
	"fmt"
	"slices"

	"decorr/internal/schema"
)

// BoxKind enumerates the query constructs modeled as boxes.
type BoxKind uint8

const (
	// BoxBase is a base-table leaf.
	BoxBase BoxKind = iota
	// BoxSelect is a Select-Project-Join block, possibly with subquery
	// quantifiers (scalar, existential, universal) and DISTINCT.
	BoxSelect
	// BoxGroup is a grouped aggregation over a single input quantifier.
	BoxGroup
	// BoxUnion combines same-arity inputs; Distinct selects UNION vs
	// UNION ALL semantics.
	BoxUnion
	// BoxLeftJoin is a left outer join of exactly two quantifiers, with
	// the ON condition in Preds. Quants[0] is the row-preserving side.
	// It is introduced only by rewrites (Dayal's method and the magic
	// COUNT-bug removal); the surface grammar has no outer joins.
	BoxLeftJoin
	// BoxIntersect intersects exactly two same-arity inputs; Distinct
	// selects INTERSECT vs INTERSECT ALL (multiset minimum) semantics.
	// The paper lists Intersection among the QGM box kinds (§3).
	BoxIntersect
	// BoxExcept subtracts Quants[1] from Quants[0]; Distinct selects
	// EXCEPT (set difference over distinct left rows) vs EXCEPT ALL
	// (multiset difference).
	BoxExcept
)

// String names the box kind the way the paper's figures do.
func (k BoxKind) String() string {
	switch k {
	case BoxBase:
		return "BASE"
	case BoxSelect:
		return "SELECT"
	case BoxGroup:
		return "GROUPBY"
	case BoxUnion:
		return "UNION"
	case BoxLeftJoin:
		return "LOJ"
	case BoxIntersect:
		return "INTERSECT"
	case BoxExcept:
		return "EXCEPT"
	}
	return fmt.Sprintf("BoxKind(%d)", uint8(k))
}

// QuantKind enumerates quantifier kinds. ForEach ("F") quantifiers are the
// ordinary FROM-clause iterators; the others attach subqueries to a box.
type QuantKind uint8

const (
	// QForEach ranges over every row of its input.
	QForEach QuantKind = iota
	// QScalar expects at most one row; an empty input contributes a
	// single all-NULL row (SQL scalar subquery semantics), more than one
	// row is a runtime error.
	QScalar
	// QExists requires at least one input row satisfying the predicates
	// that mention this quantifier.
	QExists
	// QNotExists requires that no input row satisfies them.
	QNotExists
	// QAny requires some input row to satisfy them (x op ANY (...)).
	QAny
	// QAll requires every input row to satisfy them (x op ALL (...));
	// vacuously true on an empty input.
	QAll
)

// String returns the single-letter Starburst-style tag.
func (k QuantKind) String() string {
	switch k {
	case QForEach:
		return "F"
	case QScalar:
		return "S"
	case QExists:
		return "E"
	case QNotExists:
		return "¬E"
	case QAny:
		return "ANY"
	case QAll:
		return "ALL"
	}
	return "?"
}

// IsSubquery reports whether the quantifier attaches a subquery (rather
// than iterating rows into the join).
func (k QuantKind) IsSubquery() bool { return k >= QExists }

// Quantifier is an iterator of a box over an input box.
type Quantifier struct {
	ID    int
	Kind  QuantKind
	Input *Box
	Owner *Box
}

// Name returns the display name used in plans and traces (Q<id>).
func (q *Quantifier) Name() string { return fmt.Sprintf("Q%d", q.ID) }

// OutCol is a named output column of a box.
type OutCol struct {
	Name string
	Expr Expr // nil only for BoxBase columns
}

// Box is one node of the query graph.
type Box struct {
	ID       int
	Kind     BoxKind
	Label    string // human tag: root, SUPP, MAGIC, DCO, CI, ...
	Distinct bool

	Quants []*Quantifier
	Preds  []Expr // conjunction
	Cols   []OutCol

	// BoxGroup only: grouping expressions over Quants[0]. Aggregates
	// appear in Cols as *Agg expressions.
	GroupBy []Expr

	// BoxBase only.
	Table *schema.Table
}

// Graph owns id allocation and the root box of one query.
type Graph struct {
	Root      *Box
	nextBox   int
	nextQuant int

	// OrderBy is an executor-level sort of the root output (column
	// ordinals plus direction); it plays no role in rewriting.
	OrderBy []OrderKey
	// Limit caps the root result cardinality after sorting; negative
	// means unlimited. Like OrderBy it is executor-level only.
	Limit int64
	// Params is the number of `?` placeholders the graph's expressions
	// reference; an execution must supply exactly this many values.
	Params int
}

// OrderKey orders root output column Col; Desc selects descending order.
type OrderKey struct {
	Col  int
	Desc bool
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{nextBox: 1, nextQuant: 1, Limit: -1} }

// CloneGraph deep-copies g: every box, quantifier and expression of the
// copy is new, and each keeps its ID, as do the graph's ID counters — so a
// rewrite of the copy allocates exactly the IDs it would have allocated on
// the original, and prints the same plan. Base tables (schema.Table) are
// catalog state and stay shared.
func CloneGraph(g *Graph) *Graph {
	c := *g
	c.OrderBy = slices.Clone(g.OrderBy)
	old := Boxes(g.Root)
	boxes := make(map[*Box]*Box, len(old))
	quants := make(map[*Quantifier]*Quantifier, len(old))
	for _, b := range old {
		nb := *b // every slice is replaced below
		boxes[b] = &nb
	}
	for _, b := range old {
		nb := boxes[b]
		nb.Quants = make([]*Quantifier, len(b.Quants))
		for i, q := range b.Quants {
			nb.Quants[i] = &Quantifier{ID: q.ID, Kind: q.Kind, Input: boxes[q.Input], Owner: nb}
			quants[q] = nb.Quants[i]
		}
	}
	// Expressions last: a correlated reference names a quantifier of an
	// ancestor box, which the loop above has copied by now.
	expr := func(e Expr) Expr {
		return Rewrite(e, func(x Expr) Expr {
			if r, ok := x.(*ColRef); ok {
				r.Q = quants[r.Q]
			}
			return x
		})
	}
	for _, b := range old {
		nb := boxes[b]
		nb.Preds = make([]Expr, len(b.Preds))
		for i, p := range b.Preds {
			nb.Preds[i] = expr(p)
		}
		nb.Cols = make([]OutCol, len(b.Cols))
		for i, col := range b.Cols {
			nb.Cols[i] = OutCol{Name: col.Name, Expr: expr(col.Expr)}
		}
		nb.GroupBy = make([]Expr, len(b.GroupBy))
		for i, e := range b.GroupBy {
			nb.GroupBy[i] = expr(e)
		}
	}
	c.Root = boxes[g.Root]
	return &c
}

// NewBox allocates a box of the given kind.
func (g *Graph) NewBox(kind BoxKind, label string) *Box {
	b := &Box{ID: g.nextBox, Kind: kind, Label: label}
	g.nextBox++
	return b
}

// NewBaseBox allocates a base-table leaf whose output columns mirror the
// table definition.
func (g *Graph) NewBaseBox(t *schema.Table) *Box {
	b := g.NewBox(BoxBase, t.Name)
	b.Table = t
	for _, c := range t.Columns {
		b.Cols = append(b.Cols, OutCol{Name: c.Name})
	}
	return b
}

// AddQuant attaches a new quantifier of the given kind over input to box b.
func (g *Graph) AddQuant(b *Box, kind QuantKind, input *Box) *Quantifier {
	q := &Quantifier{ID: g.nextQuant, Kind: kind, Input: input, Owner: b}
	g.nextQuant++
	b.Quants = append(b.Quants, q)
	return q
}

// RemoveQuant detaches q from its owner. Predicates and outputs referencing
// q must already have been rewritten; Validate catches violations.
func (b *Box) RemoveQuant(q *Quantifier) {
	for i, x := range b.Quants {
		if x == q {
			b.Quants = append(b.Quants[:i], b.Quants[i+1:]...)
			return
		}
	}
}

// OutNames returns the output column names of the box.
func (b *Box) OutNames() []string {
	out := make([]string, len(b.Cols))
	for i, c := range b.Cols {
		out[i] = c.Name
	}
	return out
}

// ColIndex returns the ordinal of the named output column, or -1.
func (b *Box) ColIndex(name string) int {
	for i, c := range b.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ForEachQuants returns the box's ForEach and Scalar quantifiers (the ones
// that contribute rows to the join), in declaration order.
func (b *Box) ForEachQuants() []*Quantifier {
	var out []*Quantifier
	for _, q := range b.Quants {
		if !q.Kind.IsSubquery() {
			out = append(out, q)
		}
	}
	return out
}

// Boxes returns every box reachable from root (root first, then inputs,
// depth-first, each box once even when shared).
func Boxes(root *Box) []*Box {
	return appendBoxes(make([]*Box, 0, 16), root)
}

// appendBoxes is Boxes' walk. A graph holds tens of boxes, so scanning the
// output for a shared box is cheaper than allocating a visited set per call.
func appendBoxes(out []*Box, b *Box) []*Box {
	if b == nil || slices.Contains(out, b) {
		return out
	}
	out = append(out, b)
	for _, q := range b.Quants {
		out = appendBoxes(out, q.Input)
	}
	return out
}

// Contains reports whether needle is reachable from root (inclusive).
func Contains(root, needle *Box) bool {
	for _, b := range Boxes(root) {
		if b == needle {
			return true
		}
	}
	return false
}
