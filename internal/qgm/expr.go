package qgm

import (
	"fmt"
	"strings"

	"decorr/internal/sqltypes"
)

// Expr is a scalar or predicate expression over quantifier columns.
type Expr interface{ qexpr() }

// ColRef references column Col of quantifier Q's input box. When Q is owned
// by an ancestor box of the expression's box, the reference is correlated.
type ColRef struct {
	Q   *Quantifier
	Col int
}

// Const is a literal value.
type Const struct{ V sqltypes.Value }

// Param is a `?` placeholder (zero-based). Its value is supplied per
// execution (exec.Options.Params), so one plan serves many bindings.
type Param struct{ Idx int }

// Op enumerates QGM expression operators.
type Op uint8

// Expression operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// String returns the SQL spelling.
func (op Op) String() string {
	return [...]string{"+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}[op]
}

// IsComparison reports whether op is a comparison operator.
func (op Op) IsComparison() bool { return op >= OpEq && op <= OpGe }

// Flip mirrors a comparison (a op b == b op.Flip() a).
func (op Op) Flip() Op {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// Negate returns the complement of a comparison (for NOT pushing and ALL/ANY
// duality). Note: this is the two-valued complement; three-valued logic is
// handled in the evaluator.
func (op Op) Negate() Op {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return op
}

// Bin is a binary expression.
type Bin struct {
	Op   Op
	L, R Expr
}

// Not is logical negation.
type Not struct{ E Expr }

// IsNull is the IS [NOT] NULL predicate.
type IsNull struct {
	E      Expr
	Negate bool
}

// Like is the LIKE predicate.
type Like struct {
	E, Pattern Expr
	Negate     bool
}

// Func is a scalar function call (coalesce, abs).
type Func struct {
	Name string
	Args []Expr
}

// AggOp enumerates aggregate functions.
type AggOp uint8

// Aggregate functions.
const (
	AggCount AggOp = iota // COUNT(expr) — counts non-NULL; AggCountStar counts rows
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL name.
func (a AggOp) String() string {
	return [...]string{"COUNT", "COUNT(*)", "SUM", "AVG", "MIN", "MAX"}[a]
}

// NeverNullOnEmpty reports whether the aggregate yields a non-NULL value
// (zero) over an empty input — the property behind the COUNT bug.
func (a AggOp) NeverNullOnEmpty() bool { return a == AggCount || a == AggCountStar }

// When is one arm of a Case expression.
type When struct {
	Cond, Result Expr
}

// Case is a searched CASE expression: the first arm whose condition is
// TRUE supplies the result; otherwise Else (NULL when nil).
type Case struct {
	Whens []When
	Else  Expr
}

// Agg is an aggregate expression; valid only in the output columns of a
// BoxGroup, where Arg ranges over the group's input quantifier.
type Agg struct {
	Op       AggOp
	Arg      Expr // nil for COUNT(*)
	Distinct bool
}

func (*ColRef) qexpr() {}
func (*Const) qexpr()  {}
func (*Param) qexpr()  {}
func (*Bin) qexpr()    {}
func (*Not) qexpr()    {}
func (*IsNull) qexpr() {}
func (*Like) qexpr()   {}
func (*Func) qexpr()   {}
func (*Case) qexpr()   {}
func (*Agg) qexpr()    {}

// NewEq builds an equality comparison.
func NewEq(l, r Expr) Expr { return &Bin{Op: OpEq, L: l, R: r} }

// NewNullEq builds a NULL-aware equality (IS NOT DISTINCT FROM): TRUE when
// both sides are NULL, never UNKNOWN. Decorrelation tie predicates need it
// wherever a NULL correlation binding must re-find its compensated row.
func NewNullEq(l, r Expr) Expr {
	return &Bin{Op: OpOr,
		L: &Bin{Op: OpEq, L: l, R: r},
		R: &Bin{Op: OpAnd,
			L: &IsNull{E: CloneExpr(l)},
			R: &IsNull{E: CloneExpr(r)}}}
}

// SplitEq decomposes p as aSide = bSide in whichever orientation has one
// side satisfying a and the other satisfying b; ok=false when p is not an
// equality or neither orientation fits. nullSafe reports that p is
// NewNullEq's form, under which NULL matches NULL: still a hash key, but
// one that files a NULL component as a value. A caller that cannot honour
// that treats a nullSafe split as no key. Every "is this predicate a join
// key" question in the repository is this function plus the caller's two
// side tests (make join-guard).
func SplitEq(p Expr, a, b func(Expr) bool) (aSide, bSide Expr, nullSafe, ok bool) {
	l, r, nullSafe, isEq := eqOperands(p)
	if !isEq {
		return nil, nil, false, false
	}
	switch {
	case a(l) && b(r):
		return l, r, nullSafe, true
	case a(r) && b(l):
		return r, l, nullSafe, true
	}
	return nil, nil, false, false
}

// eqOperands unwraps `l = r`, or NewNullEq's `l = r OR (l IS NULL AND r IS
// NULL)` with nullSafe set; the IS NULL operands must be the equality's
// own, in either order.
func eqOperands(p Expr) (l, r Expr, nullSafe, ok bool) {
	bin, isBin := p.(*Bin)
	if !isBin {
		return nil, nil, false, false
	}
	if bin.Op == OpOr {
		eq, isEq := bin.L.(*Bin)
		both, isAnd := bin.R.(*Bin)
		if !isEq || !isAnd || eq.Op != OpEq || both.Op != OpAnd {
			return nil, nil, false, false
		}
		n1, ok1 := both.L.(*IsNull)
		n2, ok2 := both.R.(*IsNull)
		if !ok1 || !ok2 || n1.Negate || n2.Negate {
			return nil, nil, false, false
		}
		if EqualExpr(n1.E, eq.L) && EqualExpr(n2.E, eq.R) || EqualExpr(n1.E, eq.R) && EqualExpr(n2.E, eq.L) {
			return eq.L, eq.R, true, true
		}
		return nil, nil, false, false
	}
	if bin.Op != OpEq {
		return nil, nil, false, false
	}
	return bin.L, bin.R, false, true
}

// LojKeys decomposes a left-outer-join box's ON predicates into the hash
// keys — equalities with one side over the left quantifier only and the
// other over the right only, outer references allowed on both; nullSafe[i]
// marks pair i as NewNullEq's, which matches NULL to NULL — and the
// residual predicates evaluated per candidate pair. The executor, the cost
// model and the shared-nothing simulator all read this one decomposition.
func LojKeys(b *Box) (left, right []Expr, nullSafe []bool, residual []Expr) {
	ql, qr := b.Quants[0], b.Quants[1]
	onlyL := func(e Expr) bool { return RefsQuant(e, ql) && !RefsQuant(e, qr) }
	onlyR := func(e Expr) bool { return RefsQuant(e, qr) && !RefsQuant(e, ql) }
	for _, p := range b.Preds {
		if l, r, ns, ok := SplitEq(p, onlyL, onlyR); ok {
			left = append(left, l)
			right = append(right, r)
			nullSafe = append(nullSafe, ns)
		} else {
			residual = append(residual, p)
		}
	}
	return left, right, nullSafe, residual
}

// Ref builds a column reference.
func Ref(q *Quantifier, col int) *ColRef { return &ColRef{Q: q, Col: col} }

// ConstInt builds an integer literal expression.
func ConstInt(i int64) Expr { return &Const{V: sqltypes.NewInt(i)} }

// Walk visits e and all sub-expressions in prefix order; returning false
// from f stops descent into that node.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *Bin:
		Walk(x.L, f)
		Walk(x.R, f)
	case *Not:
		Walk(x.E, f)
	case *IsNull:
		Walk(x.E, f)
	case *Like:
		Walk(x.E, f)
		Walk(x.Pattern, f)
	case *Func:
		for _, a := range x.Args {
			Walk(a, f)
		}
	case *Case:
		for _, w := range x.Whens {
			Walk(w.Cond, f)
			Walk(w.Result, f)
		}
		Walk(x.Else, f)
	case *Agg:
		Walk(x.Arg, f)
	}
}

// Rewrite rebuilds e bottom-up, applying f to every node after its children
// have been rewritten. f must return a non-nil expression.
func Rewrite(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Bin:
		return f(&Bin{Op: x.Op, L: Rewrite(x.L, f), R: Rewrite(x.R, f)})
	case *Not:
		return f(&Not{E: Rewrite(x.E, f)})
	case *IsNull:
		return f(&IsNull{E: Rewrite(x.E, f), Negate: x.Negate})
	case *Like:
		return f(&Like{E: Rewrite(x.E, f), Pattern: Rewrite(x.Pattern, f), Negate: x.Negate})
	case *Func:
		n := &Func{Name: x.Name}
		for _, a := range x.Args {
			n.Args = append(n.Args, Rewrite(a, f))
		}
		return f(n)
	case *Case:
		n := &Case{Else: Rewrite(x.Else, f)}
		for _, w := range x.Whens {
			n.Whens = append(n.Whens, When{Cond: Rewrite(w.Cond, f), Result: Rewrite(w.Result, f)})
		}
		return f(n)
	case *Agg:
		return f(&Agg{Op: x.Op, Arg: Rewrite(x.Arg, f), Distinct: x.Distinct})
	case *ColRef:
		return f(&ColRef{Q: x.Q, Col: x.Col})
	case *Const:
		return f(&Const{V: x.V})
	case *Param:
		return f(&Param{Idx: x.Idx})
	}
	return f(e)
}

// EqualExpr reports whether a and b are the same expression: the same
// shape and operators, the same quantifier and column ordinal at every
// reference, and constants of one kind that are sqltypes.Identical. Unlike
// comparing FormatExpr renderings, it never takes two columns that share a
// name for one.
func EqualExpr(a, b Expr) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case *ColRef:
		y, ok := b.(*ColRef)
		return ok && x.Q == y.Q && x.Col == y.Col
	case *Const:
		y, ok := b.(*Const)
		return ok && x.V.K == y.V.K && sqltypes.Identical(x.V, y.V)
	case *Param:
		y, ok := b.(*Param)
		return ok && x.Idx == y.Idx
	case *Bin:
		y, ok := b.(*Bin)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case *Not:
		y, ok := b.(*Not)
		return ok && EqualExpr(x.E, y.E)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Negate == y.Negate && EqualExpr(x.E, y.E)
	case *Like:
		y, ok := b.(*Like)
		return ok && x.Negate == y.Negate && EqualExpr(x.E, y.E) && EqualExpr(x.Pattern, y.Pattern)
	case *Func:
		y, ok := b.(*Func)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Case:
		y, ok := b.(*Case)
		if !ok || len(x.Whens) != len(y.Whens) || !EqualExpr(x.Else, y.Else) {
			return false
		}
		for i := range x.Whens {
			if !EqualExpr(x.Whens[i].Cond, y.Whens[i].Cond) || !EqualExpr(x.Whens[i].Result, y.Whens[i].Result) {
				return false
			}
		}
		return true
	case *Agg:
		y, ok := b.(*Agg)
		return ok && x.Op == y.Op && x.Distinct == y.Distinct && EqualExpr(x.Arg, y.Arg)
	}
	return false
}

// Refs returns every ColRef in e in visit order.
func Refs(e Expr) []*ColRef {
	var out []*ColRef
	Walk(e, func(x Expr) bool {
		if r, ok := x.(*ColRef); ok {
			out = append(out, r)
		}
		return true
	})
	return out
}

// RefsQuant reports whether e references quantifier q.
func RefsQuant(e Expr, q *Quantifier) bool {
	for _, r := range Refs(e) {
		if r.Q == q {
			return true
		}
	}
	return false
}

// QuantSet returns the set of quantifiers referenced by e.
func QuantSet(e Expr) map[*Quantifier]bool {
	s := map[*Quantifier]bool{}
	for _, r := range Refs(e) {
		s[r.Q] = true
	}
	return s
}

// SplitConjuncts flattens an AND tree into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Bin); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll conjoins a list of predicates (nil for an empty list).
func AndAll(ps []Expr) Expr {
	var out Expr
	for _, p := range ps {
		if out == nil {
			out = p
		} else {
			out = &Bin{Op: OpAnd, L: out, R: p}
		}
	}
	return out
}

// FormatExpr renders an expression for plans and traces, naming columns as
// Q<id>.<colname> where the input box exposes a name.
func FormatExpr(e Expr) string {
	if e == nil {
		return "<nil>"
	}
	switch x := e.(type) {
	case *ColRef:
		name := fmt.Sprintf("c%d", x.Col)
		if x.Q.Input != nil && x.Col < len(x.Q.Input.Cols) {
			if n := x.Q.Input.Cols[x.Col].Name; n != "" {
				name = n
			}
		}
		return fmt.Sprintf("%s.%s", x.Q.Name(), name)
	case *Const:
		if x.V.K == sqltypes.KindString {
			return "'" + x.V.S + "'"
		}
		return x.V.String()
	case *Param:
		return fmt.Sprintf("?%d", x.Idx+1)
	case *Bin:
		return fmt.Sprintf("(%s %s %s)", FormatExpr(x.L), x.Op, FormatExpr(x.R))
	case *Not:
		return fmt.Sprintf("NOT %s", FormatExpr(x.E))
	case *IsNull:
		if x.Negate {
			return fmt.Sprintf("%s IS NOT NULL", FormatExpr(x.E))
		}
		return fmt.Sprintf("%s IS NULL", FormatExpr(x.E))
	case *Like:
		neg := ""
		if x.Negate {
			neg = "NOT "
		}
		return fmt.Sprintf("%s %sLIKE %s", FormatExpr(x.E), neg, FormatExpr(x.Pattern))
	case *Func:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = FormatExpr(a)
		}
		return fmt.Sprintf("%s(%s)", x.Name, strings.Join(args, ", "))
	case *Case:
		var sb strings.Builder
		sb.WriteString("CASE")
		for _, w := range x.Whens {
			fmt.Fprintf(&sb, " WHEN %s THEN %s", FormatExpr(w.Cond), FormatExpr(w.Result))
		}
		if x.Else != nil {
			fmt.Fprintf(&sb, " ELSE %s", FormatExpr(x.Else))
		}
		sb.WriteString(" END")
		return sb.String()
	case *Agg:
		if x.Op == AggCountStar {
			return "COUNT(*)"
		}
		d := ""
		if x.Distinct {
			d = "DISTINCT "
		}
		return fmt.Sprintf("%s(%s%s)", x.Op, d, FormatExpr(x.Arg))
	}
	return fmt.Sprintf("%T", e)
}
