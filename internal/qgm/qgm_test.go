package qgm

import (
	"strings"
	"testing"

	"decorr/internal/schema"
	"decorr/internal/sqltypes"
)

func demoTable(name string, cols ...string) *schema.Table {
	var cs []schema.Column
	for _, c := range cols {
		cs = append(cs, schema.Column{Name: c, Type: schema.TInt})
	}
	return schema.NewTable(name, cs...)
}

// buildCorrelated constructs a minimal correlated graph:
//
//	root: SELECT over t, with a scalar quantifier over sub
//	sub:  SELECT over u with pred u.c0 = t.c0 (correlated)
func buildCorrelated() (*Graph, *Box, *Box, *Quantifier, *Quantifier) {
	g := NewGraph()
	root := g.NewBox(BoxSelect, "root")
	tBase := g.NewBaseBox(demoTable("t", "a", "b"))
	uBase := g.NewBaseBox(demoTable("u", "c", "d"))
	qt := g.AddQuant(root, QForEach, tBase)

	sub := g.NewBox(BoxSelect, "sub")
	qu := g.AddQuant(sub, QForEach, uBase)
	sub.Preds = append(sub.Preds, NewEq(Ref(qu, 0), Ref(qt, 0))) // correlated
	sub.Cols = append(sub.Cols, OutCol{Name: "d", Expr: Ref(qu, 1)})

	qs := g.AddQuant(root, QScalar, sub)
	root.Preds = append(root.Preds, &Bin{Op: OpGt, L: Ref(qt, 1), R: Ref(qs, 0)})
	root.Cols = append(root.Cols, OutCol{Name: "a", Expr: Ref(qt, 0)})
	g.Root = root
	return g, root, sub, qt, qs
}

func TestValidateAcceptsCorrelatedGraph(t *testing.T) {
	g, _, _, _, _ := buildCorrelated()
	if err := Validate(g); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestFreeRefsAndCorrelatedTo(t *testing.T) {
	_, root, sub, qt, _ := buildCorrelated()
	refs := FreeRefs(sub)
	if len(refs) != 1 || refs[0].Q != qt || refs[0].Col != 0 {
		t.Fatalf("free refs = %+v", refs)
	}
	if !CorrelatedTo(sub, root) {
		t.Error("sub is correlated to root")
	}
	if !IsCorrelated(sub) {
		t.Error("sub is correlated")
	}
	if IsCorrelated(root) {
		t.Error("root has no free refs")
	}
}

func TestValidateRejectsOutOfScopeRef(t *testing.T) {
	g := NewGraph()
	a := g.NewBox(BoxSelect, "a")
	b := g.NewBox(BoxSelect, "b")
	base1 := g.NewBaseBox(demoTable("t", "x"))
	base2 := g.NewBaseBox(demoTable("u", "y"))
	qa := g.AddQuant(a, QForEach, base1)
	qb := g.AddQuant(b, QForEach, base2)
	a.Cols = []OutCol{{Name: "x", Expr: Ref(qa, 0)}}
	// b references a's quantifier, but a is not an ancestor of b.
	b.Cols = []OutCol{{Name: "bad", Expr: Ref(qa, 0)}}
	_ = qb
	g.Root = b
	if err := Validate(g); err == nil {
		t.Fatal("expected scope violation")
	}
	// Siblings under one root: a is in the graph, still not b's ancestor.
	root := g.NewBox(BoxSelect, "root")
	qra := g.AddQuant(root, QForEach, a)
	g.AddQuant(root, QForEach, b)
	root.Cols = []OutCol{{Name: "x", Expr: Ref(qra, 0)}}
	g.Root = root
	if err := Validate(g); err == nil {
		t.Fatal("expected scope violation between siblings")
	}
}

func TestValidateRejectsColumnOutOfRange(t *testing.T) {
	g := NewGraph()
	root := g.NewBox(BoxSelect, "root")
	base := g.NewBaseBox(demoTable("t", "x"))
	q := g.AddQuant(root, QForEach, base)
	root.Cols = []OutCol{{Name: "boom", Expr: Ref(q, 5)}}
	g.Root = root
	if err := Validate(g); err == nil {
		t.Fatal("expected column-range violation")
	}
}

func TestValidateBoxShapes(t *testing.T) {
	g := NewGraph()
	base := g.NewBaseBox(demoTable("t", "x"))

	group := g.NewBox(BoxGroup, "g")
	q := g.AddQuant(group, QForEach, base)
	group.Cols = []OutCol{{Name: "n", Expr: &Agg{Op: AggCountStar}}}
	g.Root = group
	if err := Validate(g); err != nil {
		t.Fatalf("group box rejected: %v", err)
	}
	// Group boxes must not carry predicates.
	group.Preds = append(group.Preds, NewEq(Ref(q, 0), ConstInt(1)))
	if err := Validate(g); err == nil {
		t.Fatal("group box with predicates accepted")
	}
	group.Preds = nil

	// Aggregates are illegal in select boxes.
	sel := g.NewBox(BoxSelect, "s")
	qs := g.AddQuant(sel, QForEach, base)
	_ = qs
	sel.Cols = []OutCol{{Name: "n", Expr: &Agg{Op: AggCountStar}}}
	g.Root = sel
	if err := Validate(g); err == nil {
		t.Fatal("select box with aggregate output accepted")
	}
}

func TestUnionArityChecked(t *testing.T) {
	g := NewGraph()
	one := g.NewBaseBox(demoTable("t", "x"))
	two := g.NewBaseBox(demoTable("u", "y", "z"))
	u := g.NewBox(BoxUnion, "u")
	g.AddQuant(u, QForEach, one)
	g.AddQuant(u, QForEach, two)
	u.Cols = []OutCol{{Name: "x"}}
	g.Root = u
	if err := Validate(g); err == nil {
		t.Fatal("union with mismatched arity accepted")
	}
}

func TestSplitConjunctsAndAndAll(t *testing.T) {
	a := ConstInt(1)
	b := ConstInt(2)
	c := ConstInt(3)
	e := AndAll([]Expr{a, b, c})
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("got %d conjuncts", len(parts))
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
	if len(SplitConjuncts(nil)) != 0 {
		t.Error("SplitConjuncts(nil) should be empty")
	}
}

func TestRewritePreservesStructure(t *testing.T) {
	_, _, sub, qt, _ := buildCorrelated()
	// Redirect the correlated ref to a constant; the graph loses its
	// correlation.
	RedirectRefs(sub, map[RefKey]Expr{{Q: qt, Col: 0}: &Const{V: sqltypes.NewInt(9)}})
	if IsCorrelated(sub) {
		t.Fatalf("still correlated after redirect: %+v", FreeRefs(sub))
	}
}

func TestCloneExprIsDeep(t *testing.T) {
	_, _, sub, _, _ := buildCorrelated()
	orig := sub.Preds[0]
	cl := CloneExpr(orig)
	// Mutating the clone must not affect the original.
	cl.(*Bin).Op = OpNe
	if orig.(*Bin).Op != OpEq {
		t.Error("clone aliases the original")
	}
}

func TestOpHelpers(t *testing.T) {
	if OpLt.Flip() != OpGt || OpGe.Flip() != OpLe || OpEq.Flip() != OpEq {
		t.Error("Flip broken")
	}
	if OpLt.Negate() != OpGe || OpEq.Negate() != OpNe {
		t.Error("Negate broken")
	}
	if !OpLe.IsComparison() || OpAnd.IsComparison() || OpAdd.IsComparison() {
		t.Error("IsComparison broken")
	}
}

func TestBoxesVisitsSharedOnce(t *testing.T) {
	g := NewGraph()
	base := g.NewBaseBox(demoTable("t", "x"))
	root := g.NewBox(BoxSelect, "root")
	q1 := g.AddQuant(root, QForEach, base)
	q2 := g.AddQuant(root, QForEach, base) // shared CSE
	root.Cols = []OutCol{{Name: "x", Expr: Ref(q1, 0)}, {Name: "y", Expr: Ref(q2, 0)}}
	g.Root = root
	if got := len(Boxes(root)); got != 2 {
		t.Errorf("Boxes visited %d boxes, want 2 (shared box once)", got)
	}
}

func TestFormatMentionsCorrelation(t *testing.T) {
	g, _, _, _, _ := buildCorrelated()
	s := Format(g)
	if !strings.Contains(s, "correlated") {
		t.Errorf("plan should flag the correlated predicate:\n%s", s)
	}
	if !strings.Contains(s, "BASE") || !strings.Contains(s, "SELECT") {
		t.Errorf("plan missing box kinds:\n%s", s)
	}
}

func TestFormatExprShapes(t *testing.T) {
	g := NewGraph()
	base := g.NewBaseBox(demoTable("t", "price"))
	root := g.NewBox(BoxSelect, "r")
	q := g.AddQuant(root, QForEach, base)
	cases := []struct {
		e    Expr
		want string
	}{
		{Ref(q, 0), ".price"},
		{&Const{V: sqltypes.NewString("x")}, "'x'"},
		{&IsNull{E: Ref(q, 0)}, "IS NULL"},
		{&IsNull{E: Ref(q, 0), Negate: true}, "IS NOT NULL"},
		{&Agg{Op: AggCountStar}, "COUNT(*)"},
		{&Agg{Op: AggSum, Arg: Ref(q, 0)}, "SUM("},
		{&Func{Name: "coalesce", Args: []Expr{Ref(q, 0), ConstInt(0)}}, "coalesce("},
		{&Like{E: Ref(q, 0), Pattern: &Const{V: sqltypes.NewString("%a")}}, "LIKE"},
	}
	for _, c := range cases {
		if got := FormatExpr(c.e); !strings.Contains(got, c.want) {
			t.Errorf("FormatExpr = %q, want substring %q", got, c.want)
		}
	}
}

func TestQuantAndRefUtilities(t *testing.T) {
	_, root, sub, qt, qs := buildCorrelated()
	if !RefsQuant(root.Preds[0], qs) {
		t.Error("root pred references the scalar quantifier")
	}
	qset := QuantSet(root.Preds[0])
	if !qset[qt] || !qset[qs] || len(qset) != 2 {
		t.Errorf("quant set = %v", qset)
	}
	if !Contains(root, sub) || Contains(sub, root) {
		t.Error("Contains broken")
	}
}

func TestRemoveQuant(t *testing.T) {
	_, root, _, qt, qs := buildCorrelated()
	root.RemoveQuant(qt)
	if len(root.Quants) != 1 || root.Quants[0] != qs {
		t.Errorf("quants after removal = %v", root.Quants)
	}
	root.RemoveQuant(qt) // no-op
	if len(root.Quants) != 1 {
		t.Error("double removal changed the box")
	}
}

// SplitEq is the repository's one `=` decomposer and LojKeys its first
// reader: the table pins both through a left-outer-join box over l(a,b)
// and r(c,d) nested under a box that binds o(x).
func TestSplitEqAndLojKeys(t *testing.T) {
	g := NewGraph()
	outer := g.NewBox(BoxSelect, "outer")
	qo := g.AddQuant(outer, QForEach, g.NewBaseBox(demoTable("o", "x")))
	loj := g.NewBox(BoxLeftJoin, "loj")
	ql := g.AddQuant(loj, QForEach, g.NewBaseBox(demoTable("l", "a", "b")))
	qr := g.AddQuant(loj, QForEach, g.NewBaseBox(demoTable("r", "c", "d")))
	la, rc, rd, ox := Ref(ql, 0), Ref(qr, 0), Ref(qr, 1), Ref(qo, 0)
	plus := func(l, r Expr) Expr { return &Bin{Op: OpAdd, L: l, R: r} }

	cases := []struct {
		name        string
		pred        Expr
		left, right Expr // nil: not a hash key, the predicate is residual
	}{
		{"left = right", NewEq(la, rc), la, rc},
		{"right = left is turned round", NewEq(rc, la), la, rc},
		{"a constant rides on either side", NewEq(plus(la, ConstInt(1)), rc), plus(la, ConstInt(1)), rc},
		{"an outer reference rides on the left side", NewEq(plus(la, ox), rc), plus(la, ox), rc},
		{"an outer reference rides on the right side", NewEq(plus(rc, ox), la), la, plus(rc, ox)},
		{"a side mixing both inputs declines", NewEq(plus(la, rd), rc), nil, nil},
		{"a side reading neither input declines", NewEq(la, ox), nil, nil},
		{"left = constant is a filter, not a key", NewEq(la, ConstInt(5)), nil, nil},
		{"an inequality declines", &Bin{Op: OpLt, L: la, R: rc}, nil, nil},
		{"a non-Bin declines", &IsNull{E: la}, nil, nil},
		{"the null-safe equality is an OR, not (yet) a key", NewNullEq(la, rc), nil, nil},
	}
	for _, c := range cases {
		loj.Preds = []Expr{c.pred}
		left, right, residual := LojKeys(loj)
		if c.left == nil {
			if len(left) != 0 || len(right) != 0 || len(residual) != 1 || residual[0] != c.pred {
				t.Errorf("%s: keys %d/%d, residual %d; want the predicate left residual", c.name, len(left), len(right), len(residual))
			}
			continue
		}
		if len(left) != 1 || len(right) != 1 || len(residual) != 0 {
			t.Errorf("%s: keys %d/%d, residual %d; want one key pair", c.name, len(left), len(right), len(residual))
			continue
		}
		if got, want := FormatExpr(left[0])+" | "+FormatExpr(right[0]), FormatExpr(c.left)+" | "+FormatExpr(c.right); got != want {
			t.Errorf("%s: split %s, want %s", c.name, got, want)
		}
	}

	// The side tests are the caller's: SplitEq itself only unwraps `=` and
	// tries both orientations, first the written one.
	anySide := func(Expr) bool { return true }
	isRef := func(e Expr) bool { _, ok := e.(*ColRef); return ok }
	if a, b, ok := SplitEq(NewEq(la, rc), anySide, anySide); !ok || a != Expr(la) || b != Expr(rc) {
		t.Errorf("both orientations fit: want the written one, got %v %v %v", a, b, ok)
	}
	if a, _, ok := SplitEq(NewEq(ConstInt(5), la), isRef, anySide); !ok || a != Expr(la) {
		t.Errorf("5 = l.a with a bare column wanted first: got %v %v", a, ok)
	}
	if _, _, ok := SplitEq(NewEq(ConstInt(5), ConstInt(6)), isRef, anySide); ok {
		t.Error("no side is a bare column, yet SplitEq accepted")
	}
}

func TestEqualExpr(t *testing.T) {
	g := NewGraph()
	// Two columns named alike, as the SUPP table of a decorrelated
	// self-join carries o1.building and o2.building.
	base := g.NewBaseBox(demoTable("supp", "building", "building"))
	root := g.NewBox(BoxSelect, "r")
	q := g.AddQuant(root, QForEach, base)
	q2 := g.AddQuant(root, QForEach, base)
	str := func(s string) Expr { return &Const{V: sqltypes.NewString(s)} }
	rich := &Case{
		Whens: []When{{
			Cond: &Bin{Op: OpOr,
				L: &Not{E: &Like{E: Ref(q, 0), Pattern: str("B%")}},
				R: &IsNull{E: &Param{Idx: 0}, Negate: true}},
			Result: &Func{Name: "coalesce", Args: []Expr{Ref(q, 1), str("x")}},
		}},
		Else: &Const{V: sqltypes.Null},
	}
	for _, c := range []struct {
		name string
		a, b Expr
		want bool
	}{
		{"same-named columns at different ordinals", NewEq(Ref(q, 0), str("B1")), NewEq(Ref(q, 1), str("B1")), false},
		{"one column of two quantifiers", Ref(q, 0), Ref(q2, 0), false},
		{"a CloneExpr copy", rich, CloneExpr(rich), true},
		{"an aggregate's copy", &Agg{Op: AggSum, Arg: Ref(q, 1), Distinct: true}, CloneExpr(&Agg{Op: AggSum, Arg: Ref(q, 1), Distinct: true}), true},
		{"int and float constants", ConstInt(1), &Const{V: sqltypes.NewFloat(1)}, false},
		{"NULL constants", &Const{V: sqltypes.Null}, &Const{V: sqltypes.Null}, true},
		{"operators", NewEq(Ref(q, 0), str("B1")), &Bin{Op: OpNe, L: Ref(q, 0), R: str("B1")}, false},
		{"DISTINCT aggregates", &Agg{Op: AggCount, Arg: Ref(q, 0)}, &Agg{Op: AggCount, Arg: Ref(q, 0), Distinct: true}, false},
		{"a missing ELSE", &Case{Whens: rich.Whens}, rich, false},
		{"nil", nil, nil, true},
	} {
		if got := EqualExpr(c.a, c.b); got != c.want {
			t.Errorf("%s: EqualExpr = %v, want %v", c.name, got, c.want)
		}
		if got := EqualExpr(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): EqualExpr = %v, want %v", c.name, got, c.want)
		}
	}
	// The printed form is what the duplicate-predicate rule used to compare.
	if FormatExpr(Ref(q, 0)) != FormatExpr(Ref(q, 1)) {
		t.Error("the same-named columns no longer print alike; the first case lost its point")
	}
}
