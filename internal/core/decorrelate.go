package core

import (
	"fmt"
	"sort"

	"decorr/internal/qgm"
	"decorr/internal/rewrite"
	"decorr/internal/sqltypes"
)

// Decorrelate rewrites the graph in place, eliminating (as far as the
// options allow) all correlations. It runs the feed rule under the rewrite
// engine, which validates the graph after every firing. The caller should
// run the cleanup rewrite rules afterwards to merge the helper boxes the
// algorithm introduces.
func Decorrelate(g *qgm.Graph, opts Options, tr *Trace) error {
	if opts.Order == nil {
		return fmt.Errorf("core: Options.Order is required (the executor's JoinOrder)")
	}
	f := &feed{g: g, opts: opts, tr: tr, fed: map[*qgm.Quantifier]bool{}}
	f.snap("initial correlated QGM (Fig 2a)")
	// Every firing retires a quantifier the graph holds now, and one more
	// pass finds nothing left to feed.
	passes := 1
	for _, b := range qgm.Boxes(g.Root) {
		passes += len(b.Quants)
	}
	e := rewrite.Engine{Rules: []rewrite.Rule{f}, MaxPasses: passes, Tracer: opts.Tracer}
	if err := e.Run(g); err != nil {
		return err
	}
	f.snap("final decorrelated QGM")
	return nil
}

// feed is magic decorrelation as a rewrite rule: one firing feeds one
// correlated quantifier of a SELECT box. Absorbed children may expose new
// correlations one level down, fed by later firings — the paper's
// level-by-level propagation of correlation bindings.
type feed struct {
	g    *qgm.Graph
	opts Options
	tr   *Trace
	// fed holds every quantifier considered so far, fed or declined, for
	// the whole run: FEED can move a declined quantifier into SUPP, where
	// asking canDecorrelate again could decide differently.
	fed map[*qgm.Quantifier]bool
}

// Name implements rewrite.Rule.
func (*feed) Name() string { return "feed" }

// Apply implements rewrite.Rule. It fires on the first quantifier, in
// top-down box order, that is correlated to its SELECT box and has not been
// considered before.
func (f *feed) Apply(g *qgm.Graph) (bool, error) {
	var refs map[*qgm.Box]int // counted at the first candidate
	for _, b := range qgm.Boxes(g.Root) {
		if b.Kind != qgm.BoxSelect {
			continue
		}
		for _, q := range b.Quants {
			if f.fed[q] || !qgm.CorrelatedTo(q.Input, b) {
				continue
			}
			f.fed[q] = true
			if refs == nil {
				refs = qgm.RefCounts(g.Root)
			}
			if f.canDecorrelate(refs, b, q) {
				return true, f.fire(b, q)
			}
		}
	}
	return false, nil
}

// canDecorrelate is the "deciding to decorrelate" step (§4.1): it checks
// the child's shape, the knobs, and the feasibility of COUNT-bug
// compensation.
func (f *feed) canDecorrelate(refs map[*qgm.Box]int, b *qgm.Box, q *qgm.Quantifier) bool {
	child := q.Input
	if !absorbable(child) {
		return false
	}
	if q.Kind.IsSubquery() && !f.opts.DecorrelateExistential {
		return false
	}
	if q.Kind == qgm.QAll {
		// A universal quantifier's tie predicates are conditions every
		// row must meet; the magic-equality tie would have to act as a
		// restriction instead. The box encapsulator therefore declines,
		// exactly the situation §4.4 describes for ALL subqueries.
		return false
	}
	// Shared children (common subexpressions) are left alone; the paper
	// assumes hierarchical queries for the rewrite.
	if refs[child] > 1 {
		return false
	}
	// Correlation must come from row-contributing quantifiers of b.
	for _, r := range qgm.FreeRefs(child) {
		if r.Q.Owner == b && r.Q.Kind.IsSubquery() {
			return false
		}
	}
	comp := f.compensationPlan(b, q)
	if comp.need && (!f.opts.UseOuterJoin || !comp.ok) {
		return false
	}
	return true
}

// compPlan captures the COUNT-bug analysis for one fed subquery.
type compPlan struct {
	need      bool             // a compensating outer join is required
	ok        bool             // the analysis succeeded
	emptyVals []sqltypes.Value // per-column value for unmatched bindings
}

func (f *feed) compensationPlan(b *qgm.Box, q *qgm.Quantifier) compPlan {
	child := q.Input
	if q.Kind.IsSubquery() {
		// EXISTS/ANY/ALL quantifier semantics over the decorrelated view
		// are preserved by the tie predicates alone (an absent binding is
		// an empty set, which is what nested iteration saw too).
		return compPlan{ok: true}
	}
	if guaranteesRow(child) {
		vals, ok := emptyRowValues(child)
		if !ok {
			return compPlan{need: true}
		}
		allNull := true
		for _, v := range vals {
			if !v.IsNull() {
				allNull = false
				break
			}
		}
		if allNull && q.Kind == qgm.QScalar && refsNullRejecting(b, q) {
			// NI would produce NULLs that null-rejecting predicates
			// filter; the inner join drops the same rows (§5.2: "none of
			// the queries required the use of an outer-join").
			return compPlan{ok: true}
		}
		return compPlan{need: true, ok: true, emptyVals: vals}
	}
	if q.Kind == qgm.QScalar && !refsNullRejecting(b, q) {
		nulls := make([]sqltypes.Value, len(child.Cols))
		return compPlan{need: true, ok: true, emptyVals: nulls}
	}
	return compPlan{ok: true}
}

// fire runs the FEED stage for child quantifier q of cur, then absorbs the
// magic table into the child and ties the decorrelated view back to the
// outer block (the paper's Figures 2–4 in one firing, with the CI merge
// fused in).
func (f *feed) fire(cur *qgm.Box, q *qgm.Quantifier) error {
	child := q.Input

	// 1. NI order and the supplementary split: everything bound before the
	// subquery goes into SUPP.
	order := f.opts.Order(cur)
	pos := -1
	for i, oq := range order {
		if oq == q {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("core: quantifier %s missing from join order", q.Name())
	}
	suppSet := map[*qgm.Quantifier]bool{}
	for _, oq := range order[:pos] {
		suppSet[oq] = true
	}
	// Every quantifier the child's correlation references must be in SUPP.
	for _, r := range qgm.FreeRefs(child) {
		if r.Q.Owner == cur && !suppSet[r.Q] {
			return fmt.Errorf("core: correlation source %s ordered after the subquery", r.Q.Name())
		}
	}
	if len(suppSet) == 0 {
		return fmt.Errorf("core: empty supplementary for %s", q.Name())
	}

	// 2. Build the SUPP box: move the quantifiers and the predicates fully
	// contained in them.
	supp := f.g.NewBox(qgm.BoxSelect, "SUPP")
	for _, sq := range append([]*qgm.Quantifier(nil), cur.Quants...) {
		if suppSet[sq] {
			cur.RemoveQuant(sq)
			sq.Owner = supp
			supp.Quants = append(supp.Quants, sq)
		}
	}
	var keep []qgm.Expr
	for _, p := range cur.Preds {
		inSupp := true
		for x := range qgm.QuantSet(p) {
			if x.Owner == cur { // still owned by cur -> references a remaining quant
				inSupp = false
				break
			}
		}
		if inSupp {
			supp.Preds = append(supp.Preds, p)
		} else {
			keep = append(keep, p)
		}
	}
	cur.Preds = keep

	// 3. SUPP outputs: every column of the moved quantifiers referenced
	// from outside SUPP (by cur itself or by any remaining child subtree).
	outside := []*qgm.Box{cur}
	for _, rq := range cur.Quants {
		outside = append(outside, qgm.Boxes(rq.Input)...)
	}
	needed := map[qgm.RefKey]bool{}
	var orderedKeys []qgm.RefKey
	for _, box := range outside {
		box.ExprSlots(func(slot *qgm.Expr) {
			for _, r := range qgm.Refs(*slot) {
				k := qgm.RefKey{Q: r.Q, Col: r.Col}
				if suppSet[r.Q] && !needed[k] {
					needed[k] = true
					orderedKeys = append(orderedKeys, k)
				}
			}
		})
	}
	sort.Slice(orderedKeys, func(i, j int) bool {
		if orderedKeys[i].Q.ID != orderedKeys[j].Q.ID {
			return orderedKeys[i].Q.ID < orderedKeys[j].Q.ID
		}
		return orderedKeys[i].Col < orderedKeys[j].Col
	})
	outPos := map[qgm.RefKey]int{}
	for _, k := range orderedKeys {
		name := fmt.Sprintf("c%d", len(supp.Cols))
		if k.Col < len(k.Q.Input.Cols) && k.Q.Input.Cols[k.Col].Name != "" {
			name = k.Q.Input.Cols[k.Col].Name
		}
		outPos[k] = len(supp.Cols)
		supp.Cols = append(supp.Cols, qgm.OutCol{Name: name, Expr: qgm.Ref(k.Q, k.Col)})
	}
	qsupp := f.g.AddQuant(cur, qgm.QForEach, supp)
	// Redirect all outside references to the supplementary outputs.
	mapping := map[qgm.RefKey]qgm.Expr{}
	for k, p := range outPos {
		mapping[k] = qgm.Ref(qsupp, p)
	}
	qgm.RedirectRefsIn(outside, mapping)
	f.snap(fmt.Sprintf("FEED: supplementary table SUPP collected for %s (Fig 2b)", q.Name()))

	// 4. Correlation columns: the SUPP outputs the child actually uses.
	corrSet := map[int]bool{}
	for _, r := range qgm.FreeRefs(child) {
		if r.Q == qsupp {
			corrSet[r.Col] = true
		}
	}
	var corrCols []int
	for c := range corrSet {
		corrCols = append(corrCols, c)
	}
	sort.Ints(corrCols)
	if len(corrCols) == 0 {
		return fmt.Errorf("core: no correlation columns survived the supplementary split for %s", q.Name())
	}

	comp := f.compensationPlan(cur, q)

	// 5. OptMag: when the correlation attributes form a key of SUPP and no
	// compensation is needed, use SUPP itself as the magic table and drop
	// the duplicate reference entirely. Only a row-contributing quantifier
	// can take over SUPP's role: an existential one feeds no rows to the
	// outer block, which would be left without a range.
	if f.opts.EliminateSupplementary && !comp.need && !q.Kind.IsSubquery() && qgm.KeyWithin(supp, corrSet) {
		return f.optFeed(cur, q, qsupp, supp)
	}

	// 6. The MAGIC box: distinct projection of the correlation bindings.
	magic := f.g.NewBox(qgm.BoxSelect, "MAGIC")
	magic.Distinct = true
	qm := f.g.AddQuant(magic, qgm.QForEach, supp)
	refMap := map[qgm.RefKey]int{}
	for j, c := range corrCols {
		magic.Cols = append(magic.Cols, qgm.OutCol{Name: supp.Cols[c].Name, Expr: qgm.Ref(qm, c)})
		refMap[qgm.RefKey{Q: qsupp, Col: c}] = j
	}
	f.snap(fmt.Sprintf("FEED: magic table projected for %s (Fig 2c)", q.Name()))

	// 7. ABSORB: push the magic table into the child.
	w := len(child.Cols)
	magicPos, err := f.absorb(child, magic, refMap)
	if err != nil {
		return err
	}
	f.snap(fmt.Sprintf("ABSORB: %s absorbed the magic table (Fig 3c/4c)", q.Name()))

	// 8. COUNT-bug compensation: left outer join the magic table with the
	// decorrelated subquery, coalescing lost zero counts (Fig 3d, §2.1's
	// BugRemoval view).
	if comp.need {
		bug := f.g.NewBox(qgm.BoxLeftJoin, "BUGFIX")
		qbm := f.g.AddQuant(bug, qgm.QForEach, magic)
		qbr := f.g.AddQuant(bug, qgm.QForEach, child)
		for j := range corrCols {
			// Grouping equality, not comparison equality: NULL is a distinct
			// binding of MAGIC, and when the correlation reaches the child
			// only through a nested subquery the absorbed view carries a
			// NULL-keyed group that must re-join it.
			bug.Preds = append(bug.Preds, qgm.NewNullEq(qgm.Ref(qbm, j), qgm.Ref(qbr, magicPos[j])))
		}
		for i := 0; i < w; i++ {
			var e qgm.Expr = qgm.Ref(qbr, i)
			if i < len(comp.emptyVals) && !comp.emptyVals[i].IsNull() {
				e = &qgm.Func{Name: "coalesce", Args: []qgm.Expr{e, &qgm.Const{V: comp.emptyVals[i]}}}
			}
			bug.Cols = append(bug.Cols, qgm.OutCol{Name: child.Cols[i].Name, Expr: e})
		}
		for j := range corrCols {
			bug.Cols = append(bug.Cols, qgm.OutCol{Name: magic.Cols[j].Name, Expr: qgm.Ref(qbm, j)})
		}
		q.Input = bug
		f.snap(fmt.Sprintf("COUNT-bug removal: MAGIC LOJ decorrelated %s with COALESCE (Fig 3d)", q.Name()))
	}

	// 9. Tie the decorrelated view to the outer block: the correlating
	// equality predicates (the merged CI box of Fig 2d/§4.2). The magic
	// columns sit at magicPos within the absorbed child, and at w+j within
	// the compensation join's outputs.
	for j, c := range corrCols {
		tiePos := magicPos[j]
		if comp.need {
			tiePos = w + j
		}
		// The tie is grouping equality too: the decorrelated view partitions
		// its rows by binding, NULL bindings included (nested iteration ran
		// the subquery for them like any other, and a correlation used only
		// inside a nested subquery does not filter them out). Comparison
		// equality would be UNKNOWN on NULL = NULL and silently drop those
		// outer rows — the NULL cousin of the COUNT bug.
		cur.Preds = append(cur.Preds, qgm.NewNullEq(qgm.Ref(qsupp, c), qgm.Ref(q, tiePos)))
	}
	if q.Kind == qgm.QScalar {
		q.Kind = qgm.QForEach
	}
	f.snap(fmt.Sprintf("decorrelated view of %s tied to outer block (Fig 4d)", q.Name()))
	return nil
}
