package exec

import (
	"fmt"

	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// selPred is one conjunct of a select box during evaluation.
type selPred struct {
	expr    qgm.Expr
	deps    map[*qgm.Quantifier]bool // b's own row-contributing quantifiers referenced
	sub     *qgm.Quantifier          // subquery quantifier tied by this predicate, if any
	applied bool
}

// lateQuant is a scalar or existential/universal quantifier awaiting its
// dependencies.
type lateQuant struct {
	q    *qgm.Quantifier
	deps map[*qgm.Quantifier]bool
	ties []*selPred
}

// evalSelect evaluates an SPJ box: phase 1 (selectTuples) produces the
// bound tuple stream, phase 2 (projectTuples) evaluates the output
// expressions, and DISTINCT dedups last. The streaming iterator drives the
// same two phases with phase 2 batched.
func (ex *Exec) evalSelect(b *qgm.Box, env *Env) ([]storage.Row, error) {
	tuples, err := ex.selectTuples(b, env)
	if err != nil || len(tuples) == 0 {
		return nil, err
	}
	out, err := ex.projectTuples(b, tuples)
	if err != nil {
		return nil, err
	}
	if b.Distinct {
		out = dedupeRows(out)
	}
	return out, nil
}

// selectTuples is phase 1 of select evaluation: it greedily orders the
// ForEach quantifiers by estimated growth, binds scalar and
// existential/universal quantifiers at the earliest point their
// dependencies allow (mirroring how the paper's optimizer placed subqueries
// before or after outer joins — §5.3, Query 1 vs Query 2), uses index
// lookups and hash joins where predicates permit, and re-evaluates
// correlated subquery inputs per outer tuple (nested iteration). The
// result is the fully bound, fully filtered tuple stream awaiting
// projection.
func (ex *Exec) selectTuples(b *qgm.Box, env *Env) ([]*Env, error) {
	return ex.selectTuplesSkip(b, env, nil)
}

// selectTuplesSkip is selectTuples with a predicate skip set: the batched
// subquery path strips the correlated equalities (identified by pointer
// identity) from the root and re-applies their filtering as a
// partition/probe step. A skipped predicate never enters the plan, so it
// cannot drive index or hash-join placement either — the set-oriented
// execution deliberately trades those per-binding access paths for one
// shared pass.
func (ex *Exec) selectTuplesSkip(b *qgm.Box, env *Env, skip map[qgm.Expr]bool) ([]*Env, error) {
	own := map[*qgm.Quantifier]bool{}
	for _, q := range b.Quants {
		own[q] = true
	}

	preds := make([]*selPred, 0, len(b.Preds))
	for _, p := range b.Preds {
		if skip[p] {
			continue
		}
		pi := &selPred{expr: p, deps: map[*qgm.Quantifier]bool{}}
		for q := range qgm.QuantSet(p) {
			if !own[q] {
				continue
			}
			if q.Kind.IsSubquery() {
				if pi.sub != nil && pi.sub != q {
					return nil, fmt.Errorf("exec: predicate references two subquery quantifiers")
				}
				pi.sub = q
			} else {
				pi.deps[q] = true
			}
		}
		preds = append(preds, pi)
	}

	order := ex.JoinOrder(b)

	bound := map[*qgm.Quantifier]bool{}
	tuples := []*Env{env}

	depsBound := func(deps map[*qgm.Quantifier]bool) bool {
		for d := range deps {
			if !bound[d] {
				return false
			}
		}
		return true
	}

	// applyReady filters tuples through every now-applicable ordinary
	// predicate.
	applyReady := func() error {
		for _, pi := range preds {
			if pi.applied || pi.sub != nil || !depsBound(pi.deps) {
				continue
			}
			pi.applied = true
			kept, err := parallelFilter(ex, tuples, rowMorsel, func(t *Env) (bool, error) {
				tr, err := ex.EvalPred(pi.expr, t)
				if err != nil {
					return false, err
				}
				return tr == sqltypes.True, nil
			})
			if err != nil {
				return err
			}
			tuples = kept
		}
		return nil
	}
	if err := applyReady(); err != nil {
		return nil, err
	}

	for _, q := range order {
		if len(tuples) == 0 {
			return nil, nil
		}
		var err error
		switch {
		case q.Kind == qgm.QScalar:
			deps := ownDeps(q, own)
			tuples, err = ex.bindScalar(q, deps, tuples, env)
		case q.Kind.IsSubquery():
			li := &lateQuant{q: q}
			for _, pi := range preds {
				if pi.sub == q {
					li.ties = append(li.ties, pi)
				}
			}
			tuples, err = ex.bindSubqueryCheck(li, tuples, env)
			for _, pi := range li.ties {
				pi.applied = true
			}
		case len(ownDeps(q, own)) > 0:
			// Lateral derived table: re-evaluate per tuple.
			tuples, err = ex.bindLateral(q, tuples)
		default:
			tuples, err = ex.bindForEach(q, bound, preds, tuples, env)
		}
		if err != nil {
			return nil, err
		}
		bound[q] = true
		if err := applyReady(); err != nil {
			return nil, err
		}
	}
	if len(tuples) == 0 {
		return nil, nil
	}
	for _, pi := range preds {
		if !pi.applied {
			return nil, fmt.Errorf("exec: predicate %s left unapplied in box %d", qgm.FormatExpr(pi.expr), b.ID)
		}
	}
	return tuples, nil
}

// projectTuples is phase 2 of select evaluation: the output expressions
// over an already bound and filtered tuple stream (or one batch of it).
func (ex *Exec) projectTuples(b *qgm.Box, tuples []*Env) ([]storage.Row, error) {
	return parallelMap(ex, tuples, rowMorsel, func(t *Env) (storage.Row, error) {
		row := make(storage.Row, len(b.Cols))
		for i, c := range b.Cols {
			v, err := ex.EvalExpr(c.Expr, t)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		return row, nil
	})
}

// ownDeps returns the row-contributing quantifiers of the same box that
// q's input subtree references (lateral/scalar correlation to siblings).
func ownDeps(q *qgm.Quantifier, own map[*qgm.Quantifier]bool) map[*qgm.Quantifier]bool {
	deps := map[*qgm.Quantifier]bool{}
	for _, r := range qgm.FreeRefs(q.Input) {
		if own[r.Q] && !r.Q.Kind.IsSubquery() {
			deps[r.Q] = true
		}
	}
	return deps
}

// bindLateral joins a derived table that references sibling quantifiers
// (the paper's Query 3 style), re-evaluating it per tuple. The per-tuple
// re-evaluations fan out across workers — this is the nested-iteration hot
// loop, so one morsel is only a few tuples.
func (ex *Exec) bindLateral(q *qgm.Quantifier, tuples []*Env) ([]*Env, error) {
	out, err := parallelFlatMap(ex, tuples, subqMorsel, func(t *Env) ([]*Env, error) {
		rows, err := ex.evalSubqueryInput(q.Input, t)
		if err != nil {
			return nil, err
		}
		bound := make([]*Env, len(rows))
		for i, r := range rows {
			bound[i] = Bind(t, q, r)
		}
		return bound, nil
	})
	if err != nil {
		return nil, err
	}
	bump(&ex.Stats.RowsJoined, int64(len(out)))
	if err := ex.govRows(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// bindScalar joins a scalar subquery quantifier into the tuple stream. An
// input with no own-quantifier dependencies is evaluated once per
// select-box evaluation; otherwise per outer tuple under the run's reuse
// policy (nested iteration).
func (ex *Exec) bindScalar(q *qgm.Quantifier, deps map[*qgm.Quantifier]bool, tuples []*Env, env *Env) ([]*Env, error) {
	width := len(q.Input.Cols)
	if len(deps) == 0 {
		rows, err := ex.evalSubqueryInput(q.Input, env)
		if err != nil {
			return nil, err
		}
		row, err := scalarRow(rows, width)
		if err != nil {
			return nil, err
		}
		out := make([]*Env, len(tuples))
		for i, t := range tuples {
			out[i] = Bind(t, q, row)
		}
		return out, nil
	}
	// Correlated. The at-most-one-row check applies per tuple, so cardinality
	// errors surface in outer-stream order under every reuse policy.
	return correlatedMap(ex, q, tuples, env, func(t *Env, rows []storage.Row) (*Env, error) {
		row, err := scalarRow(rows, width)
		if err != nil {
			return nil, err
		}
		return Bind(t, q, row), nil
	})
}

func scalarRow(rows []storage.Row, width int) (storage.Row, error) {
	switch len(rows) {
	case 0:
		return nullRow(width), nil
	case 1:
		return rows[0], nil
	}
	return nil, fmt.Errorf("exec: scalar subquery returned %d rows", len(rows))
}

// bindForEach joins the next ForEach quantifier into the tuple stream,
// choosing among index lookup, hash join, and nested loops.
func (ex *Exec) bindForEach(q *qgm.Quantifier, bound map[*qgm.Quantifier]bool, preds []*selPred, tuples []*Env, env *Env) ([]*Env, error) {
	if len(tuples) == 0 {
		return tuples, nil
	}
	// Index access: base-table input with an equality predicate on an
	// indexed column whose other side is computable now.
	if q.Input.Kind == qgm.BoxBase {
		if tbl := ex.db.Table(q.Input.Table.Name); tbl != nil {
			if pi, col, other := findIndexPred(q, bound, preds, tbl); pi != nil {
				return ex.indexBind(q, tbl, col, other, pi, bound, preds, tuples)
			}
		}
	}
	// Materialize and filter by local predicates.
	var rows []storage.Row
	if q.Input.Kind == qgm.BoxBase {
		tbl := ex.db.Table(q.Input.Table.Name)
		if tbl == nil {
			return nil, fmt.Errorf("exec: table %q has no storage", q.Input.Table.Name)
		}
		scanned, err := tbl.Scan()
		if err != nil {
			return nil, err
		}
		bump(&ex.Stats.RowsScanned, int64(len(scanned)))
		if err := ex.govRows(len(scanned)); err != nil {
			return nil, err
		}
		ex.recordProfile(q.Input, len(scanned), 0)
		rows = scanned
	} else {
		var err error
		rows, err = ex.evalBox(q.Input, env)
		if err != nil {
			return nil, err
		}
	}
	rows, err := ex.filterLocal(q, preds, rows, env)
	if err != nil {
		return nil, err
	}
	// Hash join on equality predicates connecting q to the bound set.
	var qSides, boundSides []qgm.Expr
	for _, pi := range preds {
		if pi.applied || pi.sub != nil || !pi.deps[q] {
			continue
		}
		if !depsSubset(pi.deps, bound, q) {
			continue
		}
		if qs, bs, ok := splitEqui(pi.expr, q, bound); ok {
			qSides = append(qSides, qs)
			boundSides = append(boundSides, bs)
			pi.applied = true
		}
	}
	if len(qSides) > 0 {
		if err := ex.hashBuildCheck(rows); err != nil {
			return nil, err
		}
		bump(&ex.Stats.HashBuilds, 1)
		// Build side: hash keys evaluate in parallel, the table fills
		// sequentially in row order so every bucket chain — and therefore
		// probe emission order — is deterministic.
		type buildKey struct {
			key  string
			skip bool
		}
		keys, err := parallelMap(ex, rows, rowMorsel, func(r storage.Row) (buildKey, error) {
			renv := Bind(env, q, r)
			key, null, err := ex.keyFor(qSides, renv)
			if err != nil {
				return buildKey{}, err
			}
			return buildKey{key: key, skip: null}, nil
		})
		if err != nil {
			return nil, err
		}
		h := make(map[string][]int, len(rows))
		for i, bk := range keys {
			if !bk.skip {
				h[bk.key] = append(h[bk.key], i)
			}
		}
		out, err := parallelFlatMap(ex, tuples, rowMorsel, func(t *Env) ([]*Env, error) {
			key, null, err := ex.keyFor(boundSides, t)
			if err != nil {
				return nil, err
			}
			if null {
				return nil, nil
			}
			ids := h[key]
			matched := make([]*Env, len(ids))
			for i, id := range ids {
				matched[i] = Bind(t, q, rows[id])
			}
			return matched, nil
		})
		if err != nil {
			return nil, err
		}
		bump(&ex.Stats.RowsJoined, int64(len(out)))
		if err := ex.govRows(len(out)); err != nil {
			return nil, err
		}
		return out, nil
	}
	// Nested-loop (cross product; residual predicates apply via applyReady).
	out, err := parallelFlatMap(ex, tuples, rowMorsel, func(t *Env) ([]*Env, error) {
		joined := make([]*Env, len(rows))
		for i, r := range rows {
			joined[i] = Bind(t, q, r)
		}
		return joined, nil
	})
	if err != nil {
		return nil, err
	}
	bump(&ex.Stats.RowsJoined, int64(len(out)))
	if err := ex.govRows(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// keyFor evaluates the key expressions under env; null=true when any
// component is NULL (null join keys never match).
func (ex *Exec) keyFor(exprs []qgm.Expr, env *Env) (string, bool, error) {
	vals := make([]sqltypes.Value, len(exprs))
	for i, e := range exprs {
		v, err := ex.EvalExpr(e, env)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		vals[i] = v
	}
	return string(sqltypes.AppendKey(nil, vals...)), false, nil
}

// filterLocal applies predicates referencing only q (plus outer bindings).
func (ex *Exec) filterLocal(q *qgm.Quantifier, preds []*selPred, rows []storage.Row, env *Env) ([]storage.Row, error) {
	var local []*selPred
	for _, pi := range preds {
		if pi.applied || pi.sub != nil {
			continue
		}
		if len(pi.deps) == 1 && pi.deps[q] {
			local = append(local, pi)
		}
	}
	if len(local) == 0 {
		return rows, nil
	}
	out, err := parallelFilter(ex, rows, rowMorsel, func(r storage.Row) (bool, error) {
		renv := Bind(env, q, r)
		for _, pi := range local {
			tr, err := ex.EvalPred(pi.expr, renv)
			if err != nil {
				return false, err
			}
			if tr != sqltypes.True {
				return false, nil
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	for _, pi := range local {
		pi.applied = true
	}
	return out, nil
}

// findIndexPred locates an unapplied equality predicate of the form
// q.col = <expr over bound/outer> where tbl has an index on col.
func findIndexPred(q *qgm.Quantifier, bound map[*qgm.Quantifier]bool, preds []*selPred, tbl *storage.Table) (*selPred, int, qgm.Expr) {
	for _, pi := range preds {
		if pi.applied || pi.sub != nil || !pi.deps[q] {
			continue
		}
		if !depsSubset(pi.deps, bound, q) {
			continue
		}
		bin, ok := pi.expr.(*qgm.Bin)
		if !ok || bin.Op != qgm.OpEq {
			continue
		}
		for _, try := range [][2]qgm.Expr{{bin.L, bin.R}, {bin.R, bin.L}} {
			ref, ok := try[0].(*qgm.ColRef)
			if !ok || ref.Q != q {
				continue
			}
			if qgm.RefsQuant(try[1], q) {
				continue
			}
			if tbl.HasIndex(ref.Col) {
				return pi, ref.Col, try[1]
			}
		}
	}
	return nil, 0, nil
}

// indexBind performs an index (nested-loop) join: for each tuple, probe the
// base table's hash index, then filter remaining local predicates.
func (ex *Exec) indexBind(q *qgm.Quantifier, tbl *storage.Table, col int, other qgm.Expr, ipred *selPred, bound map[*qgm.Quantifier]bool, preds []*selPred, tuples []*Env) ([]*Env, error) {
	ipred.applied = true
	var local []*selPred
	for _, pi := range preds {
		if pi.applied || pi.sub != nil {
			continue
		}
		if pi.deps[q] && depsSubset(pi.deps, bound, q) {
			local = append(local, pi)
			pi.applied = true
		}
	}
	out, err := parallelFlatMap(ex, tuples, rowMorsel, func(t *Env) ([]*Env, error) {
		v, err := ex.EvalExpr(other, t)
		if err != nil {
			return nil, err
		}
		ids, ok := tbl.Lookup(col, v)
		if !ok {
			return nil, fmt.Errorf("exec: index on %s.%d vanished mid-plan", tbl.Def.Name, col)
		}
		bump(&ex.Stats.IndexLookups, 1)
		var matched []*Env
		for _, id := range ids {
			renv := Bind(t, q, tbl.Rows[id])
			keep := true
			for _, pi := range local {
				tr, err := ex.EvalPred(pi.expr, renv)
				if err != nil {
					return nil, err
				}
				if tr != sqltypes.True {
					keep = false
					break
				}
			}
			if keep {
				matched = append(matched, renv)
			}
		}
		return matched, nil
	})
	if err != nil {
		return nil, err
	}
	bump(&ex.Stats.RowsJoined, int64(len(out)))
	if err := ex.govRows(len(out)); err != nil {
		return nil, err
	}
	ex.recordProfile(q.Input, len(out), 0)
	return out, nil
}

// depsSubset reports whether deps ⊆ bound ∪ {q}.
func depsSubset(deps, bound map[*qgm.Quantifier]bool, q *qgm.Quantifier) bool {
	for d := range deps {
		if d != q && !bound[d] {
			return false
		}
	}
	return true
}

// splitEqui decomposes p as qSideExpr = boundSideExpr where the q side
// references q (and possibly outer quantifiers) and the bound side only
// bound/outer quantifiers.
func splitEqui(p qgm.Expr, q *qgm.Quantifier, bound map[*qgm.Quantifier]bool) (qSide, boundSide qgm.Expr, ok bool) {
	bin, isBin := p.(*qgm.Bin)
	if !isBin || bin.Op != qgm.OpEq {
		return nil, nil, false
	}
	sideOK := func(e qgm.Expr, wantQ bool) bool {
		hasQ := false
		for qq := range qgm.QuantSet(e) {
			if qq == q {
				hasQ = true
			} else if qq.Owner == q.Owner && !bound[qq] {
				return false
			}
		}
		return hasQ == wantQ
	}
	if sideOK(bin.L, true) && sideOK(bin.R, false) {
		return bin.L, bin.R, true
	}
	if sideOK(bin.R, true) && sideOK(bin.L, false) {
		return bin.R, bin.L, true
	}
	return nil, nil, false
}
