package exec

import (
	"fmt"

	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

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

// selectTuples is phase 1 of select evaluation: it walks the box's
// selectPlan — ForEach quantifiers greedily ordered by estimated growth,
// scalar and existential/universal quantifiers at the cheapest point their
// dependencies allow (where the paper's optimizer placed subqueries before
// or after outer joins — §5.3, Query 1 vs Query 2) — uses index
// lookups and hash joins where predicates permit, and re-evaluates
// correlated subquery inputs per outer tuple (nested iteration). The
// result is the fully bound, fully filtered tuple stream awaiting
// projection. It is the row engine's phase 1: a box the vectorized engine
// plans (colSelectable) runs colSelectBatch instead, whose scalar,
// existential/universal and lateral steps call the same binders below
// (bindScalar, bindSubqueryCheck, bindLateral) over one Env per live
// tuple. The batched subquery path's stripped root always comes here.
func (ex *Exec) selectTuples(b *qgm.Box, env *Env) ([]*Env, error) {
	plan := ex.plan.plans[b]
	return ex.walkTuples(plan, &plan.selWalk, env)
}

// walkTuples runs phase 1 along walk w of the box plan belongs to: the
// plan's own, or a batched subquery site's stripped root (batchSite),
// whose correlated equalities the partition/probe step re-applies.
func (ex *Exec) walkTuples(plan *selectPlan, w *selWalk, env *Env) ([]*Env, error) {
	if plan.err != nil {
		return nil, plan.err
	}
	tuples, err := ex.filterTuples([]*Env{env}, w.pre)
	if err != nil {
		return nil, err
	}
	for i := range w.steps {
		if len(tuples) == 0 {
			return nil, nil
		}
		s := &w.steps[i]
		switch q := s.Q; {
		case q.Kind == qgm.QScalar:
			tuples, err = ex.bindScalar(q, s.Correlated, tuples, env)
		case q.Kind.IsSubquery():
			tuples, err = ex.bindSubqueryCheck(q, s.ties, s.Correlated, tuples, env)
		case s.Correlated: // lateral derived table
			tuples, err = ex.bindLateral(q, tuples, env)
		default:
			tuples, err = ex.bindForEach(s, tuples, env)
		}
		if err != nil {
			return nil, err
		}
		if tuples, err = ex.filterTuples(tuples, s.after); err != nil {
			return nil, err
		}
	}
	if len(tuples) == 0 {
		return nil, nil
	}
	return tuples, w.left
}

// filterTuples keeps the tuples every predicate holds on, one pass per
// predicate.
func (ex *Exec) filterTuples(tuples []*Env, preds []*selPred) ([]*Env, error) {
	for _, pi := range preds {
		kept, err := parallelFilter(ex, tuples, rowMorsel, func(t *Env) (bool, error) {
			tr, err := ex.EvalPred(pi.expr, t)
			if err != nil {
				return false, err
			}
			return tr == sqltypes.True, nil
		})
		if err != nil {
			return nil, err
		}
		tuples = kept
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

// bindLateral joins a derived table that references sibling quantifiers
// (the paper's Query 3 style): each tuple meets the rows q's input yields
// for it, under the run's reuse policy (correlatedMap).
func (ex *Exec) bindLateral(q *qgm.Quantifier, tuples []*Env, env *Env) ([]*Env, error) {
	per, err := correlatedMap(ex, q, tuples, env, func(t *Env, rows []storage.Row) ([]*Env, error) {
		bound := make([]*Env, len(rows))
		for i, r := range rows {
			bound[i] = Bind(t, q, r)
		}
		return bound, nil
	})
	if err != nil {
		return nil, err
	}
	out := concat(per)
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
func (ex *Exec) bindScalar(q *qgm.Quantifier, correlated bool, tuples []*Env, env *Env) ([]*Env, error) {
	width := len(q.Input.Cols)
	if !correlated {
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

// bindForEach joins an uncorrelated ForEach quantifier into the tuple
// stream the way its step says: index lookup, hash join, or nested loops.
func (ex *Exec) bindForEach(s *Step, tuples []*Env, env *Env) ([]*Env, error) {
	if s.index != nil {
		return ex.indexBind(s, tuples)
	}
	q := s.Q
	// Materialize and filter by local predicates.
	var rows []storage.Row
	var err error
	if q.Input.Kind == qgm.BoxBase {
		_, rows, err = ex.scanBase(q.Input)
	} else {
		rows, err = ex.evalBox(q.Input, env)
	}
	if err != nil {
		return nil, err
	}
	rows, err = ex.filterLocal(q, s.filter, rows, env)
	if err != nil {
		return nil, err
	}
	if len(s.QKeys) > 0 {
		h, err := ex.rowHash(rows, func(i int) (string, bool, error) {
			return ex.keyFor(s.QKeys, s.NullSafe, Bind(env, q, rows[i]))
		})
		if err != nil {
			return nil, err
		}
		out, err := parallelFlatMap(ex, tuples, rowMorsel, func(t *Env) ([]*Env, error) {
			key, null, err := ex.keyFor(s.BoundKeys, s.NullSafe, t)
			if err != nil {
				return nil, err
			}
			if null {
				return nil, nil
			}
			rs := h[key]
			matched := make([]*Env, len(rs))
			for i, r := range rs {
				matched[i] = Bind(t, q, r)
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
	// Nested-loop (cross product; residual predicates apply after the bind).
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

// keyFor evaluates the key expressions under env; null=true when a
// component is NULL (null join keys never match) unless nullSafe marks
// it, in which case NULL is a key value like any other. A nil nullSafe
// marks none.
func (ex *Exec) keyFor(exprs []qgm.Expr, nullSafe []bool, env *Env) (string, bool, error) {
	vals := make([]sqltypes.Value, len(exprs))
	for i, e := range exprs {
		v, err := ex.EvalExpr(e, env)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() && (nullSafe == nil || !nullSafe[i]) {
			return "", true, nil
		}
		vals[i] = v
	}
	return string(sqltypes.AppendKey(nil, vals...)), false, nil
}

// filterLocal applies q's local predicates (over q plus outer bindings).
func (ex *Exec) filterLocal(q *qgm.Quantifier, local []*selPred, rows []storage.Row, env *Env) ([]storage.Row, error) {
	if len(local) == 0 {
		return rows, nil
	}
	return parallelFilter(ex, rows, rowMorsel, func(r storage.Row) (bool, error) {
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
}

// indexBind performs an index (nested-loop) join: for each tuple, probe the
// base table's index, then filter by the step's remaining predicates.
func (ex *Exec) indexBind(s *Step, tuples []*Env) ([]*Env, error) {
	q, tbl := s.Q, s.index
	stored := tbl.RowForm()
	out, err := parallelFlatMap(ex, tuples, rowMorsel, func(t *Env) ([]*Env, error) {
		v, err := ex.EvalExpr(s.probe, t)
		if err != nil {
			return nil, err
		}
		ids, ok := tbl.Lookup(s.col, v)
		if !ok {
			return nil, fmt.Errorf("exec: index on %s.%d vanished mid-plan", tbl.Def.Name, s.col)
		}
		bump(&ex.Stats.IndexLookups, 1)
		var matched []*Env
		for _, id := range ids {
			renv := Bind(t, q, stored[id])
			keep := true
			for _, pi := range s.filter {
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
