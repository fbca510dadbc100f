package exec

import (
	"fmt"

	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// bindSubqueryCheck filters the tuple stream through an existential or
// universal quantifier. The input is materialized once when it has no
// dependencies on this box's quantifiers (the set-oriented case a
// decorrelated plan reaches) — with a hash fast path for equality tie
// predicates — and evaluated per outer tuple under the run's reuse policy
// otherwise (nested iteration).
func (ex *Exec) bindSubqueryCheck(q *qgm.Quantifier, ties []*selPred, correlated bool, tuples []*Env, env *Env) ([]*Env, error) {
	if correlated {
		// Correlated to sibling quantifiers. The quantifier condition is
		// order-insensitive over each tuple's rows, so it reads the same
		// under every reuse policy.
		pass, err := correlatedMap(ex, q, tuples, env, func(t *Env, rows []storage.Row) (bool, error) {
			return ex.quantCond(q, ties, rows, t)
		})
		if err != nil {
			return nil, err
		}
		kept := tuples[:0:0]
		for i, ok := range pass {
			if ok {
				kept = append(kept, tuples[i])
			}
		}
		return kept, nil
	}

	rows, err := ex.evalSubqueryInput(q.Input, env)
	if err != nil {
		return nil, err
	}

	// Hash fast path: all ties are equalities between a probe expression
	// (bound/outer side) and a subquery-side expression.
	probeExprs, subExprs, hashable := splitTies(ties, q)
	if hashable && (q.Kind == qgm.QExists || q.Kind == qgm.QNotExists || q.Kind == qgm.QAny) {
		h, err := ex.rowHash(rows, func(i int) (string, bool, error) {
			return ex.keyFor(subExprs, Bind(env, q, rows[i]))
		})
		if err != nil {
			return nil, err
		}
		return parallelFilter(ex, tuples, rowMorsel, func(t *Env) (bool, error) {
			key, null, err := ex.keyFor(probeExprs, t)
			if err != nil {
				return false, err
			}
			switch q.Kind {
			case qgm.QExists, qgm.QAny:
				return !null && len(h[key]) > 0, nil
			case qgm.QNotExists:
				return null || len(h[key]) == 0, nil
			}
			return false, nil
		})
	}

	// General slow path over the materialized rows.
	return parallelFilter(ex, tuples, rowMorsel, func(t *Env) (bool, error) {
		return ex.quantCond(q, ties, rows, t)
	})
}

// splitTies decomposes tie predicates into (probe, subquery-side) equality
// expression pairs; ok=false when any tie is not such an equality (then the
// slow path runs). A bare EXISTS has zero ties and is trivially hashable.
func splitTies(ties []*selPred, q *qgm.Quantifier) (probe, sub []qgm.Expr, ok bool) {
	notQ := func(e qgm.Expr) bool { return !qgm.RefsQuant(e, q) }
	hasQ := func(e qgm.Expr) bool { return qgm.RefsQuant(e, q) }
	for _, pi := range ties {
		p, s, ok := qgm.SplitEq(pi.expr, notQ, hasQ)
		if !ok {
			return nil, nil, false
		}
		probe = append(probe, p)
		sub = append(sub, s)
	}
	return probe, sub, true
}

// quantCond evaluates the quantifier condition for one outer tuple against
// materialized subquery rows, with full three-valued-logic semantics:
//
//	EXISTS      — some row satisfies all ties (TRUE only);
//	NOT EXISTS  — no row does;
//	ANY         — some row compares TRUE;
//	ALL         — every row compares TRUE (vacuously true when empty; a
//	              FALSE or UNKNOWN row fails the predicate, which matches
//	              SQL's rule that only an overall TRUE passes WHERE).
func (ex *Exec) quantCond(q *qgm.Quantifier, ties []*selPred, rows []storage.Row, t *Env) (bool, error) {
	rowTruth := func(r storage.Row) (sqltypes.Tri, error) {
		renv := Bind(t, q, r)
		acc := sqltypes.True
		for _, pi := range ties {
			tr, err := ex.EvalPred(pi.expr, renv)
			if err != nil {
				return sqltypes.Unknown, err
			}
			acc = acc.And(tr)
			if acc == sqltypes.False {
				return sqltypes.False, nil
			}
		}
		return acc, nil
	}
	switch q.Kind {
	case qgm.QExists, qgm.QAny:
		for _, r := range rows {
			tr, err := rowTruth(r)
			if err != nil {
				return false, err
			}
			if tr == sqltypes.True {
				return true, nil
			}
		}
		return false, nil
	case qgm.QNotExists:
		for _, r := range rows {
			tr, err := rowTruth(r)
			if err != nil {
				return false, err
			}
			if tr == sqltypes.True {
				return false, nil
			}
		}
		return true, nil
	case qgm.QAll:
		for _, r := range rows {
			tr, err := rowTruth(r)
			if err != nil {
				return false, err
			}
			if tr != sqltypes.True {
				return false, nil
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("exec: quantCond on %v quantifier", q.Kind)
}
