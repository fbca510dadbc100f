package exec

// Runtime subquery batching (Options.Reuse == ReuseBatch, the NIBatch
// strategy). When bindSubqueryCheck, a correlated bindScalar or
// bindLateral would evaluate the same correlated subtree once per outer
// tuple — the nested-iteration hot loop — this path first collects the
// distinct correlation bindings of the whole outer stream (the synthesized
// bindings relation of Guravannavar & Sudarshan's batched-bindings
// evaluation), then evaluates the subtree set-at-a-time:
//
//   - Single-execution path: when the correlation enters the subtree only
//     through root-level equalities (the plan's batchSite, planned once
//     from qgm.ExtractBatchSignature) and the stream carries two or more
//     distinct bindings, the subtree runs ONCE
//     with those predicates stripped and each distinct binding probes the
//     row engine's shared hash build (rowHash) over its rows, keyed by the
//     subquery side — one decorrelated execution instead of one per
//     binding.
//   - Per-binding path: otherwise the subtree runs once per DISTINCT
//     binding (plain nested iteration over the bindings relation), which
//     is always sound — group boxes keep their per-binding COUNT-bug
//     semantics, left joins and nested subqueries evaluate faithfully. A
//     single binding always takes it: its one evaluation keeps the
//     correlated predicate to filter or probe with, where the stripped
//     subtree would read and hash every row.
//
// Either way, results fan back to outer tuples in the original stream
// order, so rows, ordering, and typed errors are bit-identical to NI at
// every worker count. Batching declines entirely (ok=false) only for
// subtrees over sys.* synthetic tables or missing storage, whose row
// sources may change between evaluations (the same volatility rule that
// gates the memo cache in evalSubqueryInput). A profiled or traced run
// batches like any other: EXPLAIN ANALYZE shows the batched plan.

import (
	"decorr/internal/qgm"
	"decorr/internal/storage"
)

// correlatedMap is the one place the reuse policy meets the outer tuple
// stream — the nested-iteration hot loop. It applies fn to every outer
// tuple together with the rows q's correlated input yields for it, fanned
// out over the tuples and returned in stream order. Under ReuseBatch the
// whole stream is evaluated set-at-a-time first; otherwise (and whenever
// batching declines) each tuple is evaluated on demand through
// evalSubqueryInput. fn reads the same either way.
func correlatedMap[T any](ex *Exec, q *qgm.Quantifier, tuples []*Env, env *Env, fn func(t *Env, rows []storage.Row) (T, error)) ([]T, error) {
	per, batched, err := ex.batchSubqueryRows(q, tuples, env)
	if err != nil {
		return nil, err
	}
	chunks, err := parallelChunks(ex, len(tuples), subqMorsel, func(lo, hi int) ([]T, error) {
		out := make([]T, 0, hi-lo)
		for i := lo; i < hi; i++ {
			var rows []storage.Row
			if batched {
				rows = per[i]
			} else {
				var err error
				if rows, err = ex.evalSubqueryInput(q.Input, tuples[i]); err != nil {
					return nil, err
				}
			}
			v, err := fn(tuples[i], rows)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	})
	return concat(chunks), err
}

// batchEligible reports whether subtree b's results may be shared between
// bindings for this Run: by the batched evaluation path, or by the memo
// cache in evalSubqueryInput.
func (ex *Exec) batchEligible(b *qgm.Box) bool {
	return ex.opts.Reuse == ReuseBatch && !ex.plan.volatileBox[b]
}

// batchSubqueryRows evaluates the correlated subtree q.Input for every
// outer tuple set-at-a-time. It returns per-tuple row sets aligned with
// tuples; ok=false means the path declined and the caller must fall back
// to the per-tuple NI loop.
func (ex *Exec) batchSubqueryRows(q *qgm.Quantifier, tuples []*Env, env *Env) (per [][]storage.Row, ok bool, err error) {
	b := q.Input
	if !ex.batchEligible(b) || !ex.plan.isCorrelated(b) {
		return nil, false, nil
	}
	keys, err := parallelMap(ex, tuples, rowMorsel, func(t *Env) (string, error) {
		return ex.bindingKey(b, t)
	})
	if err != nil {
		return nil, true, err
	}
	// The distinct bindings, in first-appearance order — the synthesized
	// bindings relation. First-appearance order keeps the representative
	// tuples (and with them every downstream evaluation) identical at any
	// worker count.
	index := make(map[string]int, len(tuples))
	var reps []*Env
	var keyBytes int64
	for i, k := range keys {
		if _, dup := index[k]; !dup {
			index[k] = len(reps)
			reps = append(reps, tuples[i])
			keyBytes += int64(len(k))
		}
	}
	bump(&ex.Stats.SubqueryInvocations, int64(len(tuples)))
	bump(&ex.Stats.BatchedSubqueries, int64(len(tuples)))
	ex.mu.Lock()
	seen := ex.bindings[b]
	if seen == nil {
		seen = map[string]bool{}
		ex.bindings[b] = seen
	}
	var fresh int64
	for k := range index {
		if !seen[k] {
			seen[k] = true
			fresh++
		}
	}
	ex.mu.Unlock()
	bump(&ex.Stats.DistinctInvocations, fresh)
	// The bindings relation is a tracked materialization like a hash-join
	// build side: charge its key bytes before evaluating anything.
	if err := ex.govAddBytes(keyBytes); err != nil {
		return nil, true, err
	}
	var perRep [][]storage.Row
	if site := ex.plan.batch[q]; site != nil && len(reps) > 1 {
		perRep, err = ex.batchSingleExec(b, site, reps, env)
	} else {
		// Per-distinct-binding fallback: plain nested iteration over the
		// bindings relation, fanned out like the NI hot loop.
		perRep, err = parallelMap(ex, reps, subqMorsel, func(rep *Env) ([]storage.Row, error) {
			rows, rerr := ex.evalBox(b, rep)
			if rerr != nil {
				return nil, rerr
			}
			if rerr := ex.govBytes(rows); rerr != nil {
				return nil, rerr
			}
			return rows, nil
		})
		bump(&ex.Stats.BatchExecutions, int64(len(reps)))
	}
	if err != nil {
		return nil, true, err
	}
	per = make([][]storage.Row, len(tuples))
	for i, k := range keys {
		per[i] = perRep[index[k]]
	}
	return per, true, nil
}

// keyedRow is one phase-1 tuple of a stripped root, keyed by the
// signature's subquery side and projected. A NULL key component can never
// satisfy the stripped equality: the tuple belongs to no binding's result
// and is not projected (row nil).
type keyedRow struct {
	key string
	row storage.Row
}

// strippedRows runs subtree b once under the run-constant env along the
// site's stripped walk, and keys and projects every phase-1 tuple. The
// stripped root is not the box's own evaluation, so it does not go through
// evalBox — but it is one evaluation of b, inside the box envelope. (A
// function of its own for the reason colSelectBatchIn is.)
func (ex *Exec) strippedRows(b *qgm.Box, site *batchSite, env *Env) (outs []keyedRow, err error) {
	_, err = ex.inBox(b, false, func() (boxOut, error) {
		bump(&ex.Stats.BatchExecutions, 1)
		tuples, err := ex.walkTuples(ex.plan.plans[b], &site.walk, env)
		if err != nil {
			return boxOut{}, err
		}
		outs, err = parallelMap(ex, tuples, rowMorsel, func(t *Env) (keyedRow, error) {
			key, null, kerr := ex.keyFor(site.sig.Inner, nil, t)
			if kerr != nil || null {
				return keyedRow{}, kerr
			}
			row := make(storage.Row, len(b.Cols))
			for i, c := range b.Cols {
				v, verr := ex.EvalExpr(c.Expr, t)
				if verr != nil {
					return keyedRow{}, verr
				}
				row[i] = v
			}
			return keyedRow{key: key, row: row}, nil
		})
		return boxOut{n: len(outs)}, err
	})
	return outs, err
}

// batchSingleExec is the single-execution path: evaluate the stripped
// subtree once (strippedRows), hash the projected rows (rowHash, the build
// every join-shaped operator shares), and probe once per distinct binding;
// the probe hands back the binding's whole chain.
func (ex *Exec) batchSingleExec(b *qgm.Box, site *batchSite, reps []*Env, env *Env) ([][]storage.Row, error) {
	outs, err := ex.strippedRows(b, site, env)
	if err != nil {
		return nil, err
	}
	built := make([]storage.Row, len(outs))
	for i, kr := range outs {
		built[i] = kr.row
	}
	// The keys were evaluated with the projection, under the tuple each row
	// came from. Chains fill in tuple order, so each binding's rows come
	// back in the exact order the per-binding NI evaluation would have
	// produced them.
	parts, err := ex.rowHash(built, func(i int) (string, bool, error) {
		return outs[i].key, outs[i].row == nil, nil
	})
	if err != nil {
		return nil, err
	}
	return parallelMap(ex, reps, rowMorsel, func(rep *Env) ([]storage.Row, error) {
		key, null, kerr := ex.keyFor(site.sig.Outer, nil, rep)
		if kerr != nil || null {
			// NULL probe keys match nothing, same as the stripped
			// predicate evaluating UNKNOWN for every subtree row.
			return nil, kerr
		}
		return parts[key], nil
	})
}

// computeVolatile reports whether subtree b reads any relation whose
// contents may differ between evaluations within one Run: sys.* synthetic
// tables (RowSource-backed views of live engine state) or tables with no
// storage at all. Such subtrees must not have results shared across
// bindings (batching) or across invocations (the memo cache). It walks
// b's subtree once, memoizing every box into memo.
func computeVolatile(db *storage.DB, b *qgm.Box, memo map[*qgm.Box]bool) bool {
	if v, ok := memo[b]; ok {
		return v
	}
	memo[b] = false // DAG guard; final value stored below
	v := false
	if b.Kind == qgm.BoxBase {
		t := db.Table(b.Table.Name)
		v = t == nil || t.Synthetic()
	}
	for _, q := range b.Quants {
		if computeVolatile(db, q.Input, memo) {
			v = true
		}
	}
	memo[b] = v
	return v
}
