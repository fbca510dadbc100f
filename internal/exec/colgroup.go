// Columnar GROUP BY evaluation. Key and aggregate-argument expressions
// evaluate chunk-parallel as vectors; the accumulator fold itself stays
// sequential in input row order — the same discipline as
// groupBySequentialFold, so SUM/AVG floating-point accumulation order (and
// with it bit-identity across worker counts and against the row engine) is
// preserved. Group keys hash through a reusable byte buffer instead of a
// per-row string, so steady-state grouping allocates only on new groups.
//
// When the group's input is an exclusively-owned vectorizable select box,
// the input stays columnar end to end: the select batch's output columns
// feed the fold directly, skipping row materialization entirely.
package exec

import (
	"decorr/internal/colvec"
	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// colGroupable reports whether the vectorized engine can evaluate group
// box b: single input quantifier, vectorizable keys and aggregate
// arguments, and only aggregate ops whose accumulators exist (unknown ops
// must keep producing the row path's per-row behavior).
func colGroupable(b *qgm.Box) bool {
	if len(b.Quants) != 1 {
		return false
	}
	for _, ge := range b.GroupBy {
		if !colExprOK(ge) {
			return false
		}
	}
	aggs, _ := collectAggs(b)
	for _, a := range aggs {
		switch a.Op {
		case qgm.AggCountStar, qgm.AggCount, qgm.AggSum, qgm.AggAvg, qgm.AggMin, qgm.AggMax:
		default:
			return false
		}
		if a.Op != qgm.AggCountStar && !colExprOK(a.Arg) {
			return false
		}
	}
	for _, c := range b.Cols {
		ok := true
		qgm.Walk(c.Expr, func(e qgm.Expr) bool {
			if _, isAgg := e.(*qgm.Agg); isAgg {
				return false // evaluated from the accumulator, not vectorized
			}
			switch f := e.(type) {
			case *qgm.Func:
				if f.Name != "coalesce" {
					ok = false
				}
			}
			return ok
		})
		if !ok {
			return false
		}
	}
	return true
}

// collectAggs gathers the aggregate nodes appearing in a group box's
// outputs, in first-appearance order.
func collectAggs(b *qgm.Box) ([]*qgm.Agg, map[*qgm.Agg]int) {
	var aggs []*qgm.Agg
	aggIndex := map[*qgm.Agg]int{}
	for _, c := range b.Cols {
		qgm.Walk(c.Expr, func(e qgm.Expr) bool {
			if a, ok := e.(*qgm.Agg); ok {
				if _, dup := aggIndex[a]; !dup {
					aggIndex[a] = len(aggs)
					aggs = append(aggs, a)
				}
				return false
			}
			return true
		})
	}
	return aggs, aggIndex
}

// emitGroupRows evaluates the output expressions once per group in
// first-appearance order — the final phase shared by every grouping path.
func (ex *Exec) emitGroupRows(b *qgm.Box, groups map[string]*groupState, order []string, aggs []*qgm.Agg, aggIndex map[*qgm.Agg]int) ([]storage.Row, error) {
	states := make([]*groupState, len(order))
	for i, k := range order {
		states[i] = groups[k]
	}
	return ex.emitGroupStates(b, states, aggs, aggIndex)
}

// emitGroupStates is emitGroupRows over an already-ordered state list.
func (ex *Exec) emitGroupStates(b *qgm.Box, states []*groupState, aggs []*qgm.Agg, aggIndex map[*qgm.Agg]int) ([]storage.Row, error) {
	out, err := parallelMap(ex, states, rowMorsel, func(gs *groupState) (storage.Row, error) {
		row := make(storage.Row, len(b.Cols))
		for i, c := range b.Cols {
			v, err := ex.evalWithAggs(c.Expr, gs.rep, aggs, aggIndex, gs.accs)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	bump(&ex.Stats.RowsGrouped, int64(len(out)))
	if err := ex.govRows(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// grpChunk is one morsel's evaluated grouping state: keys[j] and args[i]
// align with the chunk's rows; rep (indexed at off+k) supplies the
// representative row for a group first seen in this chunk.
type grpChunk struct {
	n    int
	keys []colvec.Vec
	args []colvec.Vec
	rep  []colvec.Vec
	off  int
}

// colEvalGroup is the vectorized evalGroup.
func (ex *Exec) colEvalGroup(b *qgm.Box, env *Env) ([]storage.Row, error) {
	qg := b.Quants[0]
	aggs, aggIndex := collectAggs(b)
	chunks, n, err := ex.colGroupChunks(b, qg, aggs, env)
	if err != nil {
		return nil, err
	}
	var states []*groupState
	newState := func(rep []colvec.Vec, at int32) *groupState {
		gs := &groupState{
			rep:  Bind(env, qg, colRowAt(rep, at)),
			accs: make([]aggAcc, len(aggs)),
		}
		for i, a := range aggs {
			gs.accs[i] = newAggAcc(a)
		}
		states = append(states, gs)
		return gs
	}
	// A single typed integer key with no NULLs in any chunk can group
	// through an int64 map, skipping per-row key encoding. The canonical
	// key encoding is injective on pure-integer key sets, so the grouping
	// (and first-appearance order) is identical to the encoded path's.
	intKeys := len(b.GroupBy) == 1 && len(chunks) > 0
	for _, ch := range chunks {
		if intKeys && !(ch.keys[0].K == sqltypes.KindInt && ch.keys[0].Mixed == nil && !ch.keys[0].HasNulls()) {
			intKeys = false
		}
	}
	if intKeys {
		groups := map[int64]*groupState{}
		for _, ch := range chunks {
			keys := ch.keys[0].Ints
			for k := 0; k < ch.n; k++ {
				gs := groups[keys[k]]
				if gs == nil {
					gs = newState(ch.rep, int32(ch.off+k))
					groups[keys[k]] = gs
				}
				addGroupRow(gs, aggs, ch, k)
			}
		}
	} else {
		groups := map[string]*groupState{}
		var buf []byte
		for _, ch := range chunks {
			for k := 0; k < ch.n; k++ {
				buf = buf[:0]
				for j := range ch.keys {
					buf = ch.keys[j].AppendKeyAt(buf, k)
				}
				gs := groups[string(buf)] // no-alloc map lookup
				if gs == nil {
					gs = newState(ch.rep, int32(ch.off+k))
					groups[string(buf)] = gs
				}
				addGroupRow(gs, aggs, ch, k)
			}
		}
	}
	if n == 0 && len(b.GroupBy) == 0 {
		// Ungrouped aggregate over empty input yields exactly one row:
		// COUNT 0, other aggregates NULL.
		gs := &groupState{rep: Bind(env, qg, nullRow(len(qg.Input.Cols))), accs: make([]aggAcc, len(aggs))}
		for i, a := range aggs {
			gs.accs[i] = newAggAcc(a)
		}
		states = append(states, gs)
	}
	return ex.emitGroupStates(b, states, aggs, aggIndex)
}

// addGroupRow folds one input row's aggregate arguments into a group.
func addGroupRow(gs *groupState, aggs []*qgm.Agg, ch grpChunk, k int) {
	for i := range aggs {
		var v sqltypes.Value
		if aggs[i].Op != qgm.AggCountStar {
			v = ch.args[i].Value(k)
		}
		gs.accs[i].add(v)
	}
}

// colGroupChunks produces the evaluated per-morsel grouping state and the
// input row count. A vectorizable, exclusively-owned select input bypasses
// row materialization: its phase 1 runs inside the box envelope and its
// output columns project per chunk; everything else materializes through
// evalBox and re-columnarizes at the boundary.
func (ex *Exec) colGroupChunks(b *qgm.Box, qg *qgm.Quantifier, aggs []*qgm.Agg, env *Env) ([]grpChunk, int, error) {
	in := qg.Input
	if in.Kind == qgm.BoxSelect && ex.plan.Columnar(in) && !in.Distinct && ex.plan.refs[in] <= 1 {
		batch, err := ex.colSelectBatchIn(in, env)
		if err != nil {
			return nil, 0, err
		}
		if batch == nil {
			return nil, 0, nil
		}
		chunks, err := parallelChunks(ex, len(batch.sel), colMorsel, func(lo, hi int) (grpChunk, error) {
			idx := batch.sel[lo:hi]
			outVecs := make([]colvec.Vec, len(in.Cols))
			for c := range in.Cols {
				v, err := ex.colEval(in.Cols[c].Expr, batch, idx, env)
				if err != nil {
					return grpChunk{}, err
				}
				outVecs[c] = v
			}
			chb := &colBatch{phys: len(idx), sel: ex.identity(len(idx)),
				quants: []*qgm.Quantifier{qg}, cols: [][]colvec.Vec{outVecs}}
			return ex.grpChunkEval(b, aggs, chb, chb.sel, outVecs, 0, env)
		})
		return chunks, len(batch.sel), err
	}
	rows, err := ex.evalBox(in, env)
	if err != nil {
		return nil, 0, err
	}
	vecs := colsFromRows(rows, len(in.Cols))
	gb := &colBatch{phys: len(rows), sel: ex.identity(len(rows)),
		quants: []*qgm.Quantifier{qg}, cols: [][]colvec.Vec{vecs}}
	chunks, err := parallelChunks(ex, len(rows), colMorsel, func(lo, hi int) (grpChunk, error) {
		return ex.grpChunkEval(b, aggs, gb, gb.sel[lo:hi], vecs, lo, env)
	})
	return chunks, len(rows), err
}

// grpChunkEval evaluates one chunk's grouping keys and aggregate
// arguments.
func (ex *Exec) grpChunkEval(b *qgm.Box, aggs []*qgm.Agg, gb *colBatch, idx []int32, rep []colvec.Vec, off int, env *Env) (grpChunk, error) {
	ch := grpChunk{n: len(idx), keys: make([]colvec.Vec, len(b.GroupBy)),
		args: make([]colvec.Vec, len(aggs)), rep: rep, off: off}
	for j, ge := range b.GroupBy {
		v, err := ex.colEval(ge, gb, idx, env)
		if err != nil {
			return grpChunk{}, err
		}
		ch.keys[j] = v
	}
	for i, a := range aggs {
		if a.Op == qgm.AggCountStar {
			continue
		}
		v, err := ex.colEval(a.Arg, gb, idx, env)
		if err != nil {
			return grpChunk{}, err
		}
		ch.args[i] = v
	}
	return ch, nil
}
