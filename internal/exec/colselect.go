// Columnar select evaluation: the vectorized phase 1 (colSelectBatch, the
// counterpart of selectTuples) and phase 2 (colProjectRows, the
// counterpart of projectTuples). Both engines run the steps of the box's
// one selectPlan, so the join order, predicate placement and
// index/hash/cross dispatch are shared by construction; the statistics
// bumps, governance charges and fault-injection points are the row path's
// exactly — only the unit of work changes from one bound tuple to one
// column-batch morsel. A scalar, existential/universal or lateral step is
// the one step both engines run with the same code: the columnar engine
// hands the row path's binder one Env per live tuple (colBindNested).
// Hash joins replace the per-row string-keyed map with an arena hash
// table: all key encodings live in one []byte, buckets are power-of-two
// FNV-1a, and chains emit in ascending build-row order so probe output
// matches the row engine's append-built map buckets row for row.
package exec

import (
	"bytes"
	"fmt"
	"slices"

	"decorr/internal/colvec"
	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// colSelectable reports why the vectorized engine cannot evaluate select
// box b, or "" when it can: the engine is switched off ("rowmode"), a
// ForEach reads a synthetic or storageless table whose cached vectors could
// go stale ("synthetic"), or a predicate or output expression does not
// vectorize ("expr"). Every quantifier kind runs columnar: a scalar,
// existential/universal or lateral step runs in place through the row
// binders (colBindNested). It is the plan builder's last step and the one
// source of the reason EXPLAIN ANALYZE prints.
func (p *Plan) colSelectable(b *qgm.Box) string {
	if !p.colOK {
		return "rowmode"
	}
	for _, q := range b.Quants {
		if q.Kind == qgm.QForEach && q.Input.Kind == qgm.BoxBase {
			tbl := p.db.Table(q.Input.Table.Name)
			if tbl == nil || tbl.Synthetic() {
				return "synthetic"
			}
		}
	}
	for _, p := range b.Preds {
		if !colExprOK(p) {
			return "expr"
		}
	}
	for _, c := range b.Cols {
		if !colExprOK(c.Expr) {
			return "expr"
		}
	}
	return ""
}

// colEvalSelect is the vectorized evalSelect: phase 1 builds the bound
// batch, phase 2 projects it to rows at the materialization boundary.
func (ex *Exec) colEvalSelect(b *qgm.Box, env *Env) ([]storage.Row, error) {
	batch, err := ex.colSelectBatch(b, env)
	if err != nil || batch == nil || len(batch.sel) == 0 {
		return nil, err
	}
	out, err := ex.colProjectRows(b, batch, batch.sel, env)
	if err != nil {
		return nil, err
	}
	if b.Distinct {
		out = dedupeRows(out)
	}
	return out, nil
}

// colSelectBatch is the vectorized selectTuples: it runs the plan's steps
// in order, applies each predicate at the same point, and returns the fully
// bound, fully filtered batch (nil when the result is empty).
func (ex *Exec) colSelectBatch(b *qgm.Box, env *Env) (*colBatch, error) {
	plan := ex.plan.plans[b]
	if plan.err != nil {
		return nil, plan.err
	}
	// The seed batch is the row path's single outer tuple: one live row
	// with no bound quantifiers, so predicates over only outer bindings
	// and constants can apply before the first join.
	batch := &colBatch{phys: 1, sel: []int32{0}}
	if err := ex.colFilterPreds(batch, plan.pre, env); err != nil {
		return nil, err
	}
	for i := range plan.steps {
		if len(batch.sel) == 0 {
			return nil, nil
		}
		s := &plan.steps[i]
		var next *colBatch
		var err error
		if s.Q.Kind == qgm.QForEach && !s.Correlated {
			next, err = ex.colBindForEach(s, batch, env)
		} else {
			next, err = ex.colBindNested(s, batch, env)
		}
		if err != nil {
			return nil, err
		}
		batch = next
		if err := ex.colFilterPreds(batch, s.after, env); err != nil {
			return nil, err
		}
	}
	if len(batch.sel) == 0 {
		return nil, nil
	}
	return batch, plan.left
}

// colSelectBatchIn is colSelectBatch as one evaluation of b inside the box
// envelope: the fused group input, whose phase 1 is the box's evaluation
// (its output columns project per chunk, in the consumer). It is a function
// of its own so that batch, which the envelope's closure assigns, is not
// also captured by the consumer's escaping chunk closure and moved to the
// heap on every evaluation.
func (ex *Exec) colSelectBatchIn(b *qgm.Box, env *Env) (batch *colBatch, err error) {
	_, err = ex.inBox(b, true, func() (boxOut, error) {
		var err error
		if batch, err = ex.colSelectBatch(b, env); batch == nil {
			return boxOut{}, err
		}
		return boxOut{n: len(batch.sel)}, err
	})
	return batch, err
}

// colFilterPreds narrows the batch by every predicate, one pass each.
func (ex *Exec) colFilterPreds(b *colBatch, preds []*selPred, env *Env) error {
	for _, pi := range preds {
		if err := ex.colFilterBatch(b, pi.expr, env); err != nil {
			return err
		}
	}
	return nil
}

// colFilterBatch narrows the batch's selection vector to the rows where e
// is TRUE. Column data is never copied — only the index list shrinks.
func (ex *Exec) colFilterBatch(b *colBatch, e qgm.Expr, env *Env) error {
	kept, err := parallelChunks(ex, len(b.sel), colMorsel, func(lo, hi int) ([]int32, error) {
		idx := b.sel[lo:hi]
		tris, err := ex.colEvalPred(e, b, idx, env)
		if err != nil {
			return nil, err
		}
		out := idx[:0:0]
		for k, t := range tris {
			if t == sqltypes.True {
				out = append(out, idx[k])
			}
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	b.sel = concat(kept)
	return nil
}

// colBindForEach is the vectorized bindForEach: index lookup, hash join or
// cross product as the step says, with the same statistics at each exit.
// Base tables are read through scanBase and derived inputs evaluate inside
// the box envelope, exactly as on the row path; a vectorizable select input
// hands over its output vectors, anything else re-columnarizes its rows at
// the boundary.
func (ex *Exec) colBindForEach(s *Step, batch *colBatch, env *Env) (*colBatch, error) {
	if s.index != nil {
		return ex.colIndexBind(s, batch, env)
	}
	q := s.Q
	var vecs []colvec.Vec
	var phys int
	switch in := q.Input; {
	case in.Kind == qgm.BoxBase:
		// Table.Scan stays the fault-injection point; the cached column
		// vectors carry the same rows (eligibility excluded synthetic
		// tables, whose vectors could go stale).
		tbl, scanned, err := ex.scanBase(in)
		if err != nil {
			return nil, err
		}
		vecs, phys = nil, len(scanned)
		if v, ok := tbl.ColVecs(); ok && colLen(v) == len(scanned) {
			vecs = v
		} else {
			vecs = colsFromRows(scanned, len(tbl.Def.Columns))
		}
	case in.Kind == qgm.BoxSelect && ex.plan.Columnar(in) && !in.Distinct:
		// Fused select→select: the derived input is itself a vectorizable
		// select, so its output columns project straight into dense vectors
		// — no row materialization and re-columnarization round trip. The
		// envelope caches them (CSE) in this form.
		out, err := ex.inBox(in, true, func() (boxOut, error) {
			batch, err := ex.colSelectBatch(in, env)
			if err != nil {
				return boxOut{}, err
			}
			vecs, n, err := ex.colProjectVecs(in, batch, env)
			return boxOut{vecs: vecs, n: n}, err
		})
		if err != nil {
			return nil, err
		}
		vecs, phys = out.vecs, out.n
	default:
		rows, err := ex.evalBox(in, env)
		if err != nil {
			return nil, err
		}
		vecs, phys = colsFromRows(rows, len(in.Cols)), len(rows)
	}
	qb := &colBatch{phys: phys, sel: ex.identity(phys),
		quants: []*qgm.Quantifier{q}, cols: [][]colvec.Vec{vecs}}
	// Local predicates narrow the scan before any join. The row path
	// tests them row-major (all predicates per row); one predicate per
	// pass over the survivors keeps the same result set — which of two
	// co-failing predicates' errors surfaces first may differ, the
	// documented vector-major divergence.
	if err := ex.colFilterPreds(qb, s.filter, env); err != nil {
		return nil, err
	}
	// Hash join on equality predicates connecting q to the bound set.
	if len(s.QKeys) > 0 {
		if err := ex.colHashBuildCheck(vecs, qb.sel); err != nil {
			return nil, err
		}
		bump(&ex.Stats.HashBuilds, 1)
		ht, err := ex.colBuildHash(s.QKeys, s.NullSafe, qb, env)
		if err != nil {
			return nil, err
		}
		tupleIdx, rowIdx, err := ex.colProbeHash(ht, s.BoundKeys, s.NullSafe, batch, env)
		if err != nil {
			return nil, err
		}
		joined, err := ex.colJoin(batch, tupleIdx, q, vecs, rowIdx)
		if err != nil {
			return nil, err
		}
		bump(&ex.Stats.RowsJoined, int64(len(joined.sel)))
		if err := ex.govRows(len(joined.sel)); err != nil {
			return nil, err
		}
		return joined, nil
	}
	// Cross product (residual predicates apply after the bind).
	nq := len(qb.sel)
	pairs, err := parallelChunks(ex, len(batch.sel), colMorsel, func(lo, hi int) (colPairs, error) {
		p := colPairs{
			tuple: make([]int32, 0, (hi-lo)*nq),
			row:   make([]int32, 0, (hi-lo)*nq),
		}
		for _, t := range batch.sel[lo:hi] {
			for _, r := range qb.sel {
				p.tuple = append(p.tuple, t)
				p.row = append(p.row, r)
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	tupleIdx, rowIdx := flattenPairs(pairs)
	joined, err := ex.colJoin(batch, tupleIdx, q, vecs, rowIdx)
	if err != nil {
		return nil, err
	}
	bump(&ex.Stats.RowsJoined, int64(len(joined.sel)))
	if err := ex.govRows(len(joined.sel)); err != nil {
		return nil, err
	}
	return joined, nil
}

// colBindNested runs a step whose input the row binders own — a scalar,
// existential/universal or lateral quantifier — in place. Each live tuple
// becomes one Env (colTupleEnvs) and the row path's binder runs over them,
// so correlatedMap, NIBatch's batching and memo, three-valued logic and
// cardinality errors stay in one place. A binder's output Envs extend the
// tuples they came from, in stream order, which maps them back: an
// existential/universal step narrows the selection vector to the tuples
// it kept, a scalar or lateral step joins the rows it bound to q.
func (ex *Exec) colBindNested(s *Step, batch *colBatch, env *Env) (*colBatch, error) {
	q := s.Q
	tuples, err := ex.colTupleEnvs(s, batch, env)
	if err != nil {
		return nil, err
	}
	if q.Kind.IsSubquery() {
		kept, err := ex.bindSubqueryCheck(q, s.ties, s.Correlated, tuples, env)
		if err != nil {
			return nil, err
		}
		sel, i := make([]int32, len(kept)), 0
		for k, t := range kept {
			for tuples[i] != t {
				i++
			}
			sel[k] = batch.sel[i]
		}
		batch.sel = sel
		return batch, nil
	}
	var bound []*Env
	if q.Kind == qgm.QScalar {
		bound, err = ex.bindScalar(q, s.Correlated, tuples, env)
	} else {
		bound, err = ex.bindLateral(q, tuples, env)
	}
	if err != nil {
		return nil, err
	}
	tupleIdx, rows, i := make([]int32, len(bound)), make([]storage.Row, len(bound)), 0
	for k, t := range bound {
		for tuples[i] != t.parent {
			i++
		}
		tupleIdx[k], rows[k] = batch.sel[i], t.row
	}
	vecs := colsFromRows(rows, len(q.Input.Cols))
	return ex.colJoin(batch, tupleIdx, q, vecs, ex.identity(len(rows)))
}

// colTupleEnvs builds one Env per live tuple of the batch for step s,
// binding only what the step reads of the batch's quantifiers: the
// columns its input subtree references (its free references) and those its
// tie predicates reference. Other columns of a bound row stay NULL, since
// nothing of the step can read them. Every tuple gets an Env of its own,
// even when the step reads nothing of the batch, so that colBindNested can
// map a binder's output back to its tuple by identity.
func (ex *Exec) colTupleEnvs(s *Step, batch *colBatch, env *Env) ([]*Env, error) {
	type read struct {
		qi   int
		cols []int
	}
	var reads []read
	add := func(q *qgm.Quantifier, col int) {
		qi := batch.quantIdx(q)
		if qi < 0 {
			return // bound by env, or not bound at all
		}
		for i := range reads {
			if reads[i].qi == qi {
				if !slices.Contains(reads[i].cols, col) {
					reads[i].cols = append(reads[i].cols, col)
				}
				return
			}
		}
		reads = append(reads, read{qi: qi, cols: []int{col}})
	}
	for _, rk := range ex.plan.freeRefs[s.Q.Input] {
		add(rk.Q, rk.Col)
	}
	for _, pi := range s.ties {
		for _, r := range qgm.Refs(pi.expr) {
			add(r.Q, r.Col)
		}
	}
	links := max(len(reads), 1)
	chunks, err := parallelChunks(ex, len(batch.sel), colMorsel, func(lo, hi int) ([]*Env, error) {
		idx := batch.sel[lo:hi]
		n := len(idx)
		nodes := make([]Env, n*links)
		out := make([]*Env, n)
		for k := range out {
			out[k] = &nodes[k*links]
			*out[k] = Env{parent: env}
		}
		for ri, r := range reads {
			vecs := batch.cols[r.qi]
			width := len(vecs)
			arena := make([]sqltypes.Value, n*width)
			for _, c := range r.cols {
				if c >= width {
					continue // EvalExpr reports the out-of-range column
				}
				v := vecs[c].GatherVia(idx, batch.rowMap(r.qi))
				for k := range idx {
					arena[k*width+c] = v.Value(k)
				}
			}
			for k := range out {
				row := storage.Row(arena[k*width : (k+1)*width : (k+1)*width])
				if ri == 0 {
					out[k].q, out[k].row = batch.quants[r.qi], row
					continue
				}
				node := &nodes[k*links+ri]
				*node = Env{parent: out[k], q: batch.quants[r.qi], row: row}
				out[k] = node
			}
		}
		return out, nil
	})
	return concat(chunks), err
}

// colPairs is one chunk's join output: parallel arrays of probe-side
// (tuple) and build-side (row) physical indices.
type colPairs struct {
	tuple, row []int32
}

func flattenPairs(chunks []colPairs) (tuple, row []int32) {
	if len(chunks) == 1 {
		return chunks[0].tuple, chunks[0].row
	}
	n := 0
	for _, c := range chunks {
		n += len(c.tuple)
	}
	tuple = make([]int32, 0, n)
	row = make([]int32, 0, n)
	for _, c := range chunks {
		tuple = append(tuple, c.tuple...)
		row = append(row, c.row...)
	}
	return tuple, row
}

// colJoin assembles the batch after joining q: when nothing was bound
// before (the first ForEach), the pair row indices simply become the new
// selection vector over the table's shared vectors — zero copies;
// otherwise all sides gather into a dense batch.
func (ex *Exec) colJoin(batch *colBatch, tupleIdx []int32, q *qgm.Quantifier, qVecs []colvec.Vec, rowIdx []int32) (*colBatch, error) {
	if len(batch.quants) == 0 {
		return &colBatch{phys: colLen(qVecs), sel: rowIdx,
			quants: []*qgm.Quantifier{q}, cols: [][]colvec.Vec{qVecs}}, nil
	}
	return ex.joinGather(batch, tupleIdx, q, qVecs, rowIdx)
}

func colLen(vecs []colvec.Vec) int {
	if len(vecs) == 0 {
		return 0
	}
	return vecs[0].Len()
}

// colKeyChunk is one chunk's evaluated join- or group-key columns: vecs[j]
// aligns with the chunk's index list, null[k] marks rows with a NULL key
// component that is not null-safe (never matched, never inserted).
type colKeyChunk struct {
	vecs []colvec.Vec
	null []bool
}

// colKeyCols evaluates multi-column key expressions over the chunk with
// the row path's short-circuit: keyFor stops at a tuple's first NULL
// component that nullSafe does not mark, so expression j+1 must never
// evaluate on such a row. The live subset narrows after each nullable
// component that is not null-safe; narrowed results scatter back into
// chunk-aligned vectors. A null-safe component keeps its NULLs in the key.
func (ex *Exec) colKeyCols(exprs []qgm.Expr, nullSafe []bool, b *colBatch, idx []int32, env *Env) (colKeyChunk, error) {
	ck := colKeyChunk{vecs: make([]colvec.Vec, len(exprs)), null: make([]bool, len(idx))}
	live := idx
	var livePos []int // nil while live == idx (identity)
	for j, e := range exprs {
		if len(live) == 0 {
			break
		}
		v, err := ex.colEval(e, b, live, env)
		if err != nil {
			return colKeyChunk{}, err
		}
		if livePos == nil {
			ck.vecs[j] = v
		} else {
			full := make([]sqltypes.Value, len(idx))
			for k := range live {
				full[livePos[k]] = v.Value(k)
			}
			ck.vecs[j] = colvec.FromMixed(full)
		}
		if !v.HasNulls() || nullSafe[j] {
			continue
		}
		var nl []int32
		var np []int
		for k := range live {
			pos := k
			if livePos != nil {
				pos = livePos[k]
			}
			if v.IsNull(k) {
				ck.null[pos] = true
			} else {
				nl = append(nl, live[k])
				np = append(np, pos)
			}
		}
		live, livePos = nl, np
	}
	return ck, nil
}

// appendChunkKey appends row k's full key encoding — identical bytes to
// sqltypes.Key over the boxed key values.
func (ck *colKeyChunk) appendChunkKey(dst []byte, k int) []byte {
	for j := range ck.vecs {
		dst = ck.vecs[j].AppendKeyAt(dst, k)
	}
	return dst
}

// colHashTable is the arena-backed build side of a vectorized hash join:
// every key's encoding lives in one arena (off[i]:off[i+1] spans entry i),
// buckets are open chains over a power-of-two table. Entries append in
// build-row order and buckets fill by reverse-order head insertion, so
// each chain lists entries in ascending build order — the same candidate
// order the row engine's append-built map buckets produce, keeping probe
// output bit-identical.
type colHashTable struct {
	arena []byte
	off   []int
	hash  []uint64
	row   []int32
	head  []int32
	next  []int32
	mask  uint64

	// Typed mode: when the build side's single key column is a typed
	// integer vector, keys are stored and compared as int64 and the arena
	// stays empty. Chain order (ascending build order per bucket) does not
	// depend on the hash function, so probe output stays bit-identical to
	// the encoded mode and to the row engine.
	intKeys bool
	ints    []int64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// hashInt64 is the typed-key hash (splitmix64 finalizer).
func hashInt64(x int64) uint64 {
	h := uint64(x)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// colBuildHash evaluates the build-side key columns chunk-parallel and
// fills the table sequentially in build-row order (the row path's exact
// structure: parallel key evaluation, deterministic sequential fill).
func (ex *Exec) colBuildHash(exprs []qgm.Expr, nullSafe []bool, qb *colBatch, env *Env) (*colHashTable, error) {
	sel := qb.sel
	chunks, err := parallelChunks(ex, len(sel), colMorsel, func(lo, hi int) (colKeyChunk, error) {
		return ex.colKeyCols(exprs, nullSafe, qb, sel[lo:hi], env)
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, ck := range chunks {
		for _, isNull := range ck.null {
			if !isNull {
				n++
			}
		}
	}
	ht := &colHashTable{
		hash: make([]uint64, 0, n),
		row:  make([]int32, 0, n),
	}
	// The typed table has no NULL key: a null-safe key column holding
	// NULLs takes the encoded mode, which files NULL as a value.
	intKeys := len(exprs) == 1
	for _, ck := range chunks {
		v := &ck.vecs[0]
		typed := v.K == sqltypes.KindInt && v.Mixed == nil
		if intKeys && (!typed || nullSafe[0] && v.HasNulls()) {
			intKeys = false
		}
	}
	pos := 0
	if intKeys {
		ht.intKeys = true
		ht.ints = make([]int64, 0, n)
		for _, ck := range chunks {
			for k := range ck.null {
				phys := sel[pos]
				pos++
				if ck.null[k] {
					continue
				}
				key := ck.vecs[0].Ints[k]
				ht.ints = append(ht.ints, key)
				ht.hash = append(ht.hash, hashInt64(key))
				ht.row = append(ht.row, phys)
			}
		}
	} else {
		ht.off = make([]int, 1, n+1)
		for _, ck := range chunks {
			for k := range ck.null {
				phys := sel[pos]
				pos++
				if ck.null[k] {
					continue
				}
				ht.arena = ck.appendChunkKey(ht.arena, k)
				ht.off = append(ht.off, len(ht.arena))
				ht.hash = append(ht.hash, fnv1a(ht.arena[ht.off[len(ht.off)-2]:]))
				ht.row = append(ht.row, phys)
			}
		}
	}
	nb := 1
	for nb < len(ht.row) {
		nb <<= 1
	}
	ht.mask = uint64(nb - 1)
	ht.head = make([]int32, nb)
	for i := range ht.head {
		ht.head[i] = -1
	}
	ht.next = make([]int32, len(ht.row))
	for i := len(ht.row) - 1; i >= 0; i-- {
		b := ht.hash[i] & ht.mask
		ht.next[i] = ht.head[b]
		ht.head[b] = int32(i)
	}
	return ht, nil
}

// colProbeHash probes the table with the batch's key columns, emitting
// matches in (probe order, ascending build order) — the row path's
// emission order.
func (ex *Exec) colProbeHash(ht *colHashTable, exprs []qgm.Expr, nullSafe []bool, batch *colBatch, env *Env) (tuple, row []int32, err error) {
	chunks, err := parallelChunks(ex, len(batch.sel), colMorsel, func(lo, hi int) (colPairs, error) {
		idx := batch.sel[lo:hi]
		ck, err := ex.colKeyCols(exprs, nullSafe, batch, idx, env)
		if err != nil {
			return colPairs{}, err
		}
		var p colPairs
		if ht.intKeys {
			if v := &ck.vecs[0]; v.K == sqltypes.KindInt && v.Mixed == nil {
				// Typed probe: int64 keys straight from the vector. The
				// typed table holds no NULL key, so a NULL probe — one a
				// null-safe key leaves unmarked — matches nothing.
				for k := range idx {
					if ck.null[k] || v.IsNull(k) {
						continue
					}
					key := v.Ints[k]
					for e := ht.head[hashInt64(key)&ht.mask]; e >= 0; e = ht.next[e] {
						if ht.ints[e] == key {
							p.tuple = append(p.tuple, idx[k])
							p.row = append(p.row, ht.row[e])
						}
					}
				}
				return p, nil
			}
			for k := range idx {
				if ck.null[k] {
					continue
				}
				key, ok := sqltypes.IntKey(ck.vecs[0].Value(k))
				if !ok {
					continue // can never equal an integer build key
				}
				for e := ht.head[hashInt64(key)&ht.mask]; e >= 0; e = ht.next[e] {
					if ht.ints[e] == key {
						p.tuple = append(p.tuple, idx[k])
						p.row = append(p.row, ht.row[e])
					}
				}
			}
			return p, nil
		}
		var buf []byte
		for k := range idx {
			if ck.null[k] {
				continue
			}
			buf = ck.appendChunkKey(buf[:0], k)
			h := fnv1a(buf)
			for e := ht.head[h&ht.mask]; e >= 0; e = ht.next[e] {
				if ht.hash[e] == h && bytes.Equal(ht.arena[ht.off[e]:ht.off[e+1]], buf) {
					p.tuple = append(p.tuple, idx[k])
					p.row = append(p.row, ht.row[e])
				}
			}
		}
		return p, nil
	})
	if err != nil {
		return nil, nil, err
	}
	tuple, row = flattenPairs(chunks)
	return tuple, row, nil
}

// colIndexBind is the vectorized indexBind: per probe row the table's
// index supplies candidate ids, then the locally applicable predicates
// filter the joined batch. The row path reads indexed rows directly (no
// Scan), so there is no scan fault point or RowsScanned bump here either.
func (ex *Exec) colIndexBind(s *Step, batch *colBatch, env *Env) (*colBatch, error) {
	q, tbl, col := s.Q, s.index, s.col
	intIdx := tbl.IntIndex(col)
	chunks, err := parallelChunks(ex, len(batch.sel), colMorsel, func(lo, hi int) (colPairs, error) {
		idx := batch.sel[lo:hi]
		v, err := ex.colEval(s.probe, batch, idx, env)
		if err != nil {
			return colPairs{}, err
		}
		if intIdx != nil && v.K == sqltypes.KindInt && v.Mixed == nil {
			// Typed probe: int64 keys straight from the column vector into
			// the index's integer resolver — no per-row boxing or key
			// encoding. A run's length is offset arithmetic, so a counting
			// pass sizes the pair arrays exactly (index fan-out can exceed
			// the chunk size), and the fill pass copies each run.
			total := 0
			for k, key := range v.Ints {
				if !v.IsNull(k) {
					total += len(intIdx.Lookup(key))
				}
			}
			p := colPairs{
				tuple: make([]int32, total),
				row:   make([]int32, total),
			}
			n := 0
			for k, key := range v.Ints {
				if v.IsNull(k) {
					continue
				}
				m := n + copy(p.row[n:], intIdx.Lookup(key))
				for j := n; j < m; j++ {
					p.tuple[j] = idx[k]
				}
				n = m
			}
			bump(&ex.Stats.IndexLookups, int64(len(idx)))
			return p, nil
		}
		p := colPairs{
			tuple: make([]int32, 0, hi-lo),
			row:   make([]int32, 0, hi-lo),
		}
		looked := 0
		for k := range idx {
			ids, ok := tbl.Lookup(col, v.Value(k))
			if !ok {
				bump(&ex.Stats.IndexLookups, int64(looked))
				return colPairs{}, fmt.Errorf("exec: index on %s.%d vanished mid-plan", tbl.Def.Name, col)
			}
			looked++
			p.row = append(p.row, ids...)
			for range ids {
				p.tuple = append(p.tuple, idx[k])
			}
		}
		// One atomic add per chunk, same total as the row path's per-lookup
		// bumps.
		bump(&ex.Stats.IndexLookups, int64(looked))
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	tupleIdx, rowIdx := flattenPairs(chunks)
	qVecs, ok := tbl.ColVecs()
	if !ok || colLen(qVecs) != len(tbl.Rows) {
		qVecs = colsFromRows(tbl.Rows, len(tbl.Def.Columns))
	}
	joined, err := ex.colJoin(batch, tupleIdx, q, qVecs, rowIdx)
	if err != nil {
		return nil, err
	}
	if err := ex.colFilterPreds(joined, s.filter, env); err != nil {
		return nil, err
	}
	bump(&ex.Stats.RowsJoined, int64(len(joined.sel)))
	if err := ex.govRows(len(joined.sel)); err != nil {
		return nil, err
	}
	ex.recordProfile(q.Input, len(joined.sel), 0)
	return joined, nil
}

// colProjectVecs projects a select batch's output expressions to dense
// column vectors — the fused select→select boundary, where the parent
// binds the child's output without ever materializing rows. A nil or
// empty batch yields zero-length vectors.
func (ex *Exec) colProjectVecs(b *qgm.Box, batch *colBatch, env *Env) ([]colvec.Vec, int, error) {
	vecs := make([]colvec.Vec, len(b.Cols))
	if batch == nil || len(batch.sel) == 0 {
		for c := range vecs {
			vecs[c] = colvec.FromMixed(nil)
		}
		return vecs, 0, nil
	}
	for c := range b.Cols {
		v, err := ex.colEval(b.Cols[c].Expr, batch, batch.sel, env)
		if err != nil {
			return nil, 0, err
		}
		vecs[c] = v
	}
	return vecs, len(batch.sel), nil
}

// colProjectRows is the vectorized projectTuples: each chunk evaluates the
// output expressions as vectors, then materializes rows — the boundary
// back to the row representation.
func (ex *Exec) colProjectRows(b *qgm.Box, batch *colBatch, sel []int32, env *Env) ([]storage.Row, error) {
	chunks, err := parallelChunks(ex, len(sel), colMorsel, func(lo, hi int) ([]storage.Row, error) {
		idx := sel[lo:hi]
		vecs := make([]colvec.Vec, len(b.Cols))
		for c := range b.Cols {
			v, err := ex.colEval(b.Cols[c].Expr, batch, idx, env)
			if err != nil {
				return nil, err
			}
			vecs[c] = v
		}
		out := make([]storage.Row, len(idx))
		// One value arena per chunk instead of one allocation per row;
		// rows are immutable downstream, so slicing a shared backing
		// array is safe.
		arena := make([]sqltypes.Value, len(idx)*len(vecs))
		for k := range idx {
			row := storage.Row(arena[k*len(vecs) : (k+1)*len(vecs) : (k+1)*len(vecs)])
			for c := range vecs {
				row[c] = vecs[c].Value(k)
			}
			out[k] = row
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return concat(chunks), nil
}
