// Columnar batch representation. A colBatch is the vectorized executor's
// unit of intermediate state during select evaluation: one typed column
// vector per column of each bound quantifier, plus a selection vector of
// live physical row indices. Predicates narrow the selection vector in
// place and joins compose per-quantifier row-index maps over shared base
// vectors — neither copies column data; values gather lazily where an
// expression reads a column. Morsels become column-batch ranges: every
// columnar loop splits the selection vector into chunks claimed through
// the same scheduler (parallelChunks), so governance checkpoints,
// fault-injection points, and min-index error semantics carry over from
// the row engine unchanged.
package exec

import (
	"decorr/internal/colvec"
	"decorr/internal/faultinject"
	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// colMorsel sizes columnar morsels: one chunk of the selection vector per
// scheduler claim. Larger than rowMorsel because each claimed unit is a
// whole vector kernel pass, not a per-row interpreter step.
const colMorsel = 4096

// colBatch is a set of quantifier-aligned column vectors sharing one
// selection vector. The batch has phys tuples; sel lists the live tuple
// indices in output order. Column data is late-materialized: cols[i]
// holds quantifier i's base vectors (usually the table's shared, cached
// vectors), and rowIdx[i] maps tuple index → physical row in those
// vectors (nil = identity). Joins only compose these index maps — no
// column is gathered until an expression actually reads it.
type colBatch struct {
	phys   int
	sel    []int32
	quants []*qgm.Quantifier
	cols   [][]colvec.Vec
	rowIdx [][]int32
}

// rowMap returns quantifier qi's tuple-index → physical-row map, or nil
// for the identity. Reads compose it inline (Vec.GatherVia) instead of
// materializing the translated index list.
func (b *colBatch) rowMap(qi int) []int32 {
	if qi >= len(b.rowIdx) {
		return nil
	}
	return b.rowIdx[qi]
}

// quantIdx locates q among the batch's bound quantifiers, or -1.
func (b *colBatch) quantIdx(q *qgm.Quantifier) int {
	for i, bq := range b.quants {
		if bq == q {
			return i
		}
	}
	return -1
}

// colsFromRows converts a materialized row set into column vectors — the
// row-materialization boundary in the other direction, used when a
// quantifier's input is produced by a not-yet-vectorized operator.
func colsFromRows(rows []storage.Row, width int) []colvec.Vec {
	vecs := make([]colvec.Vec, width)
	for c := range vecs {
		vecs[c] = colvec.FromColumn(rows, c)
	}
	return vecs
}

// joinGather builds the batch that results from joining q into b. No
// column data moves: every side keeps its shared base vectors, the
// already-bound quantifiers' row-index maps re-index through the
// probe-side pair list, and q's map is the build-side pair list itself.
// Columns materialize later, only where an expression reads them.
func (ex *Exec) joinGather(b *colBatch, tupleIdx []int32, q *qgm.Quantifier, qVecs []colvec.Vec, rowIdx []int32) (*colBatch, error) {
	n := len(tupleIdx)
	maps := make([][]int32, len(b.quants))
	compose := false
	for i := range maps {
		if m := b.rowMap(i); m != nil {
			maps[i] = make([]int32, n)
			compose = true
		} else {
			// Identity map: the composed map IS the probe-side pair list.
			// Batches are immutable, so every such quantifier aliases it.
			maps[i] = tupleIdx
		}
	}
	if compose {
		if _, err := parallelChunks(ex, n, colMorsel, func(lo, hi int) (struct{}, error) {
			for i := range maps {
				old := b.rowMap(i)
				if old == nil {
					continue
				}
				for k := lo; k < hi; k++ {
					maps[i][k] = old[tupleIdx[k]]
				}
			}
			return struct{}{}, nil
		}); err != nil {
			return nil, err
		}
	}
	out := &colBatch{
		phys:   n,
		sel:    ex.identity(n),
		quants: make([]*qgm.Quantifier, 0, len(b.quants)+1),
		cols:   make([][]colvec.Vec, 0, len(b.quants)+1),
		rowIdx: make([][]int32, 0, len(b.quants)+1),
	}
	for i, bq := range b.quants {
		out.quants = append(out.quants, bq)
		out.cols = append(out.cols, b.cols[i])
		out.rowIdx = append(out.rowIdx, maps[i])
	}
	out.quants = append(out.quants, q)
	out.cols = append(out.cols, qVecs)
	out.rowIdx = append(out.rowIdx, rowIdx)
	return out, nil
}

// colMaterialize converts dense output vectors (all length n) into rows.
func (ex *Exec) colMaterialize(vecs []colvec.Vec, n int) ([]storage.Row, error) {
	chunks, err := parallelChunks(ex, n, colMorsel, func(lo, hi int) ([]storage.Row, error) {
		out := make([]storage.Row, 0, hi-lo)
		w := len(vecs)
		arena := make([]sqltypes.Value, (hi-lo)*w)
		for i := lo; i < hi; i++ {
			row := storage.Row(arena[(i-lo)*w : (i-lo+1)*w : (i-lo+1)*w])
			for c := range vecs {
				row[c] = vecs[c].Value(i)
			}
			out = append(out, row)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return concat(chunks), nil
}

// colRowAt materializes one physical row of a quantifier's column set.
func colRowAt(vecs []colvec.Vec, i int32) storage.Row {
	row := make(storage.Row, len(vecs))
	for c := range vecs {
		row[c] = vecs[c].Value(int(i))
	}
	return row
}

// colBytes computes the same accounting measure as rowsBytes over the live
// rows of a column set: a fixed per-value overhead plus string payloads.
// Governance byte-budget tests pin exact trip boundaries, so the columnar
// hash build must charge bit-identical byte counts to the row build.
func colBytes(vecs []colvec.Vec, sel []int32) int64 {
	const perValue = 24 // must match rowsBytes
	n := int64(len(sel)) * int64(len(vecs)) * perValue
	for c := range vecs {
		v := &vecs[c]
		switch {
		case v.Mixed != nil:
			for _, i := range sel {
				if x := v.Mixed[i]; x.K == sqltypes.KindString {
					n += int64(len(x.S))
				}
			}
		case v.K == sqltypes.KindString:
			// NULL positions hold "" and contribute 0, as in rowsBytes.
			for _, i := range sel {
				n += int64(len(v.Strs[i]))
			}
		}
	}
	return n
}

// colHashBuildCheck mirrors hashBuildCheck for a columnar build side: the
// fault-injection point fires first, then the live build rows are charged
// against the byte budget (computed only when a byte budget is armed).
func (ex *Exec) colHashBuildCheck(vecs []colvec.Vec, sel []int32) error {
	if err := faultinject.Check(faultinject.HashBuild); err != nil {
		return err
	}
	if ex.gov == nil || ex.gov.maxBytes == 0 {
		return nil
	}
	return ex.gov.addBytes(colBytes(vecs, sel))
}
