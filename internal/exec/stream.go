// Streaming execution. RunStream evaluates a graph through the same
// operator pipeline as Run but hands the result back batch-at-a-time
// through a RowIterator instead of one materialized slice, so a server can
// put a million-row answer on the wire in constant memory. Three modes,
// chosen at start:
//
//   - scan streaming: the root is a single-table SPJ box (one ForEach
//     quantifier over a base table, only local/constant predicates, no
//     usable index). Filtering and projection run per batch directly over
//     the stored column vectors (the row form on the row engine), so
//     nothing proportional to the result is ever materialized — the only
//     resident data is the table itself.
//   - tuple streaming: any other root select box. Phase 1 (join ordering,
//     quantifier binding, predicate application — selectTuples) runs
//     eagerly as in Run; the final projection (and DISTINCT dedup) then
//     streams per batch, eliminating the projected-output buffer.
//   - materialized: roots that need a global view (GROUP BY, set
//     operations, ORDER BY, LIMIT) fall back to the exact Run pipeline and
//     serve the slice in batches.
//
// An attached tracer or profiler picks no mode: a streamed root's one box
// evaluation is observed from start to finish.
//
// Batches are a fixed multiple of the morsel size and are claimed in
// order, so morsel boundaries — and with them the scheduler's min-index
// error semantics, governance checkpoints, and output row order — match
// the materialized path. Rows, Stats totals, and error classification are
// identical between Run and RunStream for every query; the one documented
// divergence is which of several co-occurring failures surfaces first
// (e.g. a projection error in one batch versus a budget trip charged by a
// later batch), since streaming observes them in batch order. Both modes
// remain individually deterministic at every worker count.
package exec

import (
	"decorr/internal/colvec"
	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/trace"
)

// streamBatchRows is the iterator's batch granularity. It is a multiple of
// rowMorsel so streamed batches decompose into exactly the morsel
// boundaries the materialized path uses.
const streamBatchRows = 4 * rowMorsel

type streamMode int

const (
	modeMaterialized streamMode = iota
	modeTuples
	modeScan
)

// RowIterator yields one query's result rows batch-at-a-time. Obtain one
// from RunStream, call Next until it returns (nil, nil) or an error, and
// Close it (Close is idempotent and safe after exhaustion). A RowIterator
// is not safe for concurrent use, and its Exec must not start another Run
// or RunStream until the iterator is closed. Batches are read-only: their
// rows may share backing arrays and string payloads with other rows and
// with the stored table, so callers must not mutate them.
type RowIterator struct {
	ex *Exec
	g  *qgm.Graph

	started  bool
	finished bool
	err      error
	before   Stats

	mode streamMode

	// box is the streamed root (nil in materialized mode) and obs its
	// observed evaluation, which ends at finish.
	box *qgm.Box
	obs boxObs

	// tuple mode: phase-1 bindings awaiting projection. When the root
	// select is vectorized, cbatch replaces tuples: the bound column batch
	// streams through colProjectRows one selection-vector range at a time.
	tuples []*Env
	tpos   int
	cbatch *colBatch
	cpos   int

	// scan mode: the stored table awaiting filter+projection, slen rows
	// of which spos are done — as a one-quantifier batch over its column
	// vectors (cscan) on the vectorized engine, as its row form (scan) on
	// the row engine.
	q      *qgm.Quantifier
	locals []*selPred
	cscan  *colBatch
	scan   []storage.Row
	slen   int
	spos   int

	// seen carries DISTINCT dedup state across batches (first occurrence
	// wins, as in dedupeRows).
	seen map[string]bool

	// emitted counts post-dedup output rows for the incremental
	// MaxOutputRows check.
	emitted int64

	// materialized mode: the fully evaluated result, served in slices.
	rows []storage.Row
}

// RunStream begins a streaming evaluation of g along its plan (planFor).
// The governor (deadline anchor included) arms here; evaluation itself
// starts lazily at the first Next, so a pre-canceled context surfaces from
// Next, not RunStream.
func (ex *Exec) RunStream(g *qgm.Graph) *RowIterator {
	ex.planFor(g)
	ex.gov = newGovernor(ex.opts.Ctx, ex.opts.Limits)
	return &RowIterator{ex: ex, g: g}
}

// Run evaluates the graph and returns the result rows (after any top-level
// ORDER BY). When Options.Ctx or Options.Limits are armed, Run enforces
// them: a pre-canceled context returns ErrCanceled before any row is
// produced, and mid-run trips unwind through the scheduler's deterministic
// error machinery as the typed sentinels of this package. Run is a thin
// collector over RunStream.
func (ex *Exec) Run(g *qgm.Graph) ([]storage.Row, error) {
	return ex.RunStream(g).Collect()
}

// Next returns the next non-empty batch of result rows, or (nil, nil) when
// the stream is exhausted, or the run's terminal error. After an error (or
// exhaustion) every further Next repeats the same outcome.
func (it *RowIterator) Next() ([]storage.Row, error) {
	if it.finished {
		return nil, it.err
	}
	if !it.started {
		if err := it.start(); err != nil {
			it.finish(err)
			return nil, err
		}
	} else if err := it.ex.gov.checkpoint(); err != nil {
		// Every batch boundary is a cancellation point, whatever the mode.
		// Scan and tuple batches would trip at their next morsel claim, but
		// materialized (and already-evaluated) results are served without
		// claiming morsels, so without this check a kill or deadline landing
		// mid-serve would be silently ignored and the stream would drain to
		// a clean finish.
		it.finish(err)
		return nil, err
	}
	switch it.mode {
	case modeTuples:
		for it.tupleRemaining() {
			batch, err := it.tupleBatch()
			if err != nil {
				it.finish(err)
				return nil, err
			}
			if len(batch) > 0 {
				return batch, nil
			}
		}
	case modeScan:
		for it.spos < it.slen {
			batch, err := it.scanBatch()
			if err != nil {
				it.finish(err)
				return nil, err
			}
			if len(batch) > 0 {
				return batch, nil
			}
		}
	default:
		if len(it.rows) > 0 {
			n := min(streamBatchRows, len(it.rows))
			batch := it.rows[:n:n]
			it.rows = it.rows[n:]
			return batch, nil
		}
	}
	it.finish(nil)
	return nil, nil
}

// Close releases the iterator's state. Closing before exhaustion abandons
// the stream: the work already done is published to the metrics registry,
// and no error is reported. Close never fails; the error return exists for
// io.Closer-shaped call sites.
func (it *RowIterator) Close() error {
	if !it.finished {
		it.finish(nil)
	}
	return nil
}

// Err returns the stream's terminal error, if any. It is meaningful once
// Next has returned (nil, nil) or an error, or after Close.
func (it *RowIterator) Err() error { return it.err }

// Collect drains the rest of the iterator into one slice — the Run
// semantics. A materialized result is handed over whole, not re-appended
// batch by batch.
func (it *RowIterator) Collect() ([]storage.Row, error) {
	if it.finished {
		return nil, it.err
	}
	if !it.started {
		if err := it.start(); err != nil {
			it.finish(err)
			return nil, err
		}
	}
	if it.mode == modeMaterialized {
		rows := it.rows
		it.rows = nil
		it.finish(nil)
		return rows, nil
	}
	var out []storage.Row
	for {
		batch, err := it.Next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return out, nil
		}
		out = append(out, batch...)
	}
}

// start performs the pre-row work: mode selection and — in
// tuple and materialized modes — the eager evaluation phases.
func (it *RowIterator) start() error {
	it.started = true
	ex := it.ex
	if err := ex.gov.checkpoint(); err != nil {
		return err
	}
	it.before = ex.Stats
	root := it.g.Root
	// Streaming requires a root whose output needs no global pass: a plain
	// select with no ORDER BY or LIMIT. The root's one evaluation stays
	// inside the box envelope from here to finish.
	if root.Kind == qgm.BoxSelect && len(it.g.OrderBy) == 0 && it.g.Limit < 0 {
		if err := ex.enterBox(); err != nil {
			return err
		}
		it.box, it.obs = root, ex.observe(root)
		if root.Distinct {
			it.seen = make(map[string]bool)
		}
		if q, consts, locals, ok := ex.scanStreamPlan(root); ok {
			it.mode = modeScan
			it.q = q
			it.locals = locals
			return it.startScan(consts)
		}
		it.mode = modeTuples
		if ex.plan.Columnar(root) {
			batch, err := ex.colSelectBatch(root, nil)
			if err != nil {
				return err
			}
			if batch == nil {
				batch = &colBatch{} // empty result; an armed cbatch marks columnar mode
			}
			it.cbatch = batch
			return nil
		}
		tuples, err := ex.selectTuples(root, nil)
		if err != nil {
			return err
		}
		it.tuples = tuples
		return nil
	}
	// Materialized fallback: exactly the Run pipeline.
	rows, err := ex.evalBox(root, nil)
	if err != nil {
		return err
	}
	if err := ex.gov.checkOutput(len(rows)); err != nil {
		return err
	}
	if len(it.g.OrderBy) > 0 {
		sortRows(rows, it.g.OrderBy)
	}
	if it.g.Limit >= 0 && int64(len(rows)) > it.g.Limit {
		rows = rows[:it.g.Limit]
	}
	it.rows = rows
	return nil
}

// finish latches the stream's terminal state: governance classification on
// error, metrics publication on clean (or abandoned) completion.
func (it *RowIterator) finish(err error) {
	if it.finished {
		return
	}
	it.finished = true
	it.err = err
	if it.box != nil {
		it.obs.end(it.ex, it.box, int(it.emitted), err)
	}
	it.tuples, it.scan, it.rows = nil, nil, nil
	it.cbatch, it.cscan = nil, nil
	it.seen = nil
	if err != nil {
		if counter, ok := classifyGovernance(err); ok {
			trace.Metrics.Counter(counter).Inc()
		}
		return
	}
	if it.started {
		publishStats(statsDelta(it.before, it.ex.Stats))
	}
}

// scanStreamPlan decides whether root select b qualifies for scan
// streaming and returns its single ForEach quantifier with the plan's
// constant conjuncts (pre: no quantifier references — evaluated once,
// before the scan) and local conjuncts (the quantifier's step filter). Any
// shape the materialized path would execute differently — multiple
// quantifiers, subqueries, an index probe — declines, so the tuple or
// materialized mode reproduces its exact stats.
func (ex *Exec) scanStreamPlan(b *qgm.Box) (q *qgm.Quantifier, consts, locals []*selPred, ok bool) {
	if len(b.Quants) != 1 {
		return nil, nil, nil, false
	}
	q = b.Quants[0]
	if q.Kind != qgm.QForEach || q.Input.Kind != qgm.BoxBase || ex.db.Table(q.Input.Table.Name) == nil {
		return nil, nil, nil, false
	}
	plan := ex.plan.plans[b]
	if plan.steps[0].index != nil {
		return nil, nil, nil, false
	}
	return q, plan.pre, plan.steps[0].filter, true
}

// startScan applies the constant conjuncts (over the root's single empty
// binding, exactly as selectTuples does) and scans the base table. A false
// constant short-circuits to an empty stream without touching storage.
func (it *RowIterator) startScan(consts []*selPred) error {
	ex := it.ex
	if kept, err := ex.filterTuples([]*Env{nil}, consts); err != nil || len(kept) == 0 {
		return err // a false constant: empty scan, stream exhausts immediately
	}
	if !ex.plan.Columnar(it.box) {
		_, rows, err := ex.scanBase(it.q.Input)
		it.scan, it.slen = rows, len(rows)
		return err
	}
	_, vecs, n, err := ex.scanBaseCols(it.q.Input)
	it.cscan = &colBatch{phys: n, quants: []*qgm.Quantifier{it.q}, cols: [][]colvec.Vec{vecs}}
	it.slen = n
	return err
}

// scanBatch filters and projects the next batch of scanned rows, one
// morsel per scheduler claim, so a batch's working set is one batch of
// output rows.
func (it *RowIterator) scanBatch() ([]storage.Row, error) {
	ex := it.ex
	lo := it.spos
	hi := min(lo+streamBatchRows, it.slen)
	it.spos = hi
	var batch []storage.Row
	var err error
	if it.cscan != nil {
		batch, err = it.colScanBatch(lo, hi)
	} else {
		batch, err = it.rowScanBatch(it.scan[lo:hi])
	}
	if err != nil {
		return nil, err
	}
	// The surviving bindings are what the materialized path counts as the
	// (single-quantifier) join result.
	bump(&ex.Stats.RowsJoined, int64(len(batch)))
	if err := ex.govRows(len(batch)); err != nil {
		return nil, err
	}
	return it.emit(batch)
}

// colScanBatch is scanBatch's vectorized half over stored rows [lo, hi):
// per morsel the filter kernels narrow a selection by each local conjunct
// in declared order and the output expressions evaluate over the
// survivors; the batch's rows then share one backing array.
func (it *RowIterator) colScanBatch(lo, hi int) ([]storage.Row, error) {
	ex, b, cb := it.ex, it.box, it.cscan
	phys := ex.identity(hi)[lo:hi]
	chunks, err := parallelChunks(ex, hi-lo, rowMorsel, func(clo, chi int) ([]colvec.Vec, error) {
		idx := phys[clo:chi]
		for _, p := range it.locals {
			tris, err := ex.colEvalPred(p.expr, cb, idx, nil)
			if err != nil {
				return nil, err
			}
			if idx = keepTrue(idx, tris); len(idx) == 0 {
				return nil, nil
			}
		}
		out := make([]colvec.Vec, len(b.Cols))
		for c := range b.Cols {
			v, err := ex.colEval(b.Cols[c].Expr, cb, idx, nil)
			if err != nil {
				return nil, err
			}
			out[c] = v
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	n, w := 0, len(b.Cols)
	for _, vecs := range chunks {
		n += colLen(vecs)
	}
	if n == 0 {
		return nil, nil
	}
	rows := make([]storage.Row, 0, n)
	arena := make([]sqltypes.Value, n*w)
	for _, vecs := range chunks {
		for k := range colLen(vecs) {
			r := storage.Row(arena[:w:w])
			arena = arena[w:]
			for c := range vecs {
				r[c] = vecs[c].Value(k)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// rowScanBatch is scanBatch's row-engine half: the fused per-morsel loop
// evaluates the local conjuncts in declared order and projects survivors
// immediately.
func (it *RowIterator) rowScanBatch(seg []storage.Row) ([]storage.Row, error) {
	ex, b, q := it.ex, it.box, it.q
	chunks, err := parallelChunks(ex, len(seg), rowMorsel, func(clo, chi int) ([]storage.Row, error) {
		var out []storage.Row
		for _, r := range seg[clo:chi] {
			renv := Bind(nil, q, r)
			keep := true
			for _, p := range it.locals {
				tr, err := ex.EvalPred(p.expr, renv)
				if err != nil {
					return nil, err
				}
				if tr != sqltypes.True {
					keep = false
					break
				}
			}
			if !keep {
				continue
			}
			row := make(storage.Row, len(b.Cols))
			for i, c := range b.Cols {
				v, err := ex.EvalExpr(c.Expr, renv)
				if err != nil {
					return nil, err
				}
				row[i] = v
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

// tupleRemaining reports whether phase-1 output (row tuples or the
// columnar batch's selection vector) is still awaiting projection.
func (it *RowIterator) tupleRemaining() bool {
	if it.cbatch != nil {
		return it.cpos < len(it.cbatch.sel)
	}
	return it.tpos < len(it.tuples)
}

// tupleBatch projects the next batch of phase-1 bindings.
func (it *RowIterator) tupleBatch() ([]storage.Row, error) {
	if it.cbatch != nil {
		lo := it.cpos
		hi := min(lo+streamBatchRows, len(it.cbatch.sel))
		it.cpos = hi
		batch, err := it.ex.colProjectRows(it.box, it.cbatch, it.cbatch.sel[lo:hi], nil)
		if err != nil {
			return nil, err
		}
		return it.emit(batch)
	}
	lo := it.tpos
	hi := min(lo+streamBatchRows, len(it.tuples))
	it.tpos = hi
	batch, err := it.ex.projectTuples(it.box, it.tuples[lo:hi])
	if err != nil {
		return nil, err
	}
	return it.emit(batch)
}

// emit applies cross-batch DISTINCT dedup and the incremental output-row
// budget, then releases the batch to the caller.
func (it *RowIterator) emit(batch []storage.Row) ([]storage.Row, error) {
	if it.seen != nil {
		kept := batch[:0]
		for _, r := range batch {
			k := sqltypes.Key(r)
			if !it.seen[k] {
				it.seen[k] = true
				kept = append(kept, r)
			}
		}
		batch = kept
	}
	it.emitted += int64(len(batch))
	if err := it.ex.gov.checkOutputTotal(it.emitted); err != nil {
		return nil, err
	}
	return batch, nil
}
