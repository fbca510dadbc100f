package exec

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"decorr/internal/colvec"
	"decorr/internal/faultinject"
	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/trace"
)

// Reuse says how much work correlated subquery evaluation shares between
// outer tuples that carry the same correlation binding (Guravannavar's
// per-tuple / batched spectrum: one evaluator, two policies). Rows,
// ordering, and typed errors are identical under either policy, and so are
// the Stats counters at every worker count.
type Reuse int

const (
	// ReuseNone re-evaluates the correlated subtree for every outer tuple:
	// System R nested iteration (the NI strategy).
	ReuseNone Reuse = iota
	// ReuseBatch evaluates each distinct binding once (NIBatch). Where a
	// correlated input meets an outer tuple stream (correlatedMap) it
	// collects the stream's distinct bindings first and evaluates the
	// subtree set-at-a-time: once per distinct binding — or, when the
	// correlation is root-level equalities only and there are two or more
	// bindings, exactly once as a decorrelated partition/probe (see
	// batch_subquery.go). Where a subquery is evaluated once per
	// evaluation of its enclosing box, because its correlation names only
	// that box's ancestors, each binding's rows are cached the first time
	// they are asked for, and a repeat is a MemoHit (evalSubqueryInput).
	ReuseBatch
)

// Options select executor policies that the paper treats as system knobs.
type Options struct {
	// MaterializeCSE caches the result of shared, uncorrelated boxes
	// instead of recomputing them per reference. The Starburst prototype
	// in the paper "always recomputes common sub-expressions" (§5.1), and
	// false reproduces it; engine.New sets it, because §5.3 expects
	// materialization to "perform much better", and the figure harness
	// clears it to measure what the paper measured.
	MaterializeCSE bool
	// Reuse is the binding-reuse policy of correlated subquery evaluation —
	// the one knob separating the nested-iteration family (NI, NIBatch).
	// See Reuse.
	Reuse Reuse
	// Workers bounds intra-query parallelism: the number of goroutines
	// (including the caller) the morsel scheduler may use for one Run.
	// Zero or negative selects runtime.GOMAXPROCS(0); one forces the
	// classic single-threaded volcano behavior. Result rows are
	// bit-identical and identically ordered at every setting, and so are
	// the Stats counters — only wall clock changes.
	// See docs/parallel-execution.md.
	Workers int
	// Tracer, when non-nil, receives one span per box evaluation with the
	// box identity, produced rows, and wall time. The nil case is a single
	// pointer check on the hot path (no timing, no allocations).
	Tracer *trace.Tracer
	// Params supplies values for `?` placeholders, indexed by position.
	// Evaluating a qgm.Param outside the supplied range is an error.
	Params []sqltypes.Value
	// Ctx, when non-nil, cancels execution: Run polls it at every morsel
	// claim and box evaluation and returns ErrCanceled (or
	// ErrDeadlineExceeded for a context deadline). A nil Ctx — and a
	// context that can never be canceled — costs nothing on the hot path.
	Ctx context.Context
	// Limits are the per-Run resource budgets (deadline, output rows,
	// intermediate rows, tracked bytes). The zero value imposes none.
	Limits Limits
	// DisableColumnar forces the row-at-a-time interpreter even for plans
	// the vectorized engine could run. Rows, Stats, and errors are
	// identical either way (the differ cross-checks the two paths); the
	// knob exists for benchmarking and for bisecting a suspected
	// vectorization bug. The DECORR_ROWMODE environment variable (any
	// non-empty value) forces it process-wide.
	DisableColumnar bool
}

// Exec evaluates QGM graphs against a database. An Exec is single-use per
// Run for statistics purposes but may be reused; counters accumulate.
// One Run fans out internally across Options.Workers goroutines, but Run
// itself must not be called concurrently on the same Exec.
type Exec struct {
	db    *storage.DB
	opts  Options
	Stats Stats

	workers int
	sem     chan struct{} // worker tokens shared by nested parallel regions

	// gov enforces Options.Ctx and Options.Limits for the current Run; nil
	// when neither is armed. It is rebuilt at each Run entry (the Timeout
	// deadline anchors there) and read-only during the fan-out.
	gov *governor

	// mu guards the cross-worker memo state (cse, memo, bindings) and the
	// profile map. freeRefs and refs are written only by analyze
	// (before any fan-out) and read-only afterwards; est has its own lock
	// (estMu) because it is read from the scheduling hot path.
	mu sync.Mutex

	freeRefs map[*qgm.Box][]qgm.RefKey
	refs     map[*qgm.Box]int
	// volatileBox marks boxes whose subtree reads a synthetic (sys.*) or
	// storageless relation; their results are never shared across
	// bindings. Written only by analyze (before any fan-out) and
	// read-only afterwards, like freeRefs.
	volatileBox map[*qgm.Box]bool
	cse         map[*qgm.Box]*cseEntry
	memo        map[*qgm.Box]map[string]memoEntry
	bindings    map[*qgm.Box]map[string]bool

	estMu sync.Mutex
	est   map[*qgm.Box]float64

	profile map[*qgm.Box]*BoxProfile

	// plans memoizes one selectPlan per select box. Written only by
	// analyze (before any fan-out, after the est memo is warm) and
	// read-only afterwards, like freeRefs; the plans themselves are
	// immutable and shared by every worker.
	plans map[*qgm.Box]*selectPlan

	// colOK enables the vectorized engine; a select box's plan and colGrp
	// mark the boxes it may evaluate. colGrp is written only by analyze
	// (before any fan-out) and read-only afterwards, like freeRefs.
	colOK  bool
	colGrp map[*qgm.Box]bool
}

// idSel caches one shared identity selection vector (0,1,2,...) for the
// whole process: every fresh scan batch and join output starts fully
// live, and the prefix slices handed out are read-only by the colBatch
// immutability contract. Package-level so short queries don't refill it
// every Run; atomic swap keeps readers lock-free once grown.
var idSel atomic.Pointer[[]int32]

// identity returns a shared read-only [0,1,...,n-1] selection vector.
func (ex *Exec) identity(n int) []int32 {
	for {
		cur := idSel.Load()
		if cur != nil && len(*cur) >= n {
			return (*cur)[:n]
		}
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(i)
		}
		if idSel.CompareAndSwap(cur, &s) {
			return s[:n]
		}
	}
}

// New creates an executor over db.
func New(db *storage.DB, opts Options) *Exec {
	w := resolveWorkers(opts.Workers)
	if opts.Tracer != nil {
		// Span trees are part of the observability contract: the golden
		// trace tests (and anyone reading a trace) expect parent/child
		// nesting to mirror the plan. The tracer's LIFO depth tracking
		// cannot express interleaved concurrent box spans, so attaching a
		// tracer serializes execution. It is the one thing an observer
		// changes: the plan, the engine and the work stay the same.
		w = 1
	}
	return &Exec{
		db:          db,
		opts:        opts,
		workers:     w,
		sem:         make(chan struct{}, w-1),
		freeRefs:    map[*qgm.Box][]qgm.RefKey{},
		refs:        map[*qgm.Box]int{},
		volatileBox: map[*qgm.Box]bool{},
		cse:         map[*qgm.Box]*cseEntry{},
		memo:        map[*qgm.Box]map[string]memoEntry{},
		bindings:    map[*qgm.Box]map[string]bool{},
		est:         map[*qgm.Box]float64{},
		colOK:       !opts.DisableColumnar && os.Getenv("DECORR_ROWMODE") == "",
		plans:       map[*qgm.Box]*selectPlan{},
		colGrp:      map[*qgm.Box]bool{},
	}
}

func statsDelta(before, after Stats) Stats {
	return Stats{
		SubqueryInvocations: after.SubqueryInvocations - before.SubqueryInvocations,
		DistinctInvocations: after.DistinctInvocations - before.DistinctInvocations,
		MemoHits:            after.MemoHits - before.MemoHits,
		BatchedSubqueries:   after.BatchedSubqueries - before.BatchedSubqueries,
		BatchExecutions:     after.BatchExecutions - before.BatchExecutions,
		BoxEvals:            after.BoxEvals - before.BoxEvals,
		RowsScanned:         after.RowsScanned - before.RowsScanned,
		IndexLookups:        after.IndexLookups - before.IndexLookups,
		RowsJoined:          after.RowsJoined - before.RowsJoined,
		RowsGrouped:         after.RowsGrouped - before.RowsGrouped,
		HashBuilds:          after.HashBuilds - before.HashBuilds,
		CSERecomputes:       after.CSERecomputes - before.CSERecomputes,
	}
}

// publishStats folds one Run's counters into the process-wide registry —
// once per Run, so the per-row paths stay registry-free.
func publishStats(d Stats) {
	trace.Metrics.Counter("exec.runs").Inc()
	trace.Metrics.Counter("exec.subquery_invocations").Add(d.SubqueryInvocations)
	trace.Metrics.Counter("exec.box_evals").Add(d.BoxEvals)
	trace.Metrics.Counter("exec.rows_scanned").Add(d.RowsScanned)
	trace.Metrics.Counter("exec.index_lookups").Add(d.IndexLookups)
	trace.Metrics.Counter("exec.rows_joined").Add(d.RowsJoined)
	trace.Metrics.Counter("exec.rows_grouped").Add(d.RowsGrouped)
	trace.Metrics.Counter("exec.hash_builds").Add(d.HashBuilds)
	trace.Metrics.Counter("exec.cse_recomputes").Add(d.CSERecomputes)
	trace.Metrics.Counter("exec.memo_hits").Add(d.MemoHits)
	trace.Metrics.Counter("exec.batched_subqueries").Add(d.BatchedSubqueries)
	trace.Metrics.Counter("exec.batch_executions").Add(d.BatchExecutions)
	trace.Metrics.Gauge("exec.last_work").Set(d.Work())
}

// sortRows orders rows by the ORDER BY keys. The sort keys are extracted
// into column vectors up front, so each of the O(n log n) comparisons
// indexes two typed arrays instead of chasing two row pointers and boxing
// both values — and uniformly typed null-free key columns compare without
// entering OrderCompare at all.
func sortRows(rows []storage.Row, keys []qgm.OrderKey) {
	if len(rows) < 2 || len(keys) == 0 {
		return
	}
	cmps := make([]func(a, b int32) int, len(keys))
	for ki, k := range keys {
		v := colvec.FromColumn(rows, k.Col)
		cmps[ki] = orderCmp(v)
	}
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		for ki, k := range keys {
			c := cmps[ki](perm[i], perm[j])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]storage.Row, len(rows))
	for i, p := range perm {
		sorted[i] = rows[p]
	}
	copy(rows, sorted)
}

// orderCmp returns a comparator over the key column with OrderCompare
// semantics (NULLs first). Null-free int and string columns take direct
// typed comparisons; floats keep the boxed path (OrderCompare's NaN
// ordering has no cheap typed equivalent).
func orderCmp(v colvec.Vec) func(a, b int32) int {
	if v.Mixed == nil && v.Nulls == nil {
		switch v.K {
		case sqltypes.KindInt:
			xs := v.Ints
			return func(a, b int32) int {
				x, y := xs[a], xs[b]
				switch {
				case x < y:
					return -1
				case x > y:
					return 1
				}
				return 0
			}
		case sqltypes.KindString:
			xs := v.Strs
			return func(a, b int32) int { return strings.Compare(xs[a], xs[b]) }
		}
	}
	return func(a, b int32) int {
		return sqltypes.OrderCompare(v.Value(int(a)), v.Value(int(b)))
	}
}

// analyze precomputes per-box free references, reference counts,
// cardinality estimates and — once those estimates are warm — every select
// box's plan. It runs single-threaded before any fan-out, so that during
// execution the scheduler workers only ever *read* freeRefs, refs, the
// est memo and the plan memo — keeping the join order, and with it the
// output row order, identical at every worker count.
func (ex *Exec) analyze(root *qgm.Box) {
	boxes := qgm.Boxes(root)
	for _, b := range boxes {
		if _, ok := ex.freeRefs[b]; !ok {
			ex.freeRefs[b] = dedupRefs(qgm.FreeRefs(b))
		}
	}
	for _, b := range boxes {
		if _, ok := ex.volatileBox[b]; !ok {
			computeVolatile(ex.db, b, ex.volatileBox)
		}
	}
	ex.refs = qgm.RefCounts(root)
	for _, b := range boxes {
		ex.estBoxRows(b)
	}
	for _, b := range boxes {
		if b.Kind == qgm.BoxSelect && ex.plans[b] == nil {
			ex.plans[b] = ex.buildSelectPlan(b)
		}
		if b.Kind == qgm.BoxGroup && ex.colOK && ex.colGroupable(b) {
			ex.colGrp[b] = true
		}
	}
}

// Columnar reports whether analyze planned select box b for the
// vectorized engine.
func (ex *Exec) Columnar(b *qgm.Box) bool {
	p := ex.plans[b]
	return p != nil && p.col
}

func dedupRefs(refs []*qgm.ColRef) []qgm.RefKey {
	seen := map[qgm.RefKey]bool{}
	var out []qgm.RefKey
	for _, r := range refs {
		k := qgm.RefKey{Q: r.Q, Col: r.Col}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Q.ID != out[j].Q.ID {
			return out[i].Q.ID < out[j].Q.ID
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// isCorrelated reports whether box b has free references (i.e. needs outer
// bindings to evaluate). Boxes reachable from the Run root are filled in by
// analyze; the lazy path below only runs on the single-threaded estimation
// entry points (EstimateCost and friends).
func (ex *Exec) isCorrelated(b *qgm.Box) bool {
	fr, ok := ex.freeRefs[b]
	if !ok {
		fr = dedupRefs(qgm.FreeRefs(b))
		ex.freeRefs[b] = fr
	}
	return len(fr) > 0
}

// bindingKey evaluates b's free references under env and encodes them.
func (ex *Exec) bindingKey(b *qgm.Box, env *Env) (string, error) {
	fr := ex.freeRefs[b]
	vals := make([]sqltypes.Value, len(fr))
	for i, rk := range fr {
		v, err := ex.EvalExpr(&qgm.ColRef{Q: rk.Q, Col: rk.Col}, env)
		if err != nil {
			return "", err
		}
		vals[i] = v
	}
	return sqltypes.Key(vals), nil
}

// memoEntry is one (box, binding) slot of ReuseBatch's binding cache: the
// binding's evaluation wrapped in sync.OnceValues, so whichever worker
// calls it first evaluates and every other caller blocks, then shares the
// rows, the error, or the panic.
type memoEntry = func() ([]storage.Row, error)

// evalSubqueryInput evaluates the input box of a subquery-like quantifier
// for one outer tuple, counting it as a correlated invocation when the box
// is correlated. Under ReuseBatch it serves a repeated binding from the
// memo cache: this is how a subquery correlated only to an enclosing box,
// evaluated once per evaluation of that box, shares its work across those
// evaluations. It is called concurrently by scheduler workers fanning out
// over outer bindings; the bindings set and memo cache are mutex-guarded,
// and a memo miss is single-flight, so every binding is evaluated exactly
// once and the work counters do not depend on scheduling.
func (ex *Exec) evalSubqueryInput(b *qgm.Box, env *Env) ([]storage.Row, error) {
	if !ex.isCorrelated(b) {
		return ex.evalBox(b, env)
	}
	key, err := ex.bindingKey(b, env)
	if err != nil {
		return nil, err
	}
	bump(&ex.Stats.SubqueryInvocations, 1)
	memoize := ex.batchEligible(b)
	var entry memoEntry
	hit := false
	ex.mu.Lock()
	seen := ex.bindings[b]
	if seen == nil {
		seen = map[string]bool{}
		ex.bindings[b] = seen
	}
	if !seen[key] {
		seen[key] = true
		bump(&ex.Stats.DistinctInvocations, 1)
	}
	if memoize {
		m := ex.memo[b]
		if m == nil {
			m = map[string]memoEntry{}
			ex.memo[b] = m
		}
		if entry, hit = m[key]; !hit {
			entry = sync.OnceValues(func() ([]storage.Row, error) {
				rows, err := ex.evalBox(b, env)
				if err == nil {
					err = ex.govBytes(rows)
				}
				return rows, err
			})
			m[key] = entry
		}
	}
	ex.mu.Unlock()
	if entry == nil {
		return ex.evalBox(b, env)
	}
	if hit {
		bump(&ex.Stats.MemoHits, 1)
	}
	rows, err := entry()
	if err != nil && !hit {
		// The failure is shared with this Run's concurrent askers only: a
		// later Run on the same Exec re-evaluates the binding.
		ex.mu.Lock()
		delete(ex.memo[b], key)
		ex.mu.Unlock()
	}
	return rows, err
}

// evalBox evaluates any box under env, inside the box envelope.
func (ex *Exec) evalBox(b *qgm.Box, env *Env) ([]storage.Row, error) {
	out, err := ex.inBox(b, false, func() (boxOut, error) {
		rows, err := ex.dispatch(b, env)
		return boxOut{rows: rows, n: len(rows)}, err
	})
	return out.rows, err
}

// boxOut is one box evaluation's result: rows, or — for a fused columnar
// consumer — the box's dense output vectors (vecs != nil), n rows long. A
// CSE entry holds whichever form was computed first, plus the other once
// some consumer asked for it; a nil rows beside non-nil vecs is "not
// materialized yet".
type boxOut struct {
	rows []storage.Row
	vecs []colvec.Vec
	n    int
}

// inBox is the box-evaluation envelope: every entry that evaluates a box —
// evalBox, the fused columnar inputs (colBindForEach, colGroupChunks) and
// the batched subquery's stripped root (batchSingleExec) — runs eval inside
// it, and the streamed root opens it from start to finish (enterBox,
// observe). In order: the CSE policy of a shared uncorrelated box
// (cseEval); the governance checkpoint and the BoxEvals count (enterBox);
// the tracer span and profile record (observe). A read of a materialized
// shared box passes the checkpoint but evaluates nothing, so it is neither
// counted nor observed — what the cost model prices it as. vecs says
// which form the caller reads.
func (ex *Exec) inBox(b *qgm.Box, vecs bool, eval func() (boxOut, error)) (boxOut, error) {
	if ex.refs[b] > 1 && !ex.isCorrelated(b) {
		return ex.cseEval(b, vecs, eval)
	}
	if err := ex.enterBox(); err != nil {
		return boxOut{}, err
	}
	return ex.observed(b, eval)
}

// observed runs one evaluation of b under its tracer span and profile
// record.
func (ex *Exec) observed(b *qgm.Box, eval func() (boxOut, error)) (boxOut, error) {
	o := ex.observe(b)
	out, err := eval()
	o.end(ex, b, out.n, err)
	if err != nil {
		return boxOut{}, err
	}
	return out, nil
}

// enterBox opens one box evaluation. Every box evaluation is a
// cancellation point: nested-iteration plans re-evaluate correlated boxes
// per outer tuple, so this check alone bounds their trip latency to one
// subquery invocation.
func (ex *Exec) enterBox() error {
	if err := ex.gov.checkpoint(); err != nil {
		return err
	}
	bump(&ex.Stats.BoxEvals, 1)
	return nil
}

// cseEntry is one shared uncorrelated box's CSE slot. The worker that
// claims it under ex.mu computes the box's first evaluation, and done
// closes when that evaluation returns or panics: askers that wait for it
// share its result, its error or its panic, like the waiters on a memo
// miss. out gains the other form under ex.mu once an asker converts to it.
type cseEntry struct {
	done  chan struct{}
	out   boxOut
	err   error
	panic any
}

// cseEval applies the CSE policy to a shared uncorrelated box. Whoever
// claims the box's entry evaluates it first, and every later evaluation is
// decided at its claim: under MaterializeCSE it waits for the first and is
// served the cached result in the form the caller reads (converting once
// and keeping the conversion); otherwise it is a CSERecompute and runs
// again. Exactly one worker computes the first evaluation, so the counters
// are the same at every worker count.
func (ex *Exec) cseEval(b *qgm.Box, vecs bool, eval func() (boxOut, error)) (boxOut, error) {
	ex.mu.Lock()
	e, claimed := ex.cse[b]
	if !claimed {
		e = &cseEntry{done: make(chan struct{})}
		ex.cse[b] = e
	}
	ex.mu.Unlock()
	switch {
	case !claimed:
		return ex.cseFirst(b, e, eval)
	case !ex.opts.MaterializeCSE:
		bump(&ex.Stats.CSERecomputes, 1)
		return ex.cseCompute(b, eval)
	}
	if err := ex.gov.checkpoint(); err != nil {
		return boxOut{}, err
	}
	<-e.done
	if e.panic != nil {
		panic(e.panic)
	}
	if e.err != nil {
		return boxOut{}, e.err
	}
	ex.mu.Lock()
	out := e.out
	ex.mu.Unlock()
	var err error
	switch {
	case vecs && out.vecs == nil:
		out.vecs = colsFromRows(out.rows, len(b.Cols))
	case !vecs && out.rows == nil && out.vecs != nil:
		if out.rows, err = ex.colMaterialize(out.vecs, out.n); err != nil {
			return boxOut{}, err
		}
	default:
		return out, nil
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	// A form a concurrent conversion kept first wins; the contents are
	// identical.
	if e.out.rows != nil {
		out.rows = e.out.rows
	}
	if e.out.vecs != nil {
		out.vecs = e.out.vecs
	}
	e.out = out
	return out, nil
}

// cseFirst computes the claimed first evaluation of shared box b and
// publishes it through e. A failure is shared with this Run's concurrent
// askers only: a later evaluation claims the box afresh.
func (ex *Exec) cseFirst(b *qgm.Box, e *cseEntry, eval func() (boxOut, error)) (out boxOut, err error) {
	defer func() {
		if e.panic = recover(); e.panic != nil || err != nil {
			ex.mu.Lock()
			delete(ex.cse, b)
			ex.mu.Unlock()
		}
		close(e.done)
		if e.panic != nil {
			panic(e.panic)
		}
	}()
	out, err = ex.cseCompute(b, eval)
	e.out, e.err = out, err
	return out, err
}

// cseCompute evaluates shared box b — a box evaluation like any other —
// and charges the result against the byte budget: every compute, first or
// recompute, as the recompute policy holds each copy.
func (ex *Exec) cseCompute(b *qgm.Box, eval func() (boxOut, error)) (boxOut, error) {
	if err := ex.enterBox(); err != nil {
		return boxOut{}, err
	}
	out, err := ex.observed(b, eval)
	if err != nil || ex.gov == nil || ex.gov.maxBytes == 0 {
		return out, err
	}
	n := rowsBytes(out.rows)
	if out.vecs != nil {
		n = colBytes(out.vecs, ex.identity(out.n))
	}
	if err := ex.gov.addBytes(n); err != nil {
		return boxOut{}, err
	}
	return out, nil
}

// scanBase is the one base-table read: the table lookup (a table without
// storage is an error), the Table.Scan fault point, RowsScanned and the
// intermediate-row charge, and the box's profile line (untimed: a scan
// hands back the stored rows).
func (ex *Exec) scanBase(b *qgm.Box) (*storage.Table, []storage.Row, error) {
	t := ex.db.Table(b.Table.Name)
	if t == nil {
		return nil, nil, fmt.Errorf("exec: table %q has no storage", b.Table.Name)
	}
	rows, err := t.Scan()
	if err != nil {
		return nil, nil, err
	}
	bump(&ex.Stats.RowsScanned, int64(len(rows)))
	if err := ex.govRows(len(rows)); err != nil {
		return nil, nil, err
	}
	ex.recordProfile(b, len(rows), 0)
	return t, rows, nil
}

func (ex *Exec) dispatch(b *qgm.Box, env *Env) ([]storage.Row, error) {
	switch b.Kind {
	case qgm.BoxBase:
		_, rows, err := ex.scanBase(b)
		return rows, err
	case qgm.BoxSelect:
		if ex.Columnar(b) {
			return ex.colEvalSelect(b, env)
		}
		return ex.evalSelect(b, env)
	case qgm.BoxGroup:
		if ex.colGrp[b] {
			return ex.colEvalGroup(b, env)
		}
		return ex.evalGroup(b, env)
	case qgm.BoxUnion:
		return ex.evalUnion(b, env)
	case qgm.BoxLeftJoin:
		return ex.evalLeftJoin(b, env)
	case qgm.BoxIntersect, qgm.BoxExcept:
		return ex.evalSetDiff(b, env)
	}
	return nil, fmt.Errorf("exec: unknown box kind %v", b.Kind)
}

// evalSetDiff evaluates INTERSECT/EXCEPT with SQL multiset semantics:
// INTERSECT ALL keeps min(countL, countR) copies, EXCEPT ALL keeps
// max(0, countL - countR); the DISTINCT variants keep at most one copy of
// each qualifying row. Both inputs evaluate in parallel; the count/emit
// pass is sequential because each decision depends on how many copies
// earlier (left-order) rows already emitted.
func (ex *Exec) evalSetDiff(b *qgm.Box, env *Env) ([]storage.Row, error) {
	ins, err := parallelChunks(ex, 2, 1, func(lo, _ int) ([]storage.Row, error) {
		return ex.evalBox(b.Quants[lo].Input, env)
	})
	if err != nil {
		return nil, err
	}
	left, right := ins[0], ins[1]
	rowKey := func(r storage.Row) (string, error) { return sqltypes.Key(r), nil }
	rKeys, err := parallelMap(ex, right, rowMorsel, rowKey)
	if err != nil {
		return nil, err
	}
	lKeys, err := parallelMap(ex, left, rowMorsel, rowKey)
	if err != nil {
		return nil, err
	}
	rCount := make(map[string]int, len(right))
	for _, k := range rKeys {
		rCount[k]++
	}
	emitted := map[string]int{}
	var out []storage.Row
	for i, l := range left {
		k := lKeys[i]
		n := emitted[k]
		var keep bool
		if b.Kind == qgm.BoxIntersect {
			if b.Distinct {
				keep = n == 0 && rCount[k] > 0
			} else {
				keep = n < rCount[k]
			}
		} else { // BoxExcept
			if b.Distinct {
				keep = n == 0 && rCount[k] == 0
			} else {
				keep = n >= rCount[k]
			}
		}
		emitted[k] = n + 1
		if keep {
			out = append(out, l)
		}
	}
	return out, nil
}

// evalUnion evaluates every branch in parallel and concatenates the
// results in declared branch order, so UNION ALL output — and the
// first-occurrence order dedupeRows preserves for UNION DISTINCT — is the
// same at any worker count.
func (ex *Exec) evalUnion(b *qgm.Box, env *Env) ([]storage.Row, error) {
	branches, err := parallelChunks(ex, len(b.Quants), 1, func(lo, _ int) ([]storage.Row, error) {
		return ex.evalBox(b.Quants[lo].Input, env)
	})
	if err != nil {
		return nil, err
	}
	out := concat(branches)
	if b.Distinct {
		out = dedupeRows(out)
	}
	return out, nil
}

func dedupeRows(rows []storage.Row) []storage.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	var buf []byte
	for _, r := range rows {
		buf = sqltypes.AppendKey(buf[:0], r...)
		if !seen[string(buf)] { // no-alloc map lookup
			seen[string(buf)] = true
			out = append(out, r)
		}
	}
	return out
}

// groupState is one group's accumulation state during evalGroup.
type groupState struct {
	rep  *Env // representative binding for group expressions
	accs []aggAcc
}

func (ex *Exec) evalGroup(b *qgm.Box, env *Env) ([]storage.Row, error) {
	qg := b.Quants[0]
	input, err := ex.evalBox(qg.Input, env)
	if err != nil {
		return nil, err
	}
	aggs, aggIndex := collectAggs(b)
	groups, order, err := ex.groupBySequentialFold(b, qg, aggs, input, env)
	if err != nil {
		return nil, err
	}
	if len(input) == 0 && len(b.GroupBy) == 0 {
		// Ungrouped aggregate over empty input yields exactly one row:
		// COUNT 0, other aggregates NULL. (The rewrites' COUNT-bug
		// handling exists precisely because grouped plans lose this row.)
		gs := &groupState{rep: Bind(env, qg, nullRow(len(qg.Input.Cols))), accs: make([]aggAcc, len(aggs))}
		for i, a := range aggs {
			gs.accs[i] = newAggAcc(a)
		}
		groups[""] = gs
		order = append(order, "")
	}
	return ex.emitGroupRows(b, groups, order, aggs, aggIndex)
}

// groupKeyVals evaluates the grouping key of one input row.
func (ex *Exec) groupKeyVals(b *qgm.Box, renv *Env) (string, error) {
	keyVals := make([]sqltypes.Value, len(b.GroupBy))
	for i, ge := range b.GroupBy {
		v, err := ex.EvalExpr(ge, renv)
		if err != nil {
			return "", err
		}
		keyVals[i] = v
	}
	return sqltypes.Key(keyVals), nil
}

// groupBySequentialFold is the row engine's one GROUP BY algorithm — the
// columnar engine's too (colgroup.go): the per-row expression work (key and
// aggregate arguments) runs in parallel, and the accumulators fold
// sequentially in input row order, so SUM/AVG float accumulation order —
// and with it the result, to the last ulp — is the same at every worker
// count and in both engines.
func (ex *Exec) groupBySequentialFold(b *qgm.Box, qg *qgm.Quantifier, aggs []*qgm.Agg, input []storage.Row, env *Env) (map[string]*groupState, []string, error) {
	type rowEval struct {
		key  string
		renv *Env
		args []sqltypes.Value
	}
	evals, err := parallelMap(ex, input, rowMorsel, func(row storage.Row) (rowEval, error) {
		renv := Bind(env, qg, row)
		k, err := ex.groupKeyVals(b, renv)
		if err != nil {
			return rowEval{}, err
		}
		args := make([]sqltypes.Value, len(aggs))
		for i, a := range aggs {
			if a.Op != qgm.AggCountStar {
				v, err := ex.EvalExpr(a.Arg, renv)
				if err != nil {
					return rowEval{}, err
				}
				args[i] = v
			}
		}
		return rowEval{key: k, renv: renv, args: args}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	groups := map[string]*groupState{}
	var order []string
	for _, re := range evals {
		gs := groups[re.key]
		if gs == nil {
			gs = &groupState{rep: re.renv, accs: make([]aggAcc, len(aggs))}
			for i, a := range aggs {
				gs.accs[i] = newAggAcc(a)
			}
			groups[re.key] = gs
			order = append(order, re.key)
		}
		for i := range aggs {
			gs.accs[i].add(re.args[i])
		}
	}
	return groups, order, nil
}

// evalWithAggs evaluates a group-box output expression, substituting
// finished aggregate values for Agg nodes and using the group's
// representative row for grouping-column references.
func (ex *Exec) evalWithAggs(e qgm.Expr, rep *Env, aggs []*qgm.Agg, aggIndex map[*qgm.Agg]int, accs []aggAcc) (sqltypes.Value, error) {
	if a, ok := e.(*qgm.Agg); ok {
		return accs[aggIndex[a]].result(), nil
	}
	switch x := e.(type) {
	case *qgm.Bin:
		if x.Op == qgm.OpAdd || x.Op == qgm.OpSub || x.Op == qgm.OpMul || x.Op == qgm.OpDiv {
			l, err := ex.evalWithAggs(x.L, rep, aggs, aggIndex, accs)
			if err != nil {
				return sqltypes.Null, err
			}
			r, err := ex.evalWithAggs(x.R, rep, aggs, aggIndex, accs)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.Arith(arithOf(x.Op), l, r)
		}
	case *qgm.Func:
		args := make([]sqltypes.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := ex.evalWithAggs(a, rep, aggs, aggIndex, accs)
			if err != nil {
				return sqltypes.Null, err
			}
			args[i] = v
		}
		if x.Name == "coalesce" {
			return sqltypes.Coalesce(args...), nil
		}
	}
	return ex.EvalExpr(e, rep)
}

func nullRow(width int) storage.Row {
	r := make(storage.Row, width)
	for i := range r {
		r[i] = sqltypes.Null
	}
	return r
}

func (ex *Exec) evalLeftJoin(b *qgm.Box, env *Env) ([]storage.Row, error) {
	ql, qr := b.Quants[0], b.Quants[1]
	ins, err := parallelChunks(ex, 2, 1, func(lo, _ int) ([]storage.Row, error) {
		return ex.evalBox(b.Quants[lo].Input, env)
	})
	if err != nil {
		return nil, err
	}
	left, right := ins[0], ins[1]
	lKeys, rKeys, nullSafe, residual := qgm.LojKeys(b)
	nullRight := nullRow(len(qr.Input.Cols))
	var rHash map[string][]storage.Row
	if len(lKeys) > 0 {
		rHash, err = ex.rowHash(right, func(i int) (string, bool, error) {
			return ex.keyFor(rKeys, nullSafe, Bind(env, qr, right[i]))
		})
		if err != nil {
			return nil, err
		}
	}
	// Probe: each morsel of left rows emits into its own slot; slots
	// concatenate in morsel order, preserving the left-to-right row order
	// of the single-threaded join.
	chunks, err := parallelChunks(ex, len(left), rowMorsel, func(lo, hi int) ([]storage.Row, error) {
		var out []storage.Row
		emit := func(lenv *Env, rrow storage.Row) error {
			full := Bind(lenv, qr, rrow)
			row := make(storage.Row, len(b.Cols))
			for i, c := range b.Cols {
				v, err := ex.EvalExpr(c.Expr, full)
				if err != nil {
					return err
				}
				row[i] = v
			}
			out = append(out, row)
			return nil
		}
		for _, lr := range left[lo:hi] {
			lenv := Bind(env, ql, lr)
			matched := false
			candidates := right
			if rHash != nil {
				key, null, err := ex.keyFor(lKeys, nullSafe, lenv)
				if err != nil {
					return nil, err
				}
				candidates = rHash[key]
				if null { // matches nothing: the left row null-extends
					candidates = nil
				}
			}
			for _, rr := range candidates {
				renv := Bind(lenv, qr, rr)
				ok := sqltypes.True
				for _, p := range residual {
					t, err := ex.EvalPred(p, renv)
					if err != nil {
						return nil, err
					}
					ok = ok.And(t)
					if ok != sqltypes.True {
						break
					}
				}
				if ok == sqltypes.True {
					matched = true
					if err := emit(lenv, rr); err != nil {
						return nil, err
					}
				}
			}
			if !matched {
				if err := emit(lenv, nullRight); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := concat(chunks)
	bump(&ex.Stats.RowsJoined, int64(len(out)))
	if err := ex.govRows(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// buildKey is one build row's hash key; skip marks a NULL component that no
// equality matches (one a null-safe key files as a value instead).
type buildKey struct {
	key  string
	skip bool
}

// rowHash is the row engine's one hash-table build, shared by the inner
// join, the left outer join, the EXISTS/IN semi-join and the batched
// subquery partition: build[i] filed under key(i), rows whose key says
// skip (a NULL component of a key that is not null-safe) left out. The
// gate and the HashBuilds count come first; keys evaluate in parallel;
// the table fills sequentially in row order, so every bucket chain — and
// with it whatever a probe emits — is the same at every worker count.
// What a probe emits is the caller's.
func (ex *Exec) rowHash(build []storage.Row, key func(i int) (string, bool, error)) (map[string][]storage.Row, error) {
	if err := ex.hashBuildCheck(build); err != nil {
		return nil, err
	}
	bump(&ex.Stats.HashBuilds, 1)
	keys := make([]buildKey, len(build))
	_, err := parallelChunks(ex, len(build), rowMorsel, func(lo, hi int) (struct{}, error) {
		for i := lo; i < hi; i++ {
			k, null, err := key(i)
			if err != nil {
				return struct{}{}, err
			}
			keys[i] = buildKey{key: k, skip: null}
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	h := make(map[string][]storage.Row, len(build))
	for i, bk := range keys {
		if !bk.skip {
			h[bk.key] = append(h[bk.key], build[i])
		}
	}
	return h, nil
}

// hashBuildCheck gates every hash-table build: the fault-injection
// hash-build point fires first, then the build side is charged against the
// byte budget — a hash join's dominant allocation is its build table.
func (ex *Exec) hashBuildCheck(build []storage.Row) error {
	if err := faultinject.Check(faultinject.HashBuild); err != nil {
		return err
	}
	return ex.govBytes(build)
}
