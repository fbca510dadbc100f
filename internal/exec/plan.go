package exec

import (
	"os"

	"decorr/internal/qgm"
	"decorr/internal/storage"
	"decorr/internal/trace"
)

// plansBuilt counts NewPlan calls: a prepared statement's executions build
// none.
var plansBuilt = trace.Metrics.Counter("exec.plans")

// Plan is one graph's physical plan over one database: everything the
// executor decides before it sees a row. NewPlan builds it once — each
// box's free references, volatility, reference count and cardinality
// estimate, every select box's steps, the group boxes the vectorized
// engine runs, the nested-iteration fan-out and each batched subquery
// site's stripped walk — and nothing writes to it afterwards, so any
// number of executions, concurrent ones included, share it (Executor). The
// cost model prices the same Plan (EstimateCost), which is how the plan
// that runs is the plan that was priced.
//
// A Plan holds no rows. Its index steps name a table and a column and
// probe whatever index the table has when they run: an index dropped
// after planning fails the probe with an error, and one created after
// planning goes unused — index DDL needs a fresh plan.
type Plan struct {
	estimator
	g *qgm.Graph
	// colOK enables the vectorized engine; a select box's plan and colGrp
	// mark the boxes it evaluates.
	colOK bool

	// freeRefs holds each box's correlated references, deduplicated and
	// sorted: what a binding of the box is keyed by.
	freeRefs map[*qgm.Box][]qgm.RefKey
	refs     map[*qgm.Box]int
	// volatileBox marks boxes whose subtree reads a synthetic (sys.*) or
	// storageless relation; their results are never shared across
	// bindings.
	volatileBox map[*qgm.Box]bool
	// plans holds one selectPlan per select box, shared by every worker
	// and every nested-iteration re-entry.
	plans  map[*qgm.Box]*selectPlan
	colGrp map[*qgm.Box]bool
	fanOut int
	// batch holds, per quantifier whose correlated input NIBatch can run
	// once for all its bindings, that single execution's plan.
	batch map[*qgm.Quantifier]*batchSite
}

// batchSite is the single-execution path's plan for one correlated input:
// the root equalities that carry the correlation (stripped from the root,
// then probed per binding) and the stripped root's walk, with those
// predicates consumed up front so they drive no index or hash-join
// placement — the set-oriented execution deliberately trades those
// per-binding access paths for one shared pass. The binding order is the
// box's own, computed from all of its predicates.
type batchSite struct {
	sig  *qgm.BatchSignature
	walk selWalk
}

// NewPlan plans g over db: the one place the executor's decisions are
// made. rowMode — or a non-empty DECORR_ROWMODE — keeps every box on the
// row interpreter. Estimates come first, so every select box is ordered
// and walked with the whole graph's cardinalities known, and the
// estimate memo is complete before anything reads it.
func NewPlan(db *storage.DB, g *qgm.Graph, rowMode bool) *Plan {
	plansBuilt.Inc()
	boxes := qgm.Boxes(g.Root)
	p := &Plan{
		estimator:   estimator{db: db, est: make(map[*qgm.Box]float64, len(boxes))},
		g:           g,
		colOK:       !rowMode && os.Getenv("DECORR_ROWMODE") == "",
		freeRefs:    qgm.FreeRefSets(g.Root),
		refs:        qgm.RefCounts(g.Root),
		volatileBox: make(map[*qgm.Box]bool, len(boxes)),
		plans:       map[*qgm.Box]*selectPlan{},
		colGrp:      map[*qgm.Box]bool{},
		batch:       map[*qgm.Quantifier]*batchSite{},
	}
	for _, b := range boxes {
		computeVolatile(db, b, p.volatileBox)
		p.estBoxRows(b)
	}
	for _, b := range boxes {
		switch {
		case b.Kind == qgm.BoxSelect:
			p.plans[b] = p.buildSelectPlan(b)
		case b.Kind == qgm.BoxGroup && p.colOK && colGroupable(b):
			p.colGrp[b] = true
		}
	}
	for _, b := range boxes {
		if plan := p.plans[b]; plan != nil {
			for _, q := range b.Quants {
				if plan.correlated(q) {
					p.fanOut++
				}
				p.planBatchSite(q)
			}
		}
	}
	return p
}

// planBatchSite plans NIBatch's single execution of q's input, when its
// correlation enters only through root-level equalities over the
// quantifiers of q's own box (qgm.ExtractBatchSignature). References to
// quantifiers of ancestor boxes are run-constant there (the environment
// binds them once) and do not vary across the outer tuple stream.
func (p *Plan) planBatchSite(q *qgm.Quantifier) {
	b := q.Input
	if p.volatileBox[b] || !p.isCorrelated(b) {
		return
	}
	varying := map[*qgm.Quantifier]bool{}
	for _, rk := range p.freeRefs[b] {
		if rk.Q.Owner == q.Owner && !rk.Q.Kind.IsSubquery() {
			varying[rk.Q] = true
		}
	}
	if sig, ok := qgm.ExtractBatchSignature(b, varying); ok {
		p.batch[q] = &batchSite{sig: sig, walk: p.walkPlan(b, p.plans[b], sig.Skip)}
	}
}

// Executor returns one execution of p: fresh run state, p shared.
func (p *Plan) Executor(opts Options) *Exec {
	ex := New(p.db, opts)
	ex.plan = p
	return ex
}

// isCorrelated reports whether box b has free references (i.e. needs outer
// bindings to evaluate).
func (p *Plan) isCorrelated(b *qgm.Box) bool { return len(p.freeRefs[b]) > 0 }

// Columnar reports whether the plan runs select box b on the vectorized
// engine.
func (p *Plan) Columnar(b *qgm.Box) bool {
	sp := p.plans[b]
	return sp != nil && sp.col
}

// Steps returns select box b's join steps in binding order. They are the
// plan's own, shared with every evaluation: callers must not write to
// them.
func (p *Plan) Steps(b *qgm.Box) []Step { return p.plans[b].steps }

// EstimateRows exposes the cardinality estimate of one box (used by the
// shared-nothing plan model in internal/parallel).
func (p *Plan) EstimateRows(b *qgm.Box) float64 { return p.estBoxRows(b) }

// FanOut counts the graph's nested-iteration sites: quantifiers whose
// input is correlated to siblings of their own box (subqueries and lateral
// derived tables alike; every reuse policy shares both). A graph with none
// runs the same under every nested-iteration strategy and has nothing to
// decorrelate.
func (p *Plan) FanOut() int { return p.fanOut }
