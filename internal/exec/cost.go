package exec

import (
	"math"

	"decorr/internal/qgm"
)

// EstimateCost returns an abstract cost (row operations) for one
// evaluation of the graph. It powers the paper's §7 plan choice: "our
// implementation simply optimizes the query once without decorrelation,
// and ... repeats the optimization with decorrelation. The better of the
// two optimized plans is chosen."
//
// The model prices the executor's actual access decisions, read from the
// same per-box selectPlan the evaluators run: its join order, an index
// probe where findIndexPred will take one, per-tuple re-evaluation of
// correlated subquery inputs, and recomputation of shared uncorrelated
// boxes (unless materialization is enabled).
func (ex *Exec) EstimateCost(g *qgm.Graph) float64 {
	ex.analyze(g.Root)
	return ex.EstimateBoxCost(g.Root)
}

// EstimateRows exposes the cardinality estimate of one box (used by the
// shared-nothing plan model in internal/parallel).
func (ex *Exec) EstimateRows(b *qgm.Box) float64 { return ex.estBoxRows(b) }

// EstimateBoxCost estimates the cost of evaluating one box once (plus its
// inputs). Callers evaluating a whole graph should go through
// EstimateCost, which primes the reference-count analysis.
func (ex *Exec) EstimateBoxCost(b *qgm.Box) float64 {
	ex.estMu.Lock()
	if ex.costMemo == nil {
		ex.costMemo = map[*qgm.Box]float64{}
	}
	if c, ok := ex.costMemo[b]; ok {
		ex.estMu.Unlock()
		return c
	}
	ex.costMemo[b] = 0 // cycle guard
	ex.estMu.Unlock()
	var c float64
	switch b.Kind {
	case qgm.BoxBase:
		c = ex.estBoxRows(b)
	case qgm.BoxSelect:
		c = ex.costSelect(b, ex.EstimateBoxCost)
	case qgm.BoxGroup:
		c = ex.EstimateBoxCost(b.Quants[0].Input) + ex.estBoxRows(b.Quants[0].Input)
	case qgm.BoxUnion, qgm.BoxIntersect, qgm.BoxExcept:
		for _, q := range b.Quants {
			c += ex.EstimateBoxCost(q.Input) + ex.estBoxRows(q.Input)
		}
	case qgm.BoxLeftJoin:
		l, r := b.Quants[0].Input, b.Quants[1].Input
		c = ex.EstimateBoxCost(l) + ex.EstimateBoxCost(r) + ex.estBoxRows(l) + ex.estBoxRows(r)
	}
	// Shared uncorrelated boxes are recomputed per reference unless the
	// engine materializes them.
	if refs := ex.refCount[b]; refs > 1 && !ex.isCorrelated(b) && !ex.opts.MaterializeCSE {
		c *= float64(refs)
	}
	ex.estMu.Lock()
	ex.costMemo[b] = c
	ex.estMu.Unlock()
	return c
}

// correlatedEvalOverhead is the fixed cost of re-entering a correlated
// subquery plan for one binding (plan setup, hash rebuilds) on top of the
// rows it touches. Duplicate-heavy workloads pay it per duplicate.
const correlatedEvalOverhead = 8.0

// costSelect walks the box's plan — the order, the predicates and the
// index decisions the evaluators will use — accumulating access and join
// costs, charging correlated subquery inputs once per estimated
// intermediate tuple.
func (ex *Exec) costSelect(b *qgm.Box, costBox func(*qgm.Box) float64) float64 {
	plan := ex.planOf(b)
	st := plan.newState()
	card := 1.0
	cost := 0.0
	for _, q := range plan.order {
		correlatedInput := plan.correlated(q)
		inputCost := costBox(q.Input)
		switch {
		case q.Kind == qgm.QScalar || q.Kind.IsSubquery():
			if correlatedInput {
				// Nested iteration: one evaluation per tuple, plus the
				// fixed per-invocation overhead of re-entering the
				// subquery plan.
				cost += card * (math.Max(inputCost, 1) + correlatedEvalOverhead)
			} else {
				// Materialized once, probed per tuple.
				cost += inputCost + card
			}
			if q.Kind.IsSubquery() {
				card *= 0.5 // existential filters keep some tuples
			}
		case correlatedInput: // lateral derived table
			cost += card * (math.Max(inputCost, 1) + correlatedEvalOverhead)
			card *= math.Max(ex.estBoxRows(q.Input), 0.1)
		default:
			growth := ex.estQuantGrowth(q, st)
			// Index probe beats a scan when an equality predicate on an
			// indexed base column connects q to the bound set.
			if tbl, _, _, _ := ex.findIndexPred(q, st); tbl == nil {
				cost += inputCost // materialize / scan
			}
			cost += card * math.Max(growth, 1)
			card = math.Max(card*growth, 1)
		}
		st.bind(q)
	}
	return cost + card
}
