package exec

import (
	"math"

	"decorr/internal/qgm"
)

// EstimateCost returns an abstract cost for one evaluation of the graph,
// in columnar row operations (one row scanned, probed, joined or grouped
// by the vectorized engine). It powers the paper's §7 plan choice: "our
// implementation simply optimizes the query once without decorrelation,
// and ... repeats the optimization with decorrelation. The better of the
// two optimized plans is chosen."
//
// The model prices what the executor will actually do, read from the same
// per-box selectPlan steps the evaluators run: its join order, each step's
// index probe, hash keys or cross product, which engine evaluates the box
// (selectPlan.col), a start-up charge per box evaluation, re-evaluation of
// correlated subquery inputs as often as reuse policy r asks, and
// recomputation of shared uncorrelated boxes (unless materializeCSE).
func (p *Plan) EstimateCost(r Reuse, materializeCSE bool) float64 {
	return p.walkCost(r, materializeCSE, rowPathFactor, boxStartup)
}

// EstimateCost is the Plan's EstimateCost of g under the executor's own
// reuse and CSE policies.
func (ex *Exec) EstimateCost(g *qgm.Graph) float64 {
	return ex.planFor(g).EstimateCost(ex.opts.Reuse, ex.opts.MaterializeCSE)
}

// EstimateWork is the model's unpriced half: the row operations and box
// evaluations it expects of one run under reuse policy r — what
// Stats.Work() and Stats.BoxEvals come to if its cardinalities hold. The
// cost audit holds the two side by side.
func (p *Plan) EstimateWork(r Reuse, materializeCSE bool) (rowOps, boxEvals float64) {
	rowOps = p.walkCost(r, materializeCSE, 1, 0)
	return rowOps, p.walkCost(r, materializeCSE, 1, 1) - rowOps
}

// walkCost is one costWalk over the plan at the given prices.
func (p *Plan) walkCost(r Reuse, materializeCSE bool, rowFactor, startup float64) float64 {
	w := costWalk{p: p, reuse: r, cse: materializeCSE, rowFactor: rowFactor, startup: startup, memo: map[*qgm.Box]float64{}}
	return w.box(p.g.Root)
}

// The model's two prices, in columnar row operations. Both are measured by
// TestCostAudit's calibration printout (`make cost-audit AUDIT_SF=1`: TPCD
// SF=1, seed 42, one worker, best of 9 runs; the figures below are the
// range over three such printouts on the 2.1 GHz reference VM, and
// EXPERIMENTS.md "§7 plan choice" reproduces them). The choices pinned in
// internal/engine/auto_test.go hold for any rowPathFactor in 4–5 and any
// boxStartup in 30–200 (at 15, Query2 and Query3 at SF=1 flip to
// NIBatch): the constants set the scale of an estimate, the cardinalities
// decide a race.
const (
	// rowPathFactor is how much more one row operation costs in the row
	// interpreter than in the vectorized engine: a select box the columnar
	// engine declines (selectPlan.col false — RowMode, a synthetic table or
	// an expression colExprOK rejects; see colSelectable) pays it on its
	// own scan, join and projection terms. A box that owns a subquery,
	// scalar or lateral quantifier no longer pays it: its outer joins run
	// columnar and only the nested step goes through the row binders.
	//
	// Measured on the four decorrelated plans, every box of which is
	// columnar-eligible, with Engine.RowMode on ÷ off: Query1 4.7 ms / 0.47
	// ms to 5.8 / 0.98 (x5.9–x10.1), Query1b 120 / 23 to 125 / 15 ms
	// (x5.2–x8.2), Query2 17 / 7.6 to 27 / 7.3 ms (x2.2–x3.6), Query3 6.1 /
	// 1.8 to 8.0 / 1.8 ms (x3.3–x4.5); the median of the four is x4.9, x5.2
	// and x5.9 in the three printouts (x3.9 at SF=0.1).
	rowPathFactor = 5.0

	// boxStartup is the fixed cost of evaluating one non-base box once:
	// the governance checkpoint, plan walk, state and batch allocation and
	// result materialization that do not scale with rows. An uncorrelated
	// box pays it once; every box of a correlated subtree pays it per
	// invocation, which is what makes fan-out expensive even when each
	// invocation probes one index bucket.
	//
	// Measured as nested iteration's time beyond its outer block and
	// beyond the rows it touches, per box evaluation: Query1b under NI
	// re-enters its 2-box subquery 6567 times — (88–92 ms, less 27–36 ms
	// for the outer block alone, less 80 297 row operations) / 13 134
	// evaluations = 3.7–4.3 us; Query2 its 3-box subquery 210 times —
	// (5.4–7.1 ms less 1.3–1.5 ms less 7889 row operations) / 632 =
	// 5.2–8.1 us. One columnar row operation is 75–99 ns (the four
	// decorrelated plans: 25–33 ms for 334 959 row operations), so a box
	// evaluation is worth 37–58 of them on Query1b and 53–108 on Query2.
	// The outer block subtracted there ran on the row path, as nested
	// iteration's outer block then did. It runs columnar now, and so does
	// the calibration's subtrahend; two printouts re-derive Query1b
	// (43–49 ms less 3.6–5.4 ms less 80 297 row operations) / 13 134 =
	// 2.4–3.0 us, or 29–37 row operations of 80–82 ns, and Query2
	// (2.4–2.9 ms less 1.1–1.5 ms less 7889) / 632 = 1.1–1.2 us, or 13–15.
	// The constant stays at 100, inside the range the pinned choices hold
	// for; ROADMAP item 15 calibrates it against the executor's unit.
	boxStartup = 100.0
)

// costWalk is one pricing pass over a graph under one reuse policy and one
// price list (rowPathFactor and boxStartup, or EstimateWork's unit prices).
type costWalk struct {
	p                  *Plan
	reuse              Reuse
	cse                bool // MaterializeCSE
	rowFactor, startup float64
	memo               map[*qgm.Box]float64
}

// box prices one evaluation of b including its inputs.
func (w *costWalk) box(b *qgm.Box) float64 {
	p := w.p
	if c, ok := w.memo[b]; ok {
		if w.cse && !p.isCorrelated(b) {
			// A later reference reads the materialized rows.
			return p.estBoxRows(b)
		}
		// Shared boxes are recomputed per reference (Starburst, §5.1):
		// each referencing quantifier pays the full price again.
		return c
	}
	w.memo[b] = 0 // cycle guard
	var c float64
	switch b.Kind {
	case qgm.BoxBase:
		c = p.estBoxRows(b)
	case qgm.BoxSelect:
		c = w.startup + w.selectBox(b)
	case qgm.BoxGroup:
		in := b.Quants[0].Input
		c = w.startup + w.box(in) + p.estBoxRows(in)
	case qgm.BoxUnion, qgm.BoxIntersect, qgm.BoxExcept:
		c = w.startup
		for _, q := range b.Quants {
			c += w.box(q.Input) + p.estBoxRows(q.Input)
		}
	case qgm.BoxLeftJoin:
		ql, qr := b.Quants[0], b.Quants[1]
		l, r := p.estBoxRows(ql.Input), p.estBoxRows(qr.Input)
		pairs := l * r // no equality to hash on: every left row meets every right row
		if keys, _, _, _ := qgm.LojKeys(b); len(keys) > 0 {
			pairs = l + r
		}
		c = w.startup + w.box(ql.Input) + w.box(qr.Input) + pairs
	}
	w.memo[b] = c
	return c
}

// invocations estimates how many times q's correlated input runs for card
// outer tuples: once per tuple under nested iteration, once per distinct
// binding under ReuseBatch.
func (w *costWalk) invocations(q *qgm.Quantifier, plan *selectPlan, card float64) float64 {
	if w.reuse == ReuseNone {
		return card
	}
	// Distinct bindings: per sibling the subquery reads, the product of
	// its correlation columns' distinct counts, at most one per row that
	// survives the sibling's local predicates; over all siblings, at most
	// one per outer tuple.
	distinct := 1.0
	for _, s := range q.Owner.Quants { // declared order: the product must not depend on map iteration
		if !plan.sibs[q][s] {
			continue
		}
		ndv := 1.0
		for _, rk := range w.p.freeRefs[q.Input] {
			if rk.Q == s {
				ndv *= w.p.estNDV(&qgm.ColRef{Q: rk.Q, Col: rk.Col})
			}
		}
		distinct *= math.Min(ndv, math.Max(plan.step(s).local, 1))
	}
	return math.Min(card, distinct)
}

// selectBox prices the box's steps — the order, the access paths and the
// predicates the evaluators will use — accumulating access and join costs,
// charging correlated inputs once per estimated invocation. The box's own
// row operations are priced for the engine that will run it; its inputs
// carry their own price.
func (w *costWalk) selectBox(b *qgm.Box) float64 {
	p := w.p
	plan := p.plans[b]
	card := 1.0
	own, inputs := 0.0, 0.0
	for i := range plan.steps {
		s := &plan.steps[i]
		q := s.Q
		inputCost := w.box(q.Input)
		switch {
		case q.Kind == qgm.QScalar || q.Kind.IsSubquery():
			if s.Correlated {
				inputs += w.invocations(q, plan, card) * inputCost
			} else {
				inputs += inputCost // materialized once
			}
			own += card // probed per tuple
			if q.Kind.IsSubquery() {
				card *= 0.5 // existential filters keep some tuples
			}
		case s.Correlated: // lateral derived table
			inputs += w.invocations(q, plan, card) * inputCost
			card *= math.Max(p.estBoxRows(q.Input), 0.1)
		default:
			// An index probe visits only the matching rows; a scan pays
			// for the input, and with no keys to hash on either the step
			// builds the cross product and filters it.
			pairs := card * math.Max(s.Growth, 1)
			if s.index == nil {
				if q.Input.Kind == qgm.BoxBase {
					own += inputCost // scan
				} else {
					inputs += inputCost
				}
				if len(s.QKeys) == 0 {
					pairs = card * math.Max(s.local, 1)
				}
			}
			own += pairs
			card = math.Max(card*s.Growth, 1)
		}
	}
	own += card
	if !plan.col {
		own *= w.rowFactor
	}
	return inputs + own
}
