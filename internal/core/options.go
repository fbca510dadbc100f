// Package core implements magic decorrelation — the paper's contribution —
// as a rewrite rule over the Query Graph Model, driven to a fixpoint by
// rewrite.Engine. One firing feeds one correlated quantifier of a SELECT
// box, the first in top-down box order: the FEED stage (collecting the
// computation ahead of the subquery into a supplementary table, projecting
// the distinct correlation bindings into a magic table), then the ABSORB
// stage inside the child (pushing the magic table down through GROUP BY and
// UNION boxes to the SPJ boxes that hold the correlated predicates). The
// engine validates the graph after every firing. COUNT-bug compensation
// introduces a left outer join with COALESCE, exactly as in §2.1/§4.3.
//
// The implementation fuses the paper's CI-box merge (performed in
// Starburst by pre-existing rewrite rules) into the FEED stage: the
// correlated predicate that would live in a Correlated Input box is
// emitted directly as an equi-join predicate in the parent. The DCO box
// similarly disappears once the child absorbs the magic table; the
// intermediate states are still observable through the Trace.
package core

import (
	"decorr/internal/qgm"
	"decorr/internal/trace"
)

// Orderer supplies the nested-iteration join order of a select box's
// quantifiers; magic decorrelation splits the supplementary table at the
// fed subquery's position in this order (§7: "the magic decorrelation
// algorithm uses the join order of the nested iteration strategy").
type Orderer func(b *qgm.Box) []*qgm.Quantifier

// Options are the paper's §4.4 knobs: which boxes accept magic tables and
// how aggressively to decorrelate.
type Options struct {
	// DecorrelateExistential feeds magic tables to EXISTS/IN/ANY/ALL
	// subqueries too. When false they stay correlated (the paper notes
	// systems without temp-table indexes may prefer that; parallel
	// systems decidedly do not).
	DecorrelateExistential bool
	// UseOuterJoin permits the COUNT-bug compensation join. When false,
	// aggregate subqueries that would need compensation are left
	// correlated (partial decorrelation).
	UseOuterJoin bool
	// EliminateSupplementary enables the OptMag optimization: when the
	// correlation attributes form a key of the supplementary table, the
	// supplementary common subexpression is eliminated (§5.1). Through the
	// engine the strategy owns this field — OptMagic sets it, Magic clears
	// it — so a value placed in Engine.CoreOpts is overwritten and is not
	// part of the plan-cache key.
	EliminateSupplementary bool
	// Order is the join-order oracle, required: the executor's JoinOrder,
	// so the supplementary table splits where nested iteration would have
	// run the subquery. The engine sets it per rewrite.
	Order Orderer
	// Tracer, when non-nil, receives one instant event per decorrelation
	// step (the same titles the Trace snapshots carry).
	Tracer *trace.Tracer
}

// DefaultOptions enables full decorrelation.
func DefaultOptions() Options {
	return Options{DecorrelateExistential: true, UseOuterJoin: true}
}

// Step is one captured rewrite stage.
type Step struct {
	Title string
	Plan  string
}

// Trace records the intermediate QGM states of the rewrite, the textual
// analogue of the paper's Figures 2–4.
type Trace struct {
	Steps []Step
}

func (f *feed) snap(title string) {
	if t := f.opts.Tracer; t != nil {
		t.Instant(title, "decorrelate",
			trace.Int("boxes", int64(len(qgm.Boxes(f.g.Root)))))
	}
	if f.tr == nil {
		return
	}
	f.tr.Steps = append(f.tr.Steps, Step{Title: title, Plan: qgm.Format(f.g)})
}
