package engine

import (
	"fmt"
	"strings"

	"decorr/internal/classic"
	"decorr/internal/core"
	"decorr/internal/exec"
	"decorr/internal/trace"
)

// Strategy selects how (whether) a correlated query is decorrelated before
// execution — the five algorithms of the paper's §5.1 plus the
// runtime-batched nested-iteration baseline.
type Strategy int

// The integer values are part of the plan-cache key; append, never reorder.
const (
	// NI executes the query as written: correlated subqueries are invoked
	// per outer tuple (System R nested iteration).
	NI Strategy = iota
	// Value 1 is reserved (NIMemo, folded into NIBatch): it names no
	// strategy, and no later strategy may reuse it.
	_
	// Kim applies Kim's method [Kim82]. It faithfully reproduces the
	// historical COUNT bug.
	Kim
	// Dayal applies Dayal's method [Day87]: merge via left outer join,
	// group by a key of the outer relations.
	Dayal
	// GanskiWong applies the Ganski/Wong method [GW87], the single-table
	// special case of magic decorrelation.
	GanskiWong
	// Magic applies magic decorrelation (the paper's algorithm).
	Magic
	// OptMagic is magic decorrelation with the supplementary-table
	// common-subexpression elimination (OptMag in §5.1).
	OptMagic
	// Auto is §7's plan choice ("the better of the two optimized plans is
	// chosen") as a race over the table rows marked auto: the query as
	// bound under per-tuple and under batched nested iteration, and magic
	// decorrelated with supplementary-table elimination. Each is costed by
	// exec.EstimateCost under its own reuse policy; the cheapest runs, and
	// Prepared.Alternatives records the race. See prepareAuto.
	Auto
	// NIBatch is nested iteration with runtime subquery batching: the
	// graph runs as bound (no rewrite), but correlated subqueries
	// evaluate set-at-a-time over the distinct outer bindings — once per
	// distinct binding in general, exactly once as a decorrelated
	// partition/probe when the correlation is root-level equalities only
	// and there are two or more bindings. A subquery correlated only to an
	// enclosing box caches each binding's rows across that box's
	// evaluations. Rows, ordering, and typed errors are identical to NI;
	// the fan-out collapse shows up in Stats.BatchExecutions and
	// Stats.MemoHits. Appended after Auto so existing strategy
	// fingerprints (plan-cache keys, wire codes) keep their values.
	NIBatch
)

// strategyRow is everything the system knows about one strategy.
type strategyRow struct {
	id Strategy
	// name is the spelling clients type: the -strategy flag, the REPL's
	// \strategy, the DSN and handshake option.
	name string
	// label names the strategy as in the paper's figures. It is also the
	// exec.strategy.* histogram suffix and the sys.query_log value.
	label string
	// rewrite transforms the bound, cleaned-up graph in place; nil runs the
	// graph as bound (the nested-iteration family, and Auto, which picks
	// another row's plan).
	rewrite func(e *Engine, p *Prepared) error
	// reuse is the executor's correlated-subquery policy for the plan.
	reuse exec.Reuse
	// auto enters the row in the Auto strategy's race. The first such row
	// must run the graph as bound: it is the plan a statement with nothing
	// to decorrelate gets.
	auto bool
}

// strategyTable is the one place a strategy is declared, in presentation
// order. String, Name, ParseStrategy, Strategies, the per-strategy
// histograms, the rewrite dispatch and the executor mode all derive from
// it, as do the vocabularies of cmd/decorr, cmd/decorrd, the server
// handshake and the differential harness. Adding a strategy is one row here
// plus its constant above (and a re-export in the root api.go).
var strategyTable = []strategyRow{
	{NI, "ni", "NI", nil, exec.ReuseNone, true},
	{NIBatch, "nibatch", "NIBatch", nil, exec.ReuseBatch, true},
	{Kim, "kim", "Kim", func(_ *Engine, p *Prepared) error { return classic.ApplyKim(p.Graph) }, exec.ReuseNone, false},
	{Dayal, "dayal", "Dayal", func(_ *Engine, p *Prepared) error { return classic.ApplyDayal(p.Graph) }, exec.ReuseNone, false},
	{GanskiWong, "gw", "GW", func(e *Engine, p *Prepared) error { return classic.ApplyGanskiWong(p.Graph, e.orderer()) }, exec.ReuseNone, false},
	{Magic, "magic", "Mag", magicRewrite(false), exec.ReuseNone, false},
	{OptMagic, "optmagic", "OptMag", magicRewrite(true), exec.ReuseNone, true},
	{Auto, "auto", "Auto", nil, exec.ReuseNone, false},
}

// magicRewrite is magic decorrelation under the engine's §4.4 knobs. The
// strategy, not CoreOpts, owns supplementary-table elimination: it is the
// whole difference between Mag and OptMag.
func magicRewrite(eliminateSupplementary bool) func(*Engine, *Prepared) error {
	return func(e *Engine, p *Prepared) error {
		opts := e.CoreOpts
		opts.EliminateSupplementary = eliminateSupplementary
		opts.Order = e.orderer()
		opts.Tracer = e.Tracer
		return core.Decorrelate(p.Graph, opts, p.Trace)
	}
}

// row finds s in the table; nil for a value that names no strategy.
func (s Strategy) row() *strategyRow {
	for i := range strategyTable {
		if strategyTable[i].id == s {
			return &strategyTable[i]
		}
	}
	return nil
}

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	if r := s.row(); r != nil {
		return r.label
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Name is the lower-case spelling ParseStrategy accepts: what a user types
// after -strategy, \strategy, or strategy= in a DSN.
func (s Strategy) Name() string {
	if r := s.row(); r != nil {
		return r.name
	}
	return ""
}

// ParseStrategy resolves a Name, case-insensitively.
func ParseStrategy(name string) (Strategy, bool) {
	for i := range strategyTable {
		if strings.EqualFold(name, strategyTable[i].name) {
			return strategyTable[i].id, true
		}
	}
	return 0, false
}

// Strategies lists all strategies in presentation order; strategyHists
// holds their execution latency histograms (nanoseconds), resolved once so
// the hot path pays one atomic add per observation instead of a registry
// lookup.
var (
	Strategies    []Strategy
	strategyHists = map[Strategy]*trace.Histogram{}
)

func init() {
	for _, r := range strategyTable {
		Strategies = append(Strategies, r.id)
		strategyHists[r.id] = trace.Metrics.Histogram("exec.strategy." + r.label)
	}
}

// StrategyNames renders the accepted vocabulary joined by sep, for usage
// and help text.
func StrategyNames(sep string) string {
	names := make([]string, len(strategyTable))
	for i := range strategyTable {
		names[i] = strategyTable[i].name
	}
	return strings.Join(names, sep)
}
