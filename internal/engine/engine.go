// Package engine is the facade tying the stack together: SQL text is
// parsed, bound to a QGM, rewritten according to the chosen decorrelation
// strategy, cleaned up, and executed. The benchmark harness and the public
// API both sit on top of this package.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"decorr/internal/ast"
	"decorr/internal/core"
	"decorr/internal/exec"
	"decorr/internal/parser"
	"decorr/internal/plancache"
	"decorr/internal/qgm"
	"decorr/internal/rewrite"
	"decorr/internal/semant"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/trace"
)

// Engine prepares and runs queries against one database.
type Engine struct {
	DB *storage.DB
	// MaterializeCSE lets the executor compute each shared uncorrelated
	// box (a SUPP or MAGIC table) once per run and serve later references
	// from the cached result — the optimizer improvement the paper wishes
	// for in §5.3. New turns it on; false is the Starburst recompute the
	// paper measured, which the figure harness sets for Figures 5–9.
	MaterializeCSE bool
	// CoreOpts tunes magic decorrelation (§4.4 knobs). Two fields are not
	// the caller's to set: Order is always overridden with the executor's
	// nested-iteration join order, and EliminateSupplementary belongs to the
	// strategy (it is what separates OptMagic from Magic).
	CoreOpts core.Options
	// MagicSets additionally applies classical magic-sets rewriting
	// ([MFPR90], the paper's §7 sibling transformation): derived tables
	// equi-joined into a block are restricted to the distinct join
	// bindings before they aggregate.
	MagicSets bool
	// Workers bounds intra-query parallelism in the executor: 0 means
	// GOMAXPROCS, 1 forces single-threaded execution. Results are
	// bit-identical and identically ordered at every setting.
	Workers int
	// Limits are the per-query resource budgets (deadline, output and
	// intermediate row caps, tracked-byte cap) applied to every execution
	// through this engine. The zero value imposes nothing. Limits are
	// execution-time policy, never planning policy: they are read at each
	// run, are deliberately absent from the plan-cache key, and a plan
	// prepared under one deadline runs correctly under another.
	Limits exec.Limits
	// RowMode forces the row-at-a-time executor, disabling the vectorized
	// columnar engine even for plans it supports. Rows, statistics, and
	// errors are identical either way; the knob exists for benchmarking
	// the two engines against each other and for bisecting a suspected
	// vectorization bug. It is an input of the physical plan, which Auto
	// prices and every execution of the statement runs, so it is read at
	// prepare and is part of the plan-cache key.
	RowMode bool
	// Tracer, when non-nil, threads span/event tracing through the whole
	// pipeline: parse, semant, every rewrite rule, decorrelation steps,
	// and per-box execution. Nil disables tracing at zero cost. Attaching
	// a tracer serializes execution (see exec.Options.Tracer).
	Tracer *trace.Tracer
	// CleanupFactory overrides the cleanup rewrite engine run before and
	// after the strategy rewrite; nil means rewrite.NewCleanup(). The
	// differential harness uses it to re-check strategies with individual
	// cleanup rules disabled.
	CleanupFactory func() *rewrite.Engine

	// viewMu guards views. The map is copy-on-write: DDL builds a fresh
	// map under the write lock and publishes it with one assignment, and a
	// published map is never mutated again, so a bind can keep using the
	// snapshot it took without holding any lock.
	viewMu sync.RWMutex
	views  semant.Views
	// epoch counts view DDL (CreateView/DropView). Cached plans record the
	// epoch they were prepared under and are discarded when it moves, which
	// is how the plan cache invalidates plans that inlined a stale view.
	epoch atomic.Uint64

	// planCache, when non-nil, memoizes Prepared plans across executions.
	// Set it via EnablePlanCache before the engine is shared: the knob
	// fields above are part of the cache key but are read unsynchronized,
	// so the configure-then-share contract of the other knobs applies.
	planCache *plancache.Cache

	// registry, when non-nil, tracks every execution: each run gets a
	// query ID, appears in Registry().Active() with live progress while it
	// runs, can be stopped with Kill, and lands in the query log when it
	// finishes. Set it via EnableRegistry or MountSystemCatalog before the
	// engine is shared (same contract as the knobs above). Nil disables
	// tracking at zero cost.
	registry *Registry
}

// New creates an engine with the paper's default knobs, and with shared
// boxes materialized (MaterializeCSE), so each unit of work runs once.
func New(db *storage.DB) *Engine {
	return &Engine{DB: db, CoreOpts: core.DefaultOptions(), MaterializeCSE: true, views: semant.Views{}}
}

// Stage latency histograms, nanoseconds. Package-level so hot paths pay
// one atomic add per observation instead of a registry lookup (the
// per-strategy exec histograms live beside the strategy table).
var (
	histParse       = trace.Metrics.Histogram("stage.parse")
	histRewrite     = trace.Metrics.Histogram("stage.rewrite")
	histDecorrelate = trace.Metrics.Histogram("stage.decorrelate")
	histExec        = trace.Metrics.Histogram("stage.exec")
)

// parseQuery and parseStatement are the engine's only parser entry points;
// both count into engine.parses so redundant parsing is observable (tests
// pin one parse per cold statement and zero on a warm cache hit), and both
// record into the stage.parse latency histogram.
func parseQuery(sql string) (ast.QueryExpr, error) {
	trace.Metrics.Counter("engine.parses").Inc()
	start := time.Now()
	q, err := parser.Parse(sql)
	histParse.Observe(time.Since(start).Nanoseconds())
	return q, err
}

func parseStatement(sql string) (ast.Statement, error) {
	trace.Metrics.Counter("engine.parses").Inc()
	start := time.Now()
	stmt, err := parser.ParseStatement(sql)
	histParse.Observe(time.Since(start).Nanoseconds())
	return stmt, err
}

// viewsSnapshot returns the current view map. The returned map is
// immutable (see viewMu): callers may read it indefinitely without locks.
func (e *Engine) viewsSnapshot() semant.Views {
	e.viewMu.RLock()
	defer e.viewMu.RUnlock()
	return e.views
}

// cacheEpoch is the epoch the plan cache checks: the view-DDL epoch plus
// the DB's index generation, since a plan fixes its index probes. Both
// only grow, so the sum moves whenever either does.
func (e *Engine) cacheEpoch() uint64 { return e.epoch.Load() + e.DB.IndexGen() }

// Epoch reports the view-DDL epoch. It moves on every successful
// CreateView/DropView; plan-cache entries prepared under an older epoch
// are invalidated on their next lookup.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// CreateView registers a named view from a "CREATE VIEW name [(cols)] AS
// query" statement. Views are expanded at bind time (the paper's §2.1
// presents the decorrelated plan as exactly such a view stack).
func (e *Engine) CreateView(sql string) error {
	stmt, err := parseStatement(sql)
	if err != nil {
		return err
	}
	cv, ok := stmt.(*ast.CreateView)
	if !ok {
		return fmt.Errorf("engine: not a CREATE VIEW statement")
	}
	return e.createViewParsed(cv)
}

// createViewParsed installs an already-parsed view definition: validate
// against a copy of the view map, publish the copy, bump the epoch.
func (e *Engine) createViewParsed(cv *ast.CreateView) error {
	name := strings.ToLower(cv.Name)
	// The parser rejects qualified view names in SQL; this guards the
	// programmatic path too. Dotted names address system catalogs
	// (sys.*), and catalog resolution runs before view expansion, so a
	// dotted view would be silently unreachable at best.
	if strings.ContainsRune(name, '.') {
		return fmt.Errorf("engine: view name %q cannot be qualified: dotted names are reserved for system catalogs", name)
	}
	if e.DB.Catalog.Lookup(name) != nil {
		return fmt.Errorf("engine: view %q collides with a base table", name)
	}
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	next := make(semant.Views, len(e.views)+1)
	for k, v := range e.views {
		next[k] = v
	}
	next[name] = &semant.ViewDef{Cols: cv.Cols, Query: cv.Query}
	// Validate eagerly: the definition must bind (it may reference
	// earlier views but not itself), and it must not capture `?`
	// placeholders — a view is shared by statements with unrelated
	// parameter lists, so there is no sound position to bind them to.
	g, err := semant.BindWithViews(cv.Query, e.DB.Catalog, next)
	if err != nil {
		return err
	}
	if g.Params > 0 {
		return fmt.Errorf("engine: view %q must not contain ? parameters", name)
	}
	e.views = next
	e.epoch.Add(1)
	return nil
}

// DropView removes a view if present.
func (e *Engine) DropView(name string) {
	name = strings.ToLower(name)
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	if _, ok := e.views[name]; !ok {
		return
	}
	next := make(semant.Views, len(e.views))
	for k, v := range e.views {
		if k != name {
			next[k] = v
		}
	}
	e.views = next
	e.epoch.Add(1)
}

// Exec runs one statement: CREATE VIEW definitions return (nil, nil, nil);
// queries behave like Query. The statement is parsed exactly once, and not
// at all when the plan cache holds a plan for its text.
func (e *Engine) Exec(sql string, s Strategy) ([]storage.Row, *exec.Stats, error) {
	return e.ExecParamsContext(context.Background(), sql, s, nil)
}

// ExecContext is Exec under a cancellation context: the executor polls ctx
// at every morsel claim and box evaluation, so a cancellation or deadline
// surfaces as exec.ErrCanceled / exec.ErrDeadlineExceeded within one
// morsel of leaf work, at any worker count.
func (e *Engine) ExecContext(ctx context.Context, sql string, s Strategy) ([]storage.Row, *exec.Stats, error) {
	return e.ExecParamsContext(ctx, sql, s, nil)
}

// ExecParams is Exec with values for the statement's `?` placeholders, in
// text order. With the plan cache enabled, a repeat of a statement the
// cache still holds skips parsing, binding, and rewriting entirely — the
// text itself is the fast-path key — so a parameterized statement pays for
// preparation once across all its bindings.
func (e *Engine) ExecParams(sql string, s Strategy, params []sqltypes.Value) ([]storage.Row, *exec.Stats, error) {
	return e.ExecParamsContext(context.Background(), sql, s, params)
}

// ExecParamsContext is ExecParams under a cancellation context.
func (e *Engine) ExecParamsContext(ctx context.Context, sql string, s Strategy, params []sqltypes.Value) ([]storage.Row, *exec.Stats, error) {
	p, cv, err := e.prepareStatement(sql, s)
	switch {
	case err != nil:
		return nil, nil, err
	case cv != nil:
		return nil, nil, e.createViewParsed(cv)
	}
	return p.RunParamsContext(ctx, params)
}

// Prepared is a parsed, rewritten, validated query ready to run, with the
// physical plan its EstimatedCost priced: every execution runs that plan
// and builds only its own run state. The plan fixes each index probe, so
// after index DDL (storage.Table.CreateIndex or DropIndex) on a table the
// statement reads, prepare it afresh (PrepareCached does: index DDL moves
// the cache's epoch): an old plan whose probe index was dropped fails with
// an "index … vanished mid-plan" error, and one prepared before an index
// was created keeps running without it.
type Prepared struct {
	Graph    *qgm.Graph
	Strategy Strategy
	Trace    *core.Trace
	Columns  []string
	// Chosen reports which alternative the Auto strategy selected (NI,
	// NIBatch or OptMagic); it equals Strategy otherwise. Its table row
	// supplies the executor's reuse policy.
	Chosen Strategy
	// EstimatedCost is the optimizer's abstract cost of the chosen plan.
	EstimatedCost float64
	// Alternatives is the race Auto ran, in strategy-table order, Chosen
	// included; nil for every other strategy.
	Alternatives []Alternative
	// NumParams is the number of `?` placeholders the statement uses;
	// RunParams must be given exactly that many values.
	NumParams int
	// Text is the statement text the plan was prepared from: the caller's
	// SQL, or for a plan the cache serves to every spelling of a statement,
	// the AST's normalized rendering. The panic-isolation path attaches it
	// to trace events so a recovered operator panic identifies the
	// offending query.
	Text string
	// plan is the physical plan EstimatedCost priced, built once at
	// prepare and run by every execution.
	plan   *exec.Plan
	engine *Engine
}

// Alternative is one strategy Auto costed for a statement.
type Alternative struct {
	Strategy Strategy
	// Cost is exec.EstimateCost of the strategy's plan under its reuse
	// policy.
	Cost float64
}

// Prepare parses sql and applies the strategy's rewrite.
func (e *Engine) Prepare(sql string, s Strategy) (*Prepared, error) {
	return e.prepare(sql, nil, s, false)
}

// PrepareTraced is Prepare with rewrite tracing enabled (for Magic and
// OptMagic the trace holds the Figure 2–4 stage snapshots).
func (e *Engine) PrepareTraced(sql string, s Strategy) (*Prepared, error) {
	return e.prepare(sql, nil, s, true)
}

// prepare runs the pipeline under one prepare span, behind recoverPrepare:
// the front half (parse, bind, cleanup-pre) once, then the strategy's back
// half, or for Auto a back half per raced row. sql is the statement's text,
// which the plan records; q, when non-nil, is its parse, and otherwise sql
// is parsed inside the span (so traces show the full pipeline).
func (e *Engine) prepare(sql string, q ast.QueryExpr, s Strategy, traced bool) (p *Prepared, err error) {
	trace.Metrics.Counter("engine.prepares").Inc()
	prep := e.Tracer.Begin("prepare", "engine", trace.Str("strategy", s.String()))
	defer func() {
		if err != nil {
			trace.Metrics.Counter("engine.prepare_errors").Inc()
			prep.End(trace.Str("error", err.Error()))
			return
		}
		prep.End()
	}()
	defer e.recoverPrepare(sql, &p, &err)
	if q == nil {
		sp := e.Tracer.Begin("parse", "prepare")
		q, err = parseQuery(sql)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	g, err := e.prepareFront(q)
	if err != nil {
		return nil, err
	}
	if s == Auto {
		return e.prepareAuto(sql, g, traced)
	}
	return e.prepareBack(sql, g, s, traced)
}

// notePanic records one recovered panic: the engine.panics counter moves
// and, when tracing, an instant event captures the phase, the query text,
// the panic value, and the (truncated) operator stack.
func (e *Engine) notePanic(phase, text string, pe *exec.PanicError) {
	trace.Metrics.Counter("engine.panics").Inc()
	stack := pe.Stack
	const maxStack = 4 << 10
	if len(stack) > maxStack {
		stack = stack[:maxStack]
	}
	e.Tracer.Instant("panic", "engine",
		trace.Str("phase", phase),
		trace.Str("query", text),
		trace.Str("value", fmt.Sprint(pe.Val)),
		trace.Str("stack", string(stack)))
}

// recoverPrepare isolates panics in the prepare pipeline: deferred, it
// turns a rewrite, binder or estimator bug into a *exec.PanicError instead
// of killing the process, and the engine (views, plan cache, storage) stays
// usable.
func (e *Engine) recoverPrepare(sql string, p **Prepared, err *error) {
	if r := recover(); r != nil {
		pe := &exec.PanicError{Val: r, Stack: debug.Stack()}
		e.notePanic("prepare", sql, pe)
		*p, *err = nil, pe
	}
}

// prepareFront is the half of the pipeline every strategy shares: bind q
// and normalize the graph before any strategy rewrite, as the paper applied
// "all Starburst query transformations that were unrelated to
// decorrelation ... to all queries" (§5.1). Merging trivial wrapper boxes
// here also lets the FEED stage see aggregate subqueries directly instead
// of through projection shells.
func (e *Engine) prepareFront(q ast.QueryExpr) (*qgm.Graph, error) {
	sp := e.Tracer.Begin("semant", "prepare")
	g, err := semant.BindWithViews(q, e.DB.Catalog, e.viewsSnapshot())
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := e.cleanup(g, "cleanup-pre"); err != nil {
		return nil, err
	}
	return g, nil
}

// prepareBack is strategy s's half of the pipeline over g, a graph the
// front half cleaned: the strategy rewrite, cleanup-post, magic sets and
// validation. It builds the physical plan and prices it, under one
// plan-cost span; Auto prices the same plan under further reuse policies.
func (e *Engine) prepareBack(text string, g *qgm.Graph, s Strategy, traced bool) (*Prepared, error) {
	row := s.row()
	if row == nil {
		return nil, fmt.Errorf("engine: unknown strategy %v", s)
	}
	p := &Prepared{Graph: g, Strategy: s, Chosen: s, NumParams: g.Params, Text: text, engine: e}
	if traced {
		p.Trace = &core.Trace{}
	}
	if row.rewrite != nil {
		// The strategy rewrite. Rows without one (the nested-iteration
		// family) run the graph as bound and differ only in executor reuse
		// policy; they stay out of stage.decorrelate, where they would only
		// pollute the low buckets.
		sp := e.Tracer.Begin("decorrelate", "prepare", trace.Str("strategy", row.label))
		start := time.Now()
		err := row.rewrite(e, p)
		sp.End()
		if err != nil {
			return nil, err
		}
		histDecorrelate.Observe(time.Since(start).Nanoseconds())
	}
	if err := e.cleanup(g, "cleanup-post"); err != nil {
		return nil, err
	}
	if e.MagicSets {
		if err := core.ApplyMagicSets(g); err != nil {
			return nil, err
		}
		if err := e.cleanup(g, "cleanup-magicsets"); err != nil {
			return nil, err
		}
	}
	if err := qgm.Validate(g); err != nil {
		return nil, fmt.Errorf("engine: %s rewrite produced an invalid graph: %w", s, err)
	}
	p.Columns = g.Root.OutNames()
	p.EstimatedCost = e.priced(row, func() float64 {
		p.plan = exec.NewPlan(e.DB, g, e.RowMode)
		return p.plan.EstimateCost(row.reuse, e.MaterializeCSE)
	})
	return p, nil
}

// priced runs one §7 pricing for row under a plan-cost span.
func (e *Engine) priced(row *strategyRow, price func() float64) float64 {
	sp := e.Tracer.Begin("plan-cost", "prepare", trace.Str("strategy", row.label))
	defer sp.End()
	return price()
}

// cleanup runs the cleanup rule set under a named span; wall time records
// into the stage.rewrite histogram (all cleanup passes share it).
func (e *Engine) cleanup(g *qgm.Graph, stage string) error {
	sp := e.Tracer.Begin(stage, "rewrite")
	re := rewrite.NewCleanup()
	if e.CleanupFactory != nil {
		re = e.CleanupFactory()
	}
	start := time.Now()
	err := re.WithTracer(e.Tracer).Run(g)
	histRewrite.Observe(time.Since(start).Nanoseconds())
	sp.End()
	return err
}

// prepareAuto implements §7's plan choice as a race over the strategy
// table's auto rows: each is prepared and costed under its own reuse
// policy, and the cheapest runs. The rows share the front half, so a
// statement is parsed, bound and cleaned once: clean is that graph, and
// each row finishes its own qgm.CloneGraph of it, which keeps every ID, so
// a row's plan is the one it gets prepared alone. (The as-bound row needs
// its copy too: magic sets may rewrite it.) Rows without a rewrite share
// the first such row's finished graph and physical plan, so a further row
// is one more cost walk. What cannot differ is not raced: a graph with no
// nested-iteration fan-out (exec.Plan.FanOut) runs as bound. The winner
// keeps the plan it was priced with, and that plan runs.
//
// Ties go to the later row. Within the nested-iteration family the table
// runs from least to most sharing, the batched estimate is the per-tuple
// one with invocations capped at the distinct bindings, and sharing never
// adds a subquery execution — so on equal estimates the sharing row can
// only do better than estimated.
func (e *Engine) prepareAuto(text string, clean *qgm.Graph, traced bool) (*Prepared, error) {
	var (
		bound *Prepared // the as-bound pipeline
		alts  []Alternative
		plans []*Prepared // plans[i] runs alts[i]
	)
	for i := range strategyTable {
		row := &strategyTable[i]
		switch {
		case !row.auto:
		case bound == nil:
			var err error
			if bound, err = e.prepareBack(text, qgm.CloneGraph(clean), row.id, false); err != nil {
				return nil, err
			}
			alts, plans = append(alts, Alternative{row.id, bound.EstimatedCost}), append(plans, bound)
		case bound.plan.FanOut() == 0:
			// Nothing to share and nothing to decorrelate.
		case row.rewrite == nil:
			cost := e.priced(row, func() float64 { return bound.plan.EstimateCost(row.reuse, e.MaterializeCSE) })
			alts, plans = append(alts, Alternative{row.id, cost}), append(plans, bound)
		default:
			rewritten, err := e.prepareBack(text, qgm.CloneGraph(clean), row.id, traced)
			switch {
			case err == nil:
				alts, plans = append(alts, Alternative{row.id, rewritten.EstimatedCost}), append(plans, rewritten)
			case errors.Is(err, rewrite.ErrNoFixpoint):
				// A non-converging rule set is an engine bug, not a query the
				// strategy merely cannot handle: surface it instead of
				// silently running another row's plan.
				return nil, err
			}
		}
	}
	best := 0
	for i := range alts {
		if alts[i].Cost <= alts[best].Cost {
			best = i
		}
	}
	p := plans[best]
	p.Strategy, p.Chosen, p.EstimatedCost, p.Alternatives = Auto, alts[best].Strategy, alts[best].Cost, alts
	trace.Metrics.Counter("engine.auto_choice." + p.Chosen.Name()).Inc()
	return p, nil
}

// orderer exposes the executor's static nested-iteration join order to the
// rewrites (§7: the decorrelation uses the NI join order).
func (e *Engine) orderer() core.Orderer {
	ex := exec.New(e.DB, exec.Options{})
	return ex.JoinOrder
}

// Run executes the prepared query, returning rows and work counters. It
// is RunParams with no parameter values; a statement containing `?`
// placeholders must go through RunParams.
func (p *Prepared) Run() ([]storage.Row, *exec.Stats, error) {
	return p.RunParams(nil)
}

// RunParams executes the prepared query with params bound to the `?`
// placeholders in statement text order. A *Prepared is safe for
// concurrent RunParams calls: every call builds only its own run state
// over the shared, read-only physical plan and graph, and parameter values
// live in that run state — which is what lets the plan cache hand one plan
// to many clients.
func (p *Prepared) RunParams(params []sqltypes.Value) ([]storage.Row, *exec.Stats, error) {
	return p.RunParamsContext(context.Background(), params)
}

// RunParamsContext is RunParams under a cancellation context and the
// engine's Limits (read per call — a cached plan never captures either).
// It is a Stream drained in one pull, so the registry entry, histograms,
// execute span and panic boundary are Stream's.
func (p *Prepared) RunParamsContext(ctx context.Context, params []sqltypes.Value) ([]storage.Row, *exec.Stats, error) {
	s, err := p.StreamWithOpts(ctx, params, StreamOpts{})
	if err != nil {
		return nil, nil, err
	}
	rows, err := s.drain()
	if err != nil {
		return nil, nil, err
	}
	return rows, &s.ex.Stats, nil
}

// Explain renders the rewritten plan; an Auto plan leads with the race
// that picked it.
func (p *Prepared) Explain() string { return p.autoLine() + qgm.Format(p.Graph) }

// autoLine renders Auto's race as one line — "auto: chose optmagic 64600
// over ni 129200, nibatch 129200" — and is empty for other strategies.
func (p *Prepared) autoLine() string {
	if p.Alternatives == nil {
		return ""
	}
	var lost []string
	for _, a := range p.Alternatives {
		if a.Strategy != p.Chosen {
			lost = append(lost, fmt.Sprintf("%s %.0f", a.Strategy.Name(), a.Cost))
		}
	}
	if lost == nil {
		return fmt.Sprintf("auto: chose %s %.0f, nothing to race\n", p.Chosen.Name(), p.EstimatedCost)
	}
	return fmt.Sprintf("auto: chose %s %.0f over %s\n", p.Chosen.Name(), p.EstimatedCost, strings.Join(lost, ", "))
}

// ExplainAnalyze runs the query with per-box profiling and renders the
// plan annotated with actual evaluation counts and row counts. Correlated
// boxes show one evaluation per binding (nested iteration made visible);
// shared uncorrelated boxes show the §5.1 recomputation behavior.
func (p *Prepared) ExplainAnalyze() (string, error) {
	return p.ExplainAnalyzeContext(context.Background())
}

// ExplainAnalyzeContext is ExplainAnalyze under a cancellation context and
// the engine's Limits, behind a panic boundary like Stream's.
func (p *Prepared) ExplainAnalyzeContext(ctx context.Context) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &exec.PanicError{Val: r, Stack: debug.Stack()}
			p.engine.notePanic("explain-analyze", p.Text, pe)
			out, err = "", pe
		}
	}()
	ex := p.plan.Executor(p.execOptions(ctx, nil, StreamOpts{}))
	ex.EnableProfiling()
	sp := p.engine.Tracer.Begin("explain-analyze", "engine", trace.Str("strategy", p.Strategy.String()))
	_, runErr := ex.Run(p.Graph)
	sp.End()
	if runErr != nil {
		var pe *exec.PanicError
		if errors.As(runErr, &pe) {
			p.engine.notePanic("explain-analyze", p.Text, pe)
		}
		return "", runErr
	}
	return ex.FormatProfile(p.Graph), nil
}

// Query is the one-shot convenience: prepare (through the plan cache when
// one is enabled) and run.
func (e *Engine) Query(sql string, s Strategy) ([]storage.Row, *exec.Stats, error) {
	return e.QueryParamsContext(context.Background(), sql, s, nil)
}

// QueryContext is Query under a cancellation context (see ExecContext).
func (e *Engine) QueryContext(ctx context.Context, sql string, s Strategy) ([]storage.Row, *exec.Stats, error) {
	return e.QueryParamsContext(ctx, sql, s, nil)
}

// QueryParams is Query with values for the statement's `?` placeholders.
func (e *Engine) QueryParams(sql string, s Strategy, params []sqltypes.Value) ([]storage.Row, *exec.Stats, error) {
	return e.QueryParamsContext(context.Background(), sql, s, params)
}

// QueryParamsContext is QueryParams under a cancellation context.
func (e *Engine) QueryParamsContext(ctx context.Context, sql string, s Strategy, params []sqltypes.Value) ([]storage.Row, *exec.Stats, error) {
	p, err := e.PrepareCached(sql, s)
	if err != nil {
		return nil, nil, err
	}
	return p.RunParamsContext(ctx, params)
}

// EnableRegistry attaches a query registry with a completed-query ring of
// about logCap entries (non-positive selects DefaultQueryLogCap). Call it
// before the engine is shared, like the other knob fields. Enabling the
// registry wraps every run in a cancelable context, so even runs whose
// caller passed context.Background() become killable (and governed by a
// governor checkpoint at every morsel claim and box evaluation).
func (e *Engine) EnableRegistry(logCap int) {
	e.registry = newRegistry(logCap)
}

// Registry exposes the attached query registry (nil when disabled).
func (e *Engine) Registry() *Registry { return e.registry }

// Kill cancels the identified running query (see Registry.Kill). Without
// an enabled registry it reports false.
func (e *Engine) Kill(id int64) bool {
	if e.registry == nil {
		return false
	}
	return e.registry.Kill(id)
}

// EnablePlanCache attaches a prepared-plan cache holding about capacity
// plans (non-positive selects the default). Call it before the engine is
// shared by concurrent clients, like the other knob fields.
func (e *Engine) EnablePlanCache(capacity int) {
	e.planCache = plancache.New(capacity)
}

// DisablePlanCache detaches the plan cache.
func (e *Engine) DisablePlanCache() { e.planCache = nil }

// PlanCache exposes the attached cache (nil when disabled) for stats and
// purging.
func (e *Engine) PlanCache() *plancache.Cache { return e.planCache }

// cacheable reports whether prepared plans may be served from the cache.
// A tracer opts out — the tracing contract is that every traced statement
// shows the whole pipeline, which a cache hit would elide — and so does a
// cleanup override, which changes what prepare would produce without
// being representable in the key.
func (e *Engine) cacheable() bool {
	return e.planCache != nil && e.Tracer == nil && e.CleanupFactory == nil
}

// trimStatement canonicalizes raw statement text for the fast-path cache
// key: surrounding whitespace and a trailing semicolon never change the
// parse, so "q", "q;" and "  q" share one plan without parsing.
func trimStatement(sql string) string {
	t := strings.TrimSpace(sql)
	t = strings.TrimSuffix(t, ";")
	return strings.TrimSpace(t)
}

// cacheKey folds every knob that changes the produced plan in ahead of
// the statement text — RowMode too, as the cached physical plan fixes the
// engine that runs it. Absent on purpose: CoreOpts.Order and
// CoreOpts.EliminateSupplementary, which the engine overrides (the latter
// from the strategy, already in the key), and Tracer and CleanupFactory,
// which disable caching entirely (see cacheable).
func (e *Engine) cacheKey(text string, s Strategy) string {
	o := e.CoreOpts
	return fmt.Sprintf("s=%d de=%t oj=%t ms=%t cse=%t rm=%t|%s",
		int(s), o.DecorrelateExistential, o.UseOuterJoin,
		e.MagicSets, e.MaterializeCSE, e.RowMode, text)
}

// PrepareCached returns a plan for sql, serving it from the plan cache
// when possible and preparing (and caching) it otherwise. Plans are
// cached under two spellings: the trimmed raw text — so a repeated
// statement skips the parser — and the normalized text the parser's AST
// prints back to, so trivially reformatted statements share one plan.
// Without an enabled cache it prepares afresh.
func (e *Engine) PrepareCached(sql string, s Strategy) (*Prepared, error) {
	p, cv, err := e.prepareStatement(sql, s)
	if cv != nil {
		return nil, fmt.Errorf("engine: CREATE VIEW %s is not a query (run it through Exec or CreateView)", cv.Name)
	}
	return p, err
}

// prepareStatement is the one cache probe behind PrepareCached and Exec:
// a hit on the raw text returns without parsing; otherwise the statement is
// parsed exactly once and either handed back as view DDL for the caller to
// apply or prepared (through the cache when one is usable).
func (e *Engine) prepareStatement(sql string, s Strategy) (*Prepared, *ast.CreateView, error) {
	cached := e.cacheable()
	var (
		epoch  uint64
		rawKey string
	)
	if cached {
		// The epoch is loaded before parsing/binding: if DDL lands in
		// between, the plan is stored under the older epoch and discarded on
		// its next lookup — stale plans are never served, only
		// over-invalidated.
		epoch = e.cacheEpoch()
		rawKey = e.cacheKey(trimStatement(sql), s)
		if v, ok := e.planCache.Get(rawKey, epoch); ok {
			return v.(*Prepared), nil, nil
		}
	}
	sp := e.Tracer.Begin("parse", "engine")
	stmt, err := parseStatement(sql)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	if cv, ok := stmt.(*ast.CreateView); ok {
		return nil, cv, nil
	}
	q, ok := stmt.(ast.QueryExpr)
	if !ok {
		return nil, nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
	var p *Prepared
	if cached {
		p, err = e.prepareAndCache(rawKey, q, s, epoch)
	} else {
		p, err = e.prepare(sql, q, s, false)
	}
	return p, nil, err
}

// prepareAndCache finishes a cache miss: check the normalized-text key
// (another spelling of the same query may already be cached), prepare on
// a true miss, and store the plan under both keys.
func (e *Engine) prepareAndCache(rawKey string, q ast.QueryExpr, s Strategy, epoch uint64) (*Prepared, error) {
	norm := ast.FormatQuery(q)
	normKey := e.cacheKey(norm, s)
	if normKey != rawKey {
		if v, ok := e.planCache.Get(normKey, epoch); ok {
			p := v.(*Prepared)
			e.planCache.Put(rawKey, epoch, p)
			return p, nil
		}
	}
	// The plan serves every spelling of q, so it records the normal form.
	p, err := e.prepare(norm, q, s, false)
	if err != nil {
		return nil, err
	}
	e.planCache.Put(normKey, epoch, p)
	if rawKey != normKey {
		e.planCache.Put(rawKey, epoch, p)
	}
	return p, nil
}
