package decorr

import (
	"io"

	"decorr/internal/core"
	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/parallel"
	"decorr/internal/plancache"
	"decorr/internal/schema"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
	"decorr/internal/trace"
)

// Core query-processing types.
type (
	// DB is an in-memory database: a catalog plus stored tables with
	// optional per-column indexes.
	DB = storage.DB
	// Row is one result or stored tuple.
	Row = storage.Row
	// Value is a SQL datum (NULL, integer, double, varchar, boolean).
	Value = sqltypes.Value
	// Engine prepares and executes SQL under a decorrelation strategy.
	Engine = engine.Engine
	// Prepared is a parsed, rewritten, validated query.
	Prepared = engine.Prepared
	// Alternative is one strategy the Auto strategy costed for a statement
	// (Prepared.Alternatives).
	Alternative = engine.Alternative
	// Strategy selects the decorrelation algorithm.
	Strategy = engine.Strategy
	// Stats are the machine-independent work counters of one execution.
	Stats = exec.Stats
	// Limits are per-query resource budgets: a deadline, output and
	// intermediate row caps, and a tracked-byte cap. Assign them to
	// Engine.Limits; the zero value imposes nothing. Limits are
	// execution-time policy only — they never affect planning or the plan
	// cache, so a cached plan runs correctly under any Limits (see
	// docs/robustness.md).
	Limits = exec.Limits
	// RewriteOptions are the §4.4 decorrelation knobs.
	RewriteOptions = core.Options
	// Stream is one running query yielding its result batch-at-a-time —
	// obtain one from Engine.QueryStream or Prepared.Stream. It carries
	// the full query lifecycle (registry tracking, Kill, budgets, metrics,
	// tracing) stretched over the iterator: call Next until it returns
	// (nil, nil) or an error, then Close (idempotent). A million-row
	// result holds one batch in memory at a time; this is the path decorrd
	// serves network results through (see docs/server.md).
	Stream = engine.Stream
	// StreamOpts are per-call execution overrides (worker count, budgets)
	// for Prepared.StreamWithOpts, letting one shared Engine serve
	// sessions with different execution policies.
	StreamOpts = engine.StreamOpts
	// Table is a table definition (columns plus candidate keys).
	Table = schema.Table
	// Column is one column of a table definition.
	Column = schema.Column
)

// Decorrelation strategies (§5.1 of the paper).
const (
	// NI is tuple-at-a-time nested iteration (the System R baseline).
	NI = engine.NI
	// NIBatch is nested iteration with runtime subquery batching:
	// correlated subqueries evaluate set-at-a-time over the distinct
	// outer bindings, bit-identical to NI.
	NIBatch = engine.NIBatch
	// Kim is Kim's method [Kim82] — COUNT bug included, faithfully.
	Kim = engine.Kim
	// Dayal is Dayal's outer-join method [Day87].
	Dayal = engine.Dayal
	// GanskiWong is the Ganski/Wong method [GW87].
	GanskiWong = engine.GanskiWong
	// Magic is magic decorrelation, the paper's contribution.
	Magic = engine.Magic
	// OptMagic adds the supplementary-table CSE elimination (OptMag).
	OptMagic = engine.OptMagic
	// Auto optimizes the query twice — as written and decorrelated —
	// and keeps the plan with the lower estimated cost (§7).
	Auto = engine.Auto
)

// Column type constants for NewTable.
const (
	TInt    = schema.TInt
	TFloat  = schema.TFloat
	TString = schema.TString
	TBool   = schema.TBool
)

// Value constructors.
var (
	// Null is the SQL NULL value.
	Null = sqltypes.Null
	// Int builds an integer value.
	Int = sqltypes.NewInt
	// Float builds a double value.
	Float = sqltypes.NewFloat
	// String builds a varchar value.
	String = sqltypes.NewString
)

// NewEngine creates an execution engine over db with the paper's default
// knobs (full decorrelation, outer joins available) and shared boxes
// computed once per run (MaterializeCSE on). Optional behavior is toggled
// on the returned engine: CoreOpts (the §4.4 decorrelation knobs),
// MaterializeCSE (off is the Starburst recompute of the §5.3 ablation),
// MagicSets ([MFPR90] join-binding propagation), Workers (intra-query
// parallelism: 0 = GOMAXPROCS, 1 = single-threaded; results are identical
// at every setting — see docs/parallel-execution.md), and EnablePlanCache
// (a sharded LRU of prepared plans keyed by statement text and knobs,
// invalidated by view DDL — see docs/plan-cache.md).
//
// Statements may contain `?` placeholders bound at execution time via
// Engine.ExecParams/QueryParams or Prepared.RunParams, so one cached plan
// serves many bindings. An Engine is safe for concurrent use once
// configured (set the knob fields before sharing it).
func NewEngine(db *DB) *Engine { return engine.New(db) }

// PlanCacheStats reports the process-wide plan-cache counters (hits,
// misses, evictions, epoch invalidations); they also appear in Metrics
// under plancache.*.
type PlanCacheStats = plancache.Stats

// PlanCacheStatsNow reads the current plan-cache counters.
func PlanCacheStatsNow() PlanCacheStats { return plancache.StatsNow() }

// NewDB creates an empty database.
func NewDB() *DB { return storage.NewDB() }

// NewTable builds a table definition; register it with DB.Create and
// declare candidate keys with AddKey.
func NewTable(name string, cols ...Column) *Table {
	return schema.NewTable(name, cols...)
}

// EmpDept returns the paper's §2 running-example database, including the
// COUNT-bug witness (a low-budget department in a building where nobody
// works).
func EmpDept() *DB { return tpcd.EmpDept() }

// EmpDeptSized returns a synthetic EMP/DEPT database for scaling studies.
func EmpDeptSized(nDept, nEmp, nBuildings int, seed int64) *DB {
	return tpcd.EmpDeptSized(nDept, nEmp, nBuildings, seed)
}

// TPCD generates the TPC-D-style benchmark database of the paper's §5.2;
// sf=1.0 reproduces Table 1's cardinalities exactly.
func TPCD(sf float64, seed int64) *DB {
	return tpcd.Generate(tpcd.Config{SF: sf, Seed: seed})
}

// The paper's workload queries.
const (
	// ExampleQuery is the §2 running example over EMP/DEPT.
	ExampleQuery = tpcd.ExampleQuery
	// Query1 is the §5.3 supplier/min-cost query (Figure 5).
	Query1 = tpcd.Query1
	// Query1b is its wide-predicate variant (Figure 6/7).
	Query1b = tpcd.Query1b
	// Query2 is the §5.3 average-quantity query (Figure 8).
	Query2 = tpcd.Query2
	// Query3 is the §5.3 non-linear UNION query (Figure 9).
	Query3 = tpcd.Query3
)

// Shared-nothing simulation (§6).
type (
	// ParallelConfig parameterizes the shared-nothing simulator.
	ParallelConfig = parallel.Config
	// ParallelResult is the simulated answer plus cost metrics.
	ParallelResult = parallel.Result
	// ParallelMetrics are messages, shipped rows, fragments, work and
	// makespan.
	ParallelMetrics = parallel.Metrics
)

// Observability: end-to-end pipeline tracing and process metrics (see
// docs/observability.md).
type (
	// Tracer threads span/event tracing through parse, semant, rewrite
	// rules, decorrelation, and per-box execution; assign one to
	// Engine.Tracer. A nil Tracer is fully disabled at zero cost.
	Tracer = trace.Tracer
	// TraceEvent is one finished span or instant event.
	TraceEvent = trace.Event
	// TraceSink receives finished trace events.
	TraceSink = trace.Sink
	// MetricsRegistry holds named monotonic counters, gauges, and latency
	// histograms with a snapshot/diff API.
	MetricsRegistry = trace.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = trace.Snapshot
	// Histogram is a lock-free log-bucketed latency histogram; obtain one
	// with Metrics.Histogram(name), record with Observe.
	Histogram = trace.Histogram
	// HistogramSnapshot is a point-in-time histogram summary
	// (count/sum/min/max and p50/p95/p99).
	HistogramSnapshot = trace.HistogramSnapshot
)

// Introspection: the live query registry and the sys.* system catalog
// (see docs/observability.md). Engine.MountSystemCatalog registers the
// sys.metrics, sys.histograms, sys.active_queries, sys.plan_cache, and
// sys.query_log virtual tables (enabling the registry as a side effect);
// Engine.EnableRegistry turns on query tracking alone; Engine.Kill cancels
// a running query by ID through the governor's cancellation path, so the
// victim fails with ErrCanceled.
type (
	// QueryRegistry tracks running queries (Active) and a bounded ring of
	// completed ones (Log).
	QueryRegistry = engine.Registry
	// ActiveQuery is a point-in-time view of one running query: ID,
	// statement text, strategy, start time, and live progress counters.
	ActiveQuery = engine.ActiveQuery
	// QueryLogEntry records one completed query: outcome, duration, error
	// text, budget-trip classification, and final progress counters.
	QueryLogEntry = engine.QueryLogEntry
)

// Metrics is the process-wide registry the engine, executor, and parallel
// simulator publish into.
var Metrics = trace.Metrics

// Query-lifecycle governance sentinels (see docs/robustness.md). Match
// them with errors.Is: every governed failure — a canceled context, an
// expired deadline, a tripped budget, a recovered operator panic — unwinds
// to the caller as one of these, and the engine stays fully usable for
// subsequent statements. Cancellation is requested through the *Context
// entry points (Engine.ExecContext/QueryContext, Prepared.RunParamsContext).
var (
	// ErrCanceled reports that the run's context was canceled mid-query.
	ErrCanceled = exec.ErrCanceled
	// ErrDeadlineExceeded reports an expired Limits.Timeout or context
	// deadline.
	ErrDeadlineExceeded = exec.ErrDeadlineExceeded
	// ErrRowBudget reports a MaxOutputRows or MaxIntermediateRows trip.
	ErrRowBudget = exec.ErrRowBudget
	// ErrMemBudget reports a MaxTrackedBytes trip.
	ErrMemBudget = exec.ErrMemBudget
	// ErrPanic marks an operator panic recovered into an error; the
	// concrete value is a *exec.PanicError carrying the operator stack.
	ErrPanic = exec.ErrPanic
)

// NewTracer creates a tracer emitting into sink.
func NewTracer(sink TraceSink) *Tracer { return trace.New(sink) }

// NewRingSink creates an in-memory sink holding the most recent limit
// events (non-positive means 4096).
func NewRingSink(limit int) *trace.RingSink { return trace.NewRingSink(limit) }

// NewJSONLSink creates a sink streaming one JSON object per event to w.
func NewJSONLSink(w io.Writer) *trace.JSONLSink { return trace.NewJSONLSink(w) }

// NewChromeSink creates a sink that writes a Chrome trace-event JSON
// document (chrome://tracing / Perfetto compatible) on Flush.
func NewChromeSink(w io.Writer) *trace.ChromeSink { return trace.NewChromeSink(w) }

// Parallel placements.
const (
	// PartitionByPrimaryKey spreads tables by key (the general case).
	PartitionByPrimaryKey = parallel.PartitionByPrimaryKey
	// PartitionByCorrelation co-partitions on the correlation attribute.
	PartitionByCorrelation = parallel.PartitionByCorrelation
)

// SimulateNestedIteration runs the §6.1 nested-iteration execution of the
// example query over a partitioned EMP/DEPT database.
func SimulateNestedIteration(db *DB, cfg ParallelConfig) (*ParallelResult, error) {
	return parallel.RunNestedIteration(db, cfg)
}

// SimulateMagic runs the §6.2 decorrelated execution.
func SimulateMagic(db *DB, cfg ParallelConfig) (*ParallelResult, error) {
	return parallel.RunMagic(db, cfg)
}

// ParallelPlanCost estimates the shared-nothing execution cost (messages,
// shipped rows, computation fragments) of any prepared plan — the §6
// analysis generalized beyond the example query.
func ParallelPlanCost(db *DB, p *Prepared, cfg ParallelConfig) ParallelMetrics {
	return parallel.PlanCost(db, p.Graph, cfg)
}
