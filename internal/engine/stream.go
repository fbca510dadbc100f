package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"decorr/internal/exec"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/trace"
)

// StreamOpts are per-call overrides of the engine's execution knobs —
// the server applies a session's \workers and \limits here, so one shared
// Engine (one plan cache, one registry) serves sessions with different
// execution policies without mutating shared state.
type StreamOpts struct {
	// Workers, when non-zero, overrides Engine.Workers for this stream.
	Workers int
	// Limits, when non-nil, replaces Engine.Limits for this stream (a
	// pointer so "no limits" is expressible as a zero Limits value).
	Limits *exec.Limits
}

// Stream is one running query yielding its result batch-at-a-time. It is
// the engine's only execution lifecycle (RunParams is a Stream drained in
// one pull): registry tracking (the query appears in sys.active_queries and
// is killable mid-stream), latency histograms, tracing spans, and the
// execution-side panic boundary, stretched over the iterator's lifetime. A
// Stream is not safe for concurrent use; Close it when done (idempotent,
// safe after exhaustion or error).
type Stream struct {
	p      *Prepared
	ex     *exec.Exec
	it     *exec.RowIterator
	aq     *activeQuery
	cancel context.CancelFunc
	sp     *trace.Span
	start  time.Time
	rows   int64
	done   bool
	err    error
}

// Stream begins a streaming execution with params bound to the `?`
// placeholders. It fails fast only on parameter arity; execution starts
// lazily, so every run-time failure (including a pre-canceled context)
// surfaces from Next. Concurrent Stream calls on one *Prepared are safe:
// every call builds only its own run state over the shared, read-only
// physical plan and graph, and parameter values live in that run state —
// which is what lets the plan cache hand one plan to many clients.
func (p *Prepared) Stream(ctx context.Context, params []sqltypes.Value) (*Stream, error) {
	return p.StreamWithOpts(ctx, params, StreamOpts{})
}

// StreamWithOpts is Stream with per-call execution overrides.
func (p *Prepared) StreamWithOpts(ctx context.Context, params []sqltypes.Value, opts StreamOpts) (*Stream, error) {
	if len(params) != p.NumParams {
		return nil, fmt.Errorf("engine: statement has %d parameter(s), got %d value(s)",
			p.NumParams, len(params))
	}
	trace.Metrics.Counter("engine.executions").Inc()
	s := &Stream{p: p, start: time.Now()}
	if reg := p.engine.registry; reg != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		s.cancel = cancel
		s.aq = reg.begin(p.Text, p.Chosen, cancel)
	}
	s.sp = p.engine.Tracer.Begin("execute", "engine", trace.Str("strategy", p.Strategy.String()))
	s.ex = p.plan.Executor(p.execOptions(ctx, params, opts))
	if s.aq != nil {
		s.aq.stats.Store(&s.ex.Stats)
	}
	s.it = s.ex.RunStream(p.Graph)
	return s, nil
}

// execOptions assembles the run-time executor options of one execution of
// p — the only place engine knobs, per-call overrides and the chosen
// strategy's reuse policy become exec.Options. Everything here is
// execution-time policy read per call, never captured by a cached plan.
// (RowMode is not: it is an input of the plan p holds.)
func (p *Prepared) execOptions(ctx context.Context, params []sqltypes.Value, o StreamOpts) exec.Options {
	e := p.engine
	opts := exec.Options{
		MaterializeCSE: e.MaterializeCSE,
		Reuse:          p.Chosen.row().reuse,
		Workers:        e.Workers,
		Tracer:         e.Tracer,
		Params:         params,
		Ctx:            ctx,
		Limits:         e.Limits,
	}
	if o.Workers != 0 {
		opts.Workers = o.Workers
	}
	if o.Limits != nil {
		opts.Limits = *o.Limits
	}
	return opts
}

// QueryStream prepares sql (through the plan cache when enabled) and
// begins streaming its result. DDL statements are not queries and are
// rejected; route them through Exec/CreateView.
func (e *Engine) QueryStream(ctx context.Context, sql string, s Strategy, params []sqltypes.Value) (*Stream, error) {
	p, err := e.PrepareCached(sql, s)
	if err != nil {
		return nil, err
	}
	return p.Stream(ctx, params)
}

// Next returns the next non-empty batch of rows, (nil, nil) on exhaustion,
// or the stream's terminal error (repeated on every later call). Batches
// may alias stored rows; do not mutate them.
func (s *Stream) Next() ([]storage.Row, error) { return s.pull(s.it.Next) }

// drain returns everything the stream has left as one slice and finishes
// it. The iterator hands a materialized result over whole, so collecting
// costs no copy beyond what batch-by-batch Next would have appended.
func (s *Stream) drain() ([]storage.Row, error) {
	rows, err := s.pull(s.it.Collect)
	s.finish(err)
	return rows, err
}

// pull takes one step on the iterator behind the engine's execution-side
// panic boundary: a panic on this stack is converted, counted, and traced,
// worker-goroutine panics arrive already converted by the scheduler and are
// noted at the same place, and either way the stream terminates with the
// typed *exec.PanicError — the engine stays usable.
func (s *Stream) pull(step func() ([]storage.Row, error)) (batch []storage.Row, err error) {
	if s.done {
		return nil, s.err
	}
	defer func() {
		if r := recover(); r != nil {
			pe := &exec.PanicError{Val: r, Stack: debug.Stack()}
			s.p.engine.notePanic("execute", s.p.Text, pe)
			s.finish(pe)
			batch, err = nil, pe
		}
	}()
	batch, err = step()
	if err != nil {
		var pe *exec.PanicError
		if errors.As(err, &pe) {
			s.p.engine.notePanic("execute", s.p.Text, pe)
		}
		s.finish(err)
		return nil, err
	}
	if batch == nil {
		s.finish(nil)
		return nil, nil
	}
	s.rows += int64(len(batch))
	return batch, nil
}

// finish latches the stream's terminal state once: histograms, span end,
// registry logging, context release.
func (s *Stream) finish(err error) {
	if s.done {
		return
	}
	s.done = true
	s.err = err
	s.it.Close()
	d := time.Since(s.start).Nanoseconds()
	histExec.Observe(d)
	if h := strategyHists[s.p.Chosen]; h != nil {
		h.Observe(d)
	}
	if err != nil {
		trace.Metrics.Counter("engine.execution_errors").Inc()
		s.sp.End(trace.Str("error", err.Error()))
	} else {
		s.sp.End(trace.Int("rows", s.rows))
	}
	if s.aq != nil {
		s.p.engine.registry.finish(s.aq, int(s.rows), err)
	}
	if s.cancel != nil {
		s.cancel()
	}
}

// Close ends the stream. Closing before exhaustion abandons it cleanly:
// the registry logs the rows streamed so far with no error. Close after
// exhaustion or error is a no-op.
func (s *Stream) Close() error {
	s.finish(s.err)
	return nil
}

// Columns returns the result column names.
func (s *Stream) Columns() []string { return s.p.Columns }

// ID returns the stream's registry query ID (killable via Engine.Kill),
// or zero when no registry is enabled.
func (s *Stream) ID() int64 {
	if s.aq == nil {
		return 0
	}
	return s.aq.id
}

// Err returns the terminal error, meaningful once Next returned (nil, nil)
// or an error, or after Close.
func (s *Stream) Err() error { return s.err }

// Stats snapshots the execution's work counters. Mid-stream it is a live
// (atomic) snapshot; after exhaustion it is the run's final counters.
func (s *Stream) Stats() exec.Stats { return s.ex.Stats.AtomicClone() }
