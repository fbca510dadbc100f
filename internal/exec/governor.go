package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// Limits are the per-query resource budgets of one Run. The zero value
// imposes no limits. Every limit is enforced at morsel-claim boundaries in
// the scheduler and at box boundaries in the operators, so trip latency is
// bounded by one morsel of leaf work even at Workers == 1. Limits are
// execution-time policy only: they never influence planning, which is why
// a cached plan prepared under one deadline runs correctly under another.
type Limits struct {
	// Timeout bounds one Run's wall clock, measured from Run entry. It
	// combines with any Options.Ctx deadline: the earlier one wins.
	Timeout time.Duration
	// MaxOutputRows caps the rows of the final result (checked at the
	// root, before ORDER BY/LIMIT trimming). Exceeding it is ErrRowBudget.
	MaxOutputRows int64
	// MaxIntermediateRows caps the total rows the executor materializes
	// while evaluating the plan: exactly the sum of Stats.RowsScanned,
	// Stats.RowsJoined, and Stats.RowsGrouped, which lets tests pin the
	// trip boundary. Exceeding it is ErrRowBudget.
	MaxIntermediateRows int64
	// MaxTrackedBytes caps the approximate bytes held in the executor's
	// materializations: hash-join and subquery hash builds, memo
	// entries, CSE caches, and the batch path's bindings relation and
	// partitioned results. Exceeding it is ErrMemBudget.
	MaxTrackedBytes int64
}

// Enabled reports whether any limit is set.
func (l Limits) Enabled() bool {
	return l.Timeout > 0 || l.MaxOutputRows > 0 || l.MaxIntermediateRows > 0 || l.MaxTrackedBytes > 0
}

// Typed sentinel errors of query-lifecycle governance. They unwind through
// parallel regions via the scheduler's deterministic min-index error
// machinery and are classified with errors.Is at the engine boundary.
var (
	// ErrCanceled reports that Options.Ctx was canceled mid-run.
	ErrCanceled = errors.New("exec: query canceled")
	// ErrDeadlineExceeded reports that the Limits.Timeout or the
	// Options.Ctx deadline passed mid-run.
	ErrDeadlineExceeded = errors.New("exec: query deadline exceeded")
	// ErrRowBudget reports a MaxOutputRows or MaxIntermediateRows trip.
	ErrRowBudget = errors.New("exec: row budget exceeded")
	// ErrMemBudget reports a MaxTrackedBytes trip.
	ErrMemBudget = errors.New("exec: memory budget exceeded")
)

// ErrPanic marks errors produced by recovering an operator panic; match it
// with errors.Is. The concrete error is a *PanicError carrying the stack.
var ErrPanic = errors.New("exec: operator panic")

// PanicError is a recovered operator panic converted to an error: the
// scheduler recovers panics inside morsel workers (a goroutine panic would
// otherwise kill the process) and the engine boundary recovers panics on
// the caller's own stack.
type PanicError struct {
	// Val is the recovered panic value.
	Val any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("exec: operator panic: %v", e.Val) }

// Is lets errors.Is(err, ErrPanic) classify recovered panics.
func (e *PanicError) Is(target error) bool { return target == ErrPanic }

// governor enforces one Run's cancellation, deadline, and budgets. A nil
// *governor (no ctx, no limits) disables every check at the cost of one
// pointer comparison. All methods are safe from concurrent morsel workers:
// the accounting is atomic, and the first trip is latched so every
// subsequent checkpoint reports the same error.
type governor struct {
	ctx         context.Context
	done        <-chan struct{}
	deadline    time.Time
	hasDeadline bool

	maxOut   int64
	maxInter int64
	maxBytes int64

	rows  atomic.Int64
	bytes atomic.Int64

	tripped atomic.Bool
	tripErr atomic.Value // error; written once under the tripped latch
}

// newGovernor builds the governor for one Run, or nil when ctx and limits
// impose nothing. The Timeout deadline is anchored at the call (Run entry).
func newGovernor(ctx context.Context, lim Limits) *governor {
	g := &governor{}
	active := false
	if ctx != nil {
		if ctx.Done() != nil {
			g.ctx = ctx
			g.done = ctx.Done()
			active = true
		}
		if d, ok := ctx.Deadline(); ok {
			g.deadline, g.hasDeadline = d, true
			active = true
		}
	}
	if lim.Timeout > 0 {
		d := time.Now().Add(lim.Timeout)
		if !g.hasDeadline || d.Before(g.deadline) {
			g.deadline = d
		}
		g.hasDeadline = true
		active = true
	}
	if lim.MaxOutputRows > 0 {
		g.maxOut = lim.MaxOutputRows
		active = true
	}
	if lim.MaxIntermediateRows > 0 {
		g.maxInter = lim.MaxIntermediateRows
		active = true
	}
	if lim.MaxTrackedBytes > 0 {
		g.maxBytes = lim.MaxTrackedBytes
		active = true
	}
	if !active {
		return nil
	}
	return g
}

// trip latches err as the run's governance failure and returns the latched
// error (the first trip wins, so racing workers all report one cause).
func (g *governor) trip(err error) error {
	if g.tripped.CompareAndSwap(false, true) {
		g.tripErr.Store(err)
		return err
	}
	// Another worker latched first; spin-free read is fine because the
	// CAS winner stores before any loser can observe tripped == true...
	// except in the tiny CAS-to-Store window, so fall back to our error.
	if e, ok := g.tripErr.Load().(error); ok {
		return e
	}
	return err
}

// checkpoint polls cancellation and the deadline. It is called at every
// morsel claim and box evaluation, so its cost matters: a latched trip or
// nil governor returns immediately, the ctx poll is one channel select,
// and the deadline poll is one time.Now.
func (g *governor) checkpoint() error {
	if g == nil {
		return nil
	}
	if g.tripped.Load() {
		if e, ok := g.tripErr.Load().(error); ok {
			return e
		}
	}
	if g.done != nil {
		select {
		case <-g.done:
			return g.trip(ctxErr(g.ctx))
		default:
		}
	}
	if g.hasDeadline && !time.Now().Before(g.deadline) {
		return g.trip(ErrDeadlineExceeded)
	}
	return nil
}

// ctxErr maps a context failure to the executor's typed sentinels.
func ctxErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrDeadlineExceeded
	}
	return ErrCanceled
}

// addRows accounts n intermediate rows against MaxIntermediateRows.
func (g *governor) addRows(n int64) error {
	if g == nil || g.maxInter == 0 {
		return nil
	}
	if total := g.rows.Add(n); total > g.maxInter {
		return g.trip(fmt.Errorf("%w: %d intermediate rows over budget %d", ErrRowBudget, total, g.maxInter))
	}
	return nil
}

// addBytes accounts n tracked bytes against MaxTrackedBytes.
func (g *governor) addBytes(n int64) error {
	if g == nil || g.maxBytes == 0 {
		return nil
	}
	if total := g.bytes.Add(n); total > g.maxBytes {
		return g.trip(fmt.Errorf("%w: %d tracked bytes over budget %d", ErrMemBudget, total, g.maxBytes))
	}
	return nil
}

// checkOutput enforces MaxOutputRows on a materialized root result.
func (g *governor) checkOutput(n int) error {
	return g.checkOutputTotal(int64(n))
}

// checkOutputTotal enforces MaxOutputRows against a cumulative output-row
// count — the streaming iterator calls it per batch with its running
// total, so the trip condition (total exceeds the budget) is identical to
// the materialized check, just observed at the batch that crosses it.
func (g *governor) checkOutputTotal(n int64) error {
	if g == nil || g.maxOut == 0 || n <= g.maxOut {
		return nil
	}
	return g.trip(fmt.Errorf("%w: %d output rows over budget %d", ErrRowBudget, n, g.maxOut))
}

// govRows is the operator-side accounting hook; call sites are exactly the
// places that bump Stats.RowsScanned, RowsJoined, and RowsGrouped, so at
// run end the governed total equals their sum — which is what lets tests
// pin the exact trip boundary.
func (ex *Exec) govRows(n int) error {
	if ex.gov == nil {
		return nil
	}
	return ex.gov.addRows(int64(n))
}

// govBytes accounts an approximate materialization size. The estimate is
// computed only when a byte budget is armed, so unbudgeted runs never scan
// row contents.
func (ex *Exec) govBytes(rows []storage.Row) error {
	if ex.gov == nil || ex.gov.maxBytes == 0 {
		return nil
	}
	return ex.gov.addBytes(rowsBytes(rows))
}

// govAddBytes charges n pre-computed tracked bytes — the batch path's
// bindings relation, whose size is the encoded key lengths rather than a
// row set.
func (ex *Exec) govAddBytes(n int64) error {
	if ex.gov == nil {
		return nil
	}
	return ex.gov.addBytes(n)
}

// rowsBytes approximates the in-memory size of a row set: a fixed
// per-value overhead plus string payloads. It is an accounting model, not
// an allocator measurement — the point is a monotone, deterministic proxy
// that budget tests can pin.
func rowsBytes(rows []storage.Row) int64 {
	const perValue = 24 // Value struct minus string payload, rounded
	var n int64
	for _, r := range rows {
		n += int64(len(r)) * perValue
		for _, v := range r {
			if v.K == sqltypes.KindString {
				n += int64(len(v.S))
			}
		}
	}
	return n
}

// classifyGovernance maps a governed failure to its metrics counter:
// exec.canceled counts cancellations and deadline trips, exec.budget_trips
// counts row/memory budget trips.
func classifyGovernance(err error) (counter string, ok bool) {
	switch {
	case errors.Is(err, ErrCanceled), errors.Is(err, ErrDeadlineExceeded):
		return "exec.canceled", true
	case errors.Is(err, ErrRowBudget), errors.Is(err, ErrMemBudget):
		return "exec.budget_trips", true
	}
	return "", false
}
