package exec

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Stats are the work counters the benchmark harness reports alongside wall
// time. They are engine-independent measures of the quantities the paper's
// analysis reasons about: how many times correlated subqueries were
// invoked (and with how many distinct bindings), how many base-table rows
// were touched, and how large the intermediate joins were.
type Stats struct {
	// SubqueryInvocations counts evaluations of correlated boxes — the
	// tuple-at-a-time work that decorrelation eliminates.
	SubqueryInvocations int64
	// DistinctInvocations counts distinct correlation bindings observed
	// across those invocations (the paper reports e.g. "3954 invocations,
	// of which only 2138 are distinct").
	DistinctInvocations int64
	// MemoHits counts correlated evaluations served from the memo cache:
	// a repeated binding of a subquery evaluated once per evaluation of an
	// enclosing box (only with Options.Reuse == ReuseBatch).
	MemoHits int64
	// BatchedSubqueries counts correlated evaluations served by the
	// set-at-a-time batch path instead of per-tuple iteration (only with
	// Options.Reuse == ReuseBatch). Each one is also a SubqueryInvocation.
	BatchedSubqueries int64
	// BatchExecutions counts subtree executions the batch path performed:
	// one per batch on the single-execution path, one per distinct
	// binding on the per-binding fallback. The fan-out collapse is the
	// ratio BatchedSubqueries / BatchExecutions.
	BatchExecutions int64
	// BoxEvals counts box evaluations of any kind.
	BoxEvals int64
	// RowsScanned counts base-table rows produced by full scans.
	RowsScanned int64
	// IndexLookups counts hash-index probes on base tables.
	IndexLookups int64
	// RowsJoined counts rows emitted by join steps inside select boxes.
	RowsJoined int64
	// RowsGrouped counts groups emitted by group boxes.
	RowsGrouped int64
	// HashBuilds counts hash tables built (joins and subquery probes).
	HashBuilds int64
	// CSERecomputes counts re-evaluations of a shared, uncorrelated box
	// that a materializing optimizer would have cached (Starburst always
	// recomputed; see §5.1).
	CSERecomputes int64
}

// bump atomically increments one Stats counter. Every increment on a path
// reachable from a parallel region goes through here; reading the struct
// plainly is safe once the scheduler's WaitGroup has joined.
func bump(c *int64, delta int64) {
	atomic.AddInt64(c, delta)
}

// AtomicClone copies the counters with atomic loads. It is the read side
// of bump: the engine's live-query registry snapshots a Stats that worker
// goroutines are still incrementing, which a plain struct copy would race
// on. After the scheduler has joined, a plain copy is fine.
func (s *Stats) AtomicClone() Stats {
	return Stats{
		SubqueryInvocations: atomic.LoadInt64(&s.SubqueryInvocations),
		DistinctInvocations: atomic.LoadInt64(&s.DistinctInvocations),
		MemoHits:            atomic.LoadInt64(&s.MemoHits),
		BatchedSubqueries:   atomic.LoadInt64(&s.BatchedSubqueries),
		BatchExecutions:     atomic.LoadInt64(&s.BatchExecutions),
		BoxEvals:            atomic.LoadInt64(&s.BoxEvals),
		RowsScanned:         atomic.LoadInt64(&s.RowsScanned),
		IndexLookups:        atomic.LoadInt64(&s.IndexLookups),
		RowsJoined:          atomic.LoadInt64(&s.RowsJoined),
		RowsGrouped:         atomic.LoadInt64(&s.RowsGrouped),
		HashBuilds:          atomic.LoadInt64(&s.HashBuilds),
		CSERecomputes:       atomic.LoadInt64(&s.CSERecomputes),
	}
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.SubqueryInvocations += o.SubqueryInvocations
	s.DistinctInvocations += o.DistinctInvocations
	s.MemoHits += o.MemoHits
	s.BatchedSubqueries += o.BatchedSubqueries
	s.BatchExecutions += o.BatchExecutions
	s.BoxEvals += o.BoxEvals
	s.RowsScanned += o.RowsScanned
	s.IndexLookups += o.IndexLookups
	s.RowsJoined += o.RowsJoined
	s.RowsGrouped += o.RowsGrouped
	s.HashBuilds += o.HashBuilds
	s.CSERecomputes += o.CSERecomputes
}

// Work is a single scalar summary of effort: rows touched plus probes.
// It is the primary machine-independent series plotted by the harness.
func (s Stats) Work() int64 {
	return s.RowsScanned + s.IndexLookups + s.RowsJoined + s.RowsGrouped
}

// String renders the counters compactly for CLI output.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invocations=%d distinct=%d scanned=%d lookups=%d joined=%d grouped=%d boxes=%d hash-builds=%d cse-recomputes=%d",
		s.SubqueryInvocations, s.DistinctInvocations, s.RowsScanned, s.IndexLookups,
		s.RowsJoined, s.RowsGrouped, s.BoxEvals, s.HashBuilds, s.CSERecomputes)
	if s.MemoHits > 0 {
		fmt.Fprintf(&b, " memo-hits=%d", s.MemoHits)
	}
	if s.BatchedSubqueries > 0 {
		fmt.Fprintf(&b, " batched=%d batch-execs=%d", s.BatchedSubqueries, s.BatchExecutions)
	}
	return b.String()
}
