package exec

import (
	"fmt"
	"strings"
	"time"

	"decorr/internal/qgm"
	"decorr/internal/trace"
)

// BoxProfile accumulates per-box runtime counters when profiling is on.
type BoxProfile struct {
	// Evals counts how many times the box was evaluated (correlated boxes
	// evaluate once per binding; shared uncorrelated ones once per
	// reference under the recompute policy).
	Evals int64
	// RowsOut is the total number of rows the box produced across evals.
	RowsOut int64
	// Nanos is the total wall-clock time spent evaluating the box
	// (inclusive of its inputs, since box evaluation is recursive).
	Nanos int64
}

// Elapsed returns the accumulated wall time as a duration.
func (p BoxProfile) Elapsed() time.Duration { return time.Duration(p.Nanos) }

// EnableProfiling starts collecting per-box counters for subsequent Runs.
func (ex *Exec) EnableProfiling() {
	if ex.profile == nil {
		ex.profile = map[*qgm.Box]*BoxProfile{}
	}
}

// boxObs is an attached observer's view of one box evaluation in flight:
// the tracer span and the start time. The zero value — no tracer, no
// profiler — records nothing and costs nothing.
type boxObs struct {
	sp    *trace.Span
	start time.Time
}

// observe opens the observed part of one box evaluation; it is the
// envelope's (inBox's and the streamed root's) only tracer or profiler
// hook, so observing a run never changes which path evaluates a box.
func (ex *Exec) observe(b *qgm.Box) boxObs {
	var o boxObs
	if ex.opts.Tracer != nil {
		o.sp = ex.opts.Tracer.Begin(boxSpanName(b), "exec",
			trace.Int("box", int64(b.ID)), trace.Str("kind", b.Kind.String()))
	}
	if ex.profile != nil || o.sp != nil {
		o.start = time.Now()
	}
	return o
}

// end closes the span and records the profile line of an evaluation that
// produced rows rows (or failed with err). A base box's profile line is
// written by its read (scanBase, an index bind), never here.
func (o boxObs) end(ex *Exec, b *qgm.Box, rows int, err error) {
	if err != nil {
		o.sp.End(trace.Str("error", err.Error()))
		return
	}
	if o.start.IsZero() {
		return
	}
	if b.Kind != qgm.BoxBase {
		ex.recordProfile(b, rows, time.Since(o.start))
	}
	o.sp.End(trace.Int("rows", int64(rows)))
}

func (ex *Exec) recordProfile(b *qgm.Box, rows int, elapsed time.Duration) {
	if ex.profile == nil {
		return
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	p := ex.profile[b]
	if p == nil {
		p = &BoxProfile{}
		ex.profile[b] = p
	}
	p.Evals++
	p.RowsOut += int64(rows)
	p.Nanos += elapsed.Nanoseconds()
}

// BoxProfileOf returns the collected counters for a box (zero value when
// profiling was off or the box never evaluated).
func (ex *Exec) BoxProfileOf(b *qgm.Box) BoxProfile {
	if ex.profile == nil {
		return BoxProfile{}
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if p, ok := ex.profile[b]; ok {
		return *p
	}
	return BoxProfile{}
}

// boxSpanName labels a box's execution span.
func boxSpanName(b *qgm.Box) string {
	if b.Label != "" {
		return fmt.Sprintf("box %d %s [%s]", b.ID, b.Kind, b.Label)
	}
	if b.Kind == qgm.BoxBase && b.Table != nil {
		return fmt.Sprintf("box %d %s(%s)", b.ID, b.Kind, b.Table.Name)
	}
	return fmt.Sprintf("box %d %s", b.ID, b.Kind)
}

// FormatProfile renders the plan with per-box runtime annotations — the
// timed EXPLAIN ANALYZE view. Correlated subquery boxes show one eval per
// binding; the §5.1 CSE-recomputation behavior shows up as eval counts
// above one on shared boxes; time is cumulative wall-clock (inclusive of
// input evaluation). A select box ends with the engine its plan runs on:
// col, or row(<reason>) with colSelectable's reason.
func (ex *Exec) FormatProfile(g *qgm.Graph) string {
	var sb strings.Builder
	for _, b := range qgm.Boxes(g.Root) {
		p := ex.BoxProfileOf(b)
		tag := b.Label
		if tag != "" {
			tag = " [" + tag + "]"
		}
		fmt.Fprintf(&sb, "Box %d: %s%s  evals=%d rows=%d time=%s",
			b.ID, b.Kind, tag, p.Evals, p.RowsOut, p.Elapsed().Round(time.Microsecond))
		if plan := ex.plan.plans[b]; plan != nil {
			if plan.col {
				sb.WriteString(" col")
			} else {
				fmt.Fprintf(&sb, " row(%s)", plan.rowWhy)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
