package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// orderedRows renders rows in result order (multiset sorts; streaming must
// also preserve order).
func orderedRows(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// drainStream collects a QueryStream into a slice, returning the stream's
// final stats alongside.
func drainStream(ctx context.Context, e *engine.Engine, sql string, s engine.Strategy) ([]storage.Row, exec.Stats, error) {
	st, err := e.QueryStream(ctx, sql, s, nil)
	if err != nil {
		return nil, exec.Stats{}, err
	}
	defer st.Close()
	var out []storage.Row
	for {
		batch, err := st.Next()
		if err != nil {
			return out, st.Stats(), err
		}
		if batch == nil {
			return out, st.Stats(), nil
		}
		out = append(out, batch...)
	}
}

// Query is a Stream drained in one pull (the iterator hands a materialized
// result over whole); QueryStream pulls batch by batch. Both must produce
// identical ordered rows and identical stats across strategies ×
// workers, over query shapes covering all three streaming modes (scan,
// tuple, materialized).
func TestStreamMatchesQueryDifferential(t *testing.T) {
	db := tpcd.EmpDeptSized(40, 400, 6, 11)
	cases := []struct {
		name, sql  string
		strategies []engine.Strategy
	}{
		{"scan-mode", "select name, building from emp where building <> 'B1'",
			[]engine.Strategy{engine.NI}},
		{"scan-mode-distinct", "select distinct building from emp",
			[]engine.Strategy{engine.NI}},
		{"tuple-mode-join", "select a.name, b.name from dept a, dept b where a.building = b.building",
			[]engine.Strategy{engine.NI}},
		{"tuple-mode-correlated", tpcd.ExampleQuery,
			[]engine.Strategy{engine.NI, engine.NIBatch, engine.Magic, engine.OptMagic, engine.Kim, engine.Dayal}},
		{"materialized-orderby", "select name from emp order by name desc",
			[]engine.Strategy{engine.NI}},
		{"materialized-group", "select building, count(*) from emp group by building",
			[]engine.Strategy{engine.NI, engine.Magic}},
	}
	for _, tc := range cases {
		for _, s := range tc.strategies {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/workers=%d", tc.name, s, workers)
				e := engine.New(db)
				e.Workers = workers
				rows, stats, err := e.Query(tc.sql, s)
				if err != nil {
					t.Fatalf("%s: Query: %v", name, err)
				}
				sRows, sStats, sErr := drainStream(context.Background(), e, tc.sql, s)
				if sErr != nil {
					t.Fatalf("%s: QueryStream: %v", name, sErr)
				}
				want, got := orderedRows(rows), orderedRows(sRows)
				if len(want) != len(got) {
					t.Fatalf("%s: stream yielded %d rows, Query %d", name, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s: row %d differs: stream %q, query %q", name, i, got[i], want[i])
					}
				}
				if sStats != *stats {
					t.Errorf("%s: stats diverge: stream %+v, query %+v", name, sStats, *stats)
				}
			}
		}
	}
}

// Errors must match between the two paths: same typed class, and for plain
// evaluation errors the same message — under NIBatch too, where a failing
// binding's error is shared with every worker waiting on that memo entry
// (the last case: its inner subquery is correlated only to the outer block,
// so the middle box's evaluations share it through the memo).
func TestStreamMatchesQueryErrors(t *testing.T) {
	db := tpcd.EmpDept()
	cases := []struct {
		name, sql string
	}{
		{"scan-mode-projection-error", "select budget / (num_emps - num_emps) from dept"},
		{"tuple-mode-correlated-error", `
			select d.name from dept d
			where d.budget / (d.num_emps - d.num_emps) >
				(select count(*) from emp e where e.building = d.building)`},
		{"error-inside-correlated-subquery", `
			select d.name from dept d
			where 0 < (select count(*) from emp e
				where e.building = d.building and d.budget / (d.num_emps - d.num_emps) > 0)`},
		{"error-inside-ancestor-correlated-subquery", `
			select d.name from dept d
			where exists (select * from dept d2
				where d2.name = d.name
				  and exists (select * from emp e
					where e.building = d.building and d.budget / (d.num_emps - d.num_emps) > 0))`},
	}
	for _, tc := range cases {
		for _, s := range []engine.Strategy{engine.NI, engine.NIBatch} {
			var first string
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/workers=%d", tc.name, s, workers)
				e := engine.New(db)
				e.Workers = workers
				_, _, qErr := e.Query(tc.sql, s)
				_, _, sErr := drainStream(context.Background(), e, tc.sql, s)
				if qErr == nil || sErr == nil {
					t.Fatalf("%s: expected both paths to fail: query=%v stream=%v", name, qErr, sErr)
				}
				if qErr.Error() != sErr.Error() {
					t.Errorf("%s: error text diverges: stream %q, query %q", name, sErr, qErr)
				}
				if first == "" {
					first = qErr.Error()
				} else if qErr.Error() != first {
					t.Errorf("%s: error text depends on the worker count: %q vs %q", name, qErr, first)
				}
			}
		}
	}
}

// A MaxOutputRows trip surfaces from the stream as the same typed
// ErrRowBudget, and the rows streamed before the trip are a prefix of the
// unbudgeted result.
func TestStreamOutputBudgetTrip(t *testing.T) {
	db := tpcd.EmpDeptSized(40, 4000, 6, 11)
	const sql = "select name from emp"
	for _, workers := range []int{1, 4} {
		e := engine.New(db)
		e.Workers = workers
		full, _, err := e.Query(sql, engine.NI)
		if err != nil {
			t.Fatal(err)
		}
		e.Limits = exec.Limits{MaxOutputRows: 1500}
		if _, _, err := e.Query(sql, engine.NI); !errors.Is(err, exec.ErrRowBudget) {
			t.Fatalf("workers=%d: Query under budget: got %v, want ErrRowBudget", workers, err)
		}
		got, _, sErr := drainStream(context.Background(), e, sql, engine.NI)
		if !errors.Is(sErr, exec.ErrRowBudget) {
			t.Fatalf("workers=%d: stream under budget: got %v, want ErrRowBudget", workers, sErr)
		}
		if len(got) > 1500 {
			t.Fatalf("workers=%d: stream emitted %d rows past a 1500-row budget", workers, len(got))
		}
		wantPrefix := orderedRows(full[:len(got)])
		gotRows := orderedRows(got)
		for i := range gotRows {
			if gotRows[i] != wantPrefix[i] {
				t.Fatalf("workers=%d: streamed prefix diverges at row %d", workers, i)
			}
		}
		// The boundary itself is exact: a budget of the full result size
		// streams to completion.
		e.Limits = exec.Limits{MaxOutputRows: int64(len(full))}
		all, _, sErr := drainStream(context.Background(), e, sql, engine.NI)
		if sErr != nil || len(all) != len(full) {
			t.Fatalf("workers=%d: budget == result size: rows=%d err=%v", workers, len(all), sErr)
		}
	}
}

// Mid-stream cancellation: after the first batch, canceling the context
// terminates the stream with ErrCanceled within one morsel of work.
func TestStreamMidStreamCancel(t *testing.T) {
	db := tpcd.EmpDeptSized(40, 8000, 6, 11)
	for _, workers := range []int{1, 4} {
		e := engine.New(db)
		e.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		st, err := e.QueryStream(ctx, "select name from emp", engine.NI, nil)
		if err != nil {
			t.Fatal(err)
		}
		first, err := st.Next()
		if err != nil || len(first) == 0 {
			t.Fatalf("workers=%d: first batch: rows=%d err=%v", workers, len(first), err)
		}
		cancel()
		var sErr error
		for {
			batch, err := st.Next()
			if err != nil {
				sErr = err
				break
			}
			if batch == nil {
				break
			}
		}
		if !errors.Is(sErr, exec.ErrCanceled) {
			t.Fatalf("workers=%d: got %v, want ErrCanceled after mid-stream cancel", workers, sErr)
		}
		// The terminal error latches.
		if _, err := st.Next(); !errors.Is(err, exec.ErrCanceled) {
			t.Fatalf("workers=%d: error did not latch: %v", workers, err)
		}
		st.Close()
	}
}

// Mid-stream Kill: a streaming query appears in the registry while open
// and dies with ErrCanceled when killed by ID; the log records the kill.
func TestStreamKillMidStream(t *testing.T) {
	db := tpcd.EmpDeptSized(40, 8000, 6, 11)
	e := engine.New(db)
	e.EnableRegistry(8)
	st, err := e.QueryStream(context.Background(), "select name from emp", engine.NI, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	id := st.ID()
	if id == 0 {
		t.Fatal("stream has no registry ID with registry enabled")
	}
	found := false
	for _, aq := range e.Registry().Active() {
		if aq.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("open stream %d not listed in Registry.Active", id)
	}
	if !e.Kill(id) {
		t.Fatalf("Kill(%d) reported not found for a live stream", id)
	}
	var sErr error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		batch, err := st.Next()
		if err != nil {
			sErr = err
			break
		}
		if batch == nil {
			break
		}
	}
	if !errors.Is(sErr, exec.ErrCanceled) {
		t.Fatalf("killed stream: got %v, want ErrCanceled", sErr)
	}
	var logged *engine.QueryLogEntry
	for _, le := range e.Registry().Log() {
		if le.ID == id {
			le := le
			logged = &le
		}
	}
	if logged == nil {
		t.Fatalf("killed stream %d missing from the query log", id)
	}
	if logged.Trip != "canceled" {
		t.Errorf("killed stream logged trip %q, want %q", logged.Trip, "canceled")
	}
}

// Regression: results served from an already-materialized slice claim no
// morsels, so the batch boundary itself must poll the governor. Two such
// shapes: an identity projection over a base table (the planner collapses
// it to a bare table box, which fails the streaming gate) and an ORDER BY
// root. Before the fix, Kill against either was latched but never
// observed — the stream drained every remaining batch and finished clean,
// with no error and no "canceled" trip in the log.
func TestStreamKillWhileServingMaterialized(t *testing.T) {
	db := tpcd.EmpDeptSized(40, 8000, 6, 11)
	for _, sql := range []string{
		"select name, building from emp",     // identity projection: base-table root
		"select name from emp order by name", // global pass: materialized mode
	} {
		e := engine.New(db)
		e.EnableRegistry(8)
		st, err := e.QueryStream(context.Background(), sql, engine.NI, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		first, err := st.Next()
		if err != nil || len(first) == 0 {
			t.Fatalf("%s: first batch: rows=%d err=%v", sql, len(first), err)
		}
		if !e.Kill(st.ID()) {
			t.Fatalf("%s: Kill(%d) reported not found", sql, st.ID())
		}
		// The very next batch boundary must observe the kill: nothing
		// between here and there claims a morsel.
		batch, err := st.Next()
		if !errors.Is(err, exec.ErrCanceled) {
			t.Fatalf("%s: Next after kill: rows=%d err=%v, want ErrCanceled", sql, len(batch), err)
		}
		var logged *engine.QueryLogEntry
		for _, le := range e.Registry().Log() {
			if le.ID == st.ID() {
				le := le
				logged = &le
			}
		}
		if logged == nil || logged.Trip != "canceled" {
			t.Errorf("%s: kill not logged as a canceled trip: %+v", sql, logged)
		}
		st.Close()
	}
}

// Abandoning a stream (Close before exhaustion) logs the partial row count
// with no error and leaves the engine fully usable.
func TestStreamCloseEarly(t *testing.T) {
	db := tpcd.EmpDeptSized(40, 8000, 6, 11)
	e := engine.New(db)
	e.EnableRegistry(8)
	st, err := e.QueryStream(context.Background(), "select name from emp", engine.NI, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	id := st.ID()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(e.Registry().Active()) != 0 {
		t.Fatal("closed stream still listed as active")
	}
	var logged *engine.QueryLogEntry
	for _, le := range e.Registry().Log() {
		if le.ID == id {
			le := le
			logged = &le
		}
	}
	if logged == nil {
		t.Fatal("abandoned stream missing from the query log")
	}
	if logged.Err != "" || logged.RowsOut != len(batch) {
		t.Errorf("abandoned stream logged err=%q rows=%d, want clean with %d rows",
			logged.Err, logged.RowsOut, len(batch))
	}
	rows, _, err := e.Query("select name from emp where building = 'B1'", engine.NI)
	if err != nil {
		t.Fatalf("engine unusable after abandoned stream: %v", err)
	}
	_ = rows
}

// Per-stream overrides: a session limit (StreamWithOpts) governs one
// stream without touching the engine's shared limits.
func TestStreamWithOptsOverridesLimits(t *testing.T) {
	db := tpcd.EmpDeptSized(40, 4000, 6, 11)
	e := engine.New(db)
	p, err := e.Prepare("select name from emp", engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.StreamWithOpts(context.Background(), nil,
		engine.StreamOpts{Workers: 1, Limits: &exec.Limits{MaxOutputRows: 100}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var sErr error
	for {
		batch, err := st.Next()
		if err != nil {
			sErr = err
			break
		}
		if batch == nil {
			break
		}
	}
	if !errors.Is(sErr, exec.ErrRowBudget) {
		t.Fatalf("per-stream budget: got %v, want ErrRowBudget", sErr)
	}
	if e.Limits.Enabled() {
		t.Fatal("per-stream limits leaked into the engine")
	}
	rows, _, err := e.Query("select name from emp", engine.NI)
	if err != nil || len(rows) != 4000 {
		t.Fatalf("engine limits disturbed: rows=%d err=%v", len(rows), err)
	}
}

// Parameterized streams bind `?` placeholders like RunParams (arity
// checked up front) and flow through the plan cache.
func TestStreamParamsThroughPlanCache(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	e.EnablePlanCache(16)
	const sql = "select name from emp where building = ?"
	p, err := e.PrepareCached(sql, engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := p.Stream(context.Background(), nil); err == nil {
		st.Close()
		t.Fatal("stream accepted missing parameter")
	}
	want, _, err := p.RunParams([]sqltypes.Value{sqltypes.NewString("B1")})
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.Stream(context.Background(), []sqltypes.Value{sqltypes.NewString("B1")})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var got []storage.Row
	for {
		batch, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		got = append(got, batch...)
	}
	w, g := orderedRows(want), orderedRows(got)
	if fmt.Sprint(w) != fmt.Sprint(g) {
		t.Fatalf("parameterized stream diverges:\n got %v\nwant %v", g, w)
	}
	// Warm path: the next stream of the same text is a cache hit.
	hits := counterDelta("plancache.hits", func() {
		st, err := e.QueryStream(context.Background(), sql, engine.NI,
			[]sqltypes.Value{sqltypes.NewString("B1")})
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	})
	if hits != 1 {
		t.Fatalf("warm QueryStream moved plancache.hits by %d, want 1", hits)
	}
}
