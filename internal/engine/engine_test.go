package engine_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"decorr/internal/classic"
	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// multiset renders rows order-independently for differential comparison.
func multiset(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func query(t *testing.T, e *engine.Engine, sql string, s engine.Strategy) ([]string, *exec.Stats) {
	t.Helper()
	rows, stats, err := e.Query(sql, s)
	if err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	return multiset(rows), stats
}

func sameRows(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d\n got: %v\nwant: %v", name, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: row %d differs\n got %q\nwant %q", name, i, got[i], want[i])
			return
		}
	}
}

func TestExampleQueryAllStrategies(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	want, niStats := query(t, e, tpcd.ExampleQuery, engine.NI)
	sameRows(t, "NI ground truth", want, []string{"archives", "toys"})
	if niStats.SubqueryInvocations == 0 {
		t.Error("NI should invoke the correlated subquery")
	}
	for _, s := range []engine.Strategy{engine.NIBatch, engine.Dayal, engine.GanskiWong, engine.Magic, engine.OptMagic} {
		got, stats := query(t, e, tpcd.ExampleQuery, s)
		sameRows(t, s.String(), got, want)
		if s == engine.Magic || s == engine.OptMagic || s == engine.Dayal || s == engine.GanskiWong {
			if stats.SubqueryInvocations != 0 {
				t.Errorf("%s: still %d correlated invocations after decorrelation", s, stats.SubqueryInvocations)
			}
		}
	}
}

func TestKimCountBugReproduced(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	got, _ := query(t, e, tpcd.ExampleQuery, engine.Kim)
	// Kim's method loses the archives department: its building has no
	// employees, so the grouped temp table has no row for it, and the
	// join silently drops it — the historical COUNT bug, reproduced.
	sameRows(t, "Kim (COUNT bug)", got, []string{"toys"})
}

var tpcdTestDB = tpcd.Generate(tpcd.Config{SF: 0.1, Seed: 42})

func tpcdEngine(t *testing.T) *engine.Engine {
	t.Helper()
	return engine.New(tpcdTestDB)
}

func TestTPCDQueriesDifferential(t *testing.T) {
	e := tpcdEngine(t)
	cases := []struct {
		name, sql  string
		strategies []engine.Strategy
	}{
		{"Query1", tpcd.Query1, []engine.Strategy{engine.NIBatch, engine.Kim, engine.Dayal, engine.Magic, engine.OptMagic}},
		{"Query1b", tpcd.Query1b, []engine.Strategy{engine.NIBatch, engine.Kim, engine.Dayal, engine.Magic, engine.OptMagic}},
		{"Query2", tpcd.Query2, []engine.Strategy{engine.NIBatch, engine.Kim, engine.Dayal, engine.Magic, engine.OptMagic}},
		{"Query3", tpcd.Query3, []engine.Strategy{engine.NIBatch, engine.Magic, engine.OptMagic}},
		{"Query3Distinct", tpcd.Query3Distinct, []engine.Strategy{engine.NIBatch, engine.Magic, engine.OptMagic}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, _ := query(t, e, c.sql, engine.NI)
			if len(want) == 0 {
				t.Fatalf("NI produced no rows; the workload generator no longer matches the query constants")
			}
			for _, s := range c.strategies {
				got, _ := query(t, e, c.sql, s)
				sameRows(t, s.String(), got, want)
			}
		})
	}
}

func TestClassicApplicabilityLimits(t *testing.T) {
	e := tpcdEngine(t)
	// Query 3 is non-linear (UNION): "Neither Kim's nor Dayal's methods
	// can be applied" (§5.3).
	for _, s := range []engine.Strategy{engine.Kim, engine.Dayal} {
		if _, err := e.Prepare(tpcd.Query3, s); !errors.Is(err, classic.ErrNotApplicable) {
			t.Errorf("%s on Query3: got %v, want ErrNotApplicable", s, err)
		}
	}
	// Ganski/Wong cannot handle a multi-relation outer block.
	if _, err := e.Prepare(tpcd.Query1, engine.GanskiWong); !errors.Is(err, classic.ErrNotApplicable) {
		t.Errorf("GW on Query1: got %v, want ErrNotApplicable", err)
	}
}

func TestMagicEliminatesInvocations(t *testing.T) {
	e := tpcdEngine(t)
	for _, sql := range []string{tpcd.Query1, tpcd.Query1b, tpcd.Query2, tpcd.Query3} {
		_, ni, err := e.Query(sql, engine.NI)
		if err != nil {
			t.Fatal(err)
		}
		_, mag, err := e.Query(sql, engine.Magic)
		if err != nil {
			t.Fatal(err)
		}
		if ni.SubqueryInvocations == 0 {
			t.Error("NI: expected correlated invocations")
		}
		if mag.SubqueryInvocations != 0 {
			t.Errorf("Magic: %d correlated invocations remain", mag.SubqueryInvocations)
		}
	}
}

func TestMagicTraceStages(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	p, err := e.PrepareTraced(tpcd.ExampleQuery, engine.Magic)
	if err != nil {
		t.Fatal(err)
	}
	if p.Trace == nil || len(p.Trace.Steps) < 4 {
		t.Fatalf("expected at least 4 trace stages, got %+v", p.Trace)
	}
	var titles []string
	for _, s := range p.Trace.Steps {
		titles = append(titles, s.Title)
		if s.Plan == "" {
			t.Errorf("stage %q captured no plan", s.Title)
		}
	}
	joined := strings.Join(titles, "\n")
	for _, want := range []string{"supplementary", "magic table", "absorbed", "COUNT-bug"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace stages missing %q:\n%s", want, joined)
		}
	}
}

func TestQuery3DistinctBindings(t *testing.T) {
	e := tpcdEngine(t)
	_, ni, err := e.Query(tpcd.Query3, engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	// The correlation column (s_nation, Europe) has exactly 5 distinct
	// values — the crux of Figure 9.
	if ni.DistinctInvocations != 5 {
		t.Errorf("distinct bindings = %d, want 5 (European nations)", ni.DistinctInvocations)
	}
	if ni.SubqueryInvocations <= ni.DistinctInvocations {
		t.Errorf("expected many duplicate invocations, got %d total / %d distinct",
			ni.SubqueryInvocations, ni.DistinctInvocations)
	}
}

func TestMaterializeCSEKnob(t *testing.T) {
	e := tpcdEngine(t)
	if !e.MaterializeCSE {
		t.Fatal("engine.New should materialize shared boxes by default")
	}
	rowsM, mat, err := e.Query(tpcd.Query1, engine.Magic)
	if err != nil {
		t.Fatal(err)
	}
	e.MaterializeCSE = false
	rowsP, plain, err := e.Query(tpcd.Query1, engine.Magic)
	if err != nil {
		t.Fatal(err)
	}
	e.MaterializeCSE = true
	sameRows(t, "materialized vs recomputed", multiset(rowsM), multiset(rowsP))
	if plain.CSERecomputes == 0 {
		t.Error("Mag without materialization should recompute the supplementary CSE (§5.1)")
	}
	if mat.CSERecomputes != 0 {
		t.Errorf("materialized run still recomputed %d times", mat.CSERecomputes)
	}
	// A cached read evaluates nothing: it is not a box evaluation.
	if got, want := mat.BoxEvals, plain.BoxEvals-plain.CSERecomputes; got != want {
		t.Errorf("materialized run counted %d box evaluations, want %d (recomputing run's %d less its %d recomputes)",
			got, want, plain.BoxEvals, plain.CSERecomputes)
	}
}

func TestOptMagicAvoidsSupplementaryCSE(t *testing.T) {
	e := tpcdEngine(t)
	_, mag, err := e.Query(tpcd.Query2, engine.Magic)
	if err != nil {
		t.Fatal(err)
	}
	_, opt, err := e.Query(tpcd.Query2, engine.OptMagic)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Work() >= mag.Work() {
		t.Errorf("OptMag should do less work than Mag on Query2: opt=%d mag=%d", opt.Work(), mag.Work())
	}
}

// A Prepared plan is immutable at run time: concurrent Runs must agree.
func TestConcurrentRuns(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	p, err := e.Prepare(tpcd.ExampleQuery, engine.Magic)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < 50; i++ {
				rows, _, err := p.Run()
				if err != nil {
					errs <- err
					return
				}
				if len(rows) != len(want) {
					errs <- fmt.Errorf("row count changed: %d vs %d", len(rows), len(want))
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestStrategyNamesAndColumns(t *testing.T) {
	want := map[engine.Strategy]string{
		engine.NI: "NI", engine.NIBatch: "NIBatch", engine.Kim: "Kim",
		engine.Dayal: "Dayal", engine.GanskiWong: "GW",
		engine.Magic: "Mag", engine.OptMagic: "OptMag", engine.Auto: "Auto",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q want %q", int(s), s.String(), name)
		}
	}
	e := engine.New(tpcd.EmpDept())
	p, err := e.Prepare("select name as who, budget from dept", engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Columns) != 2 || p.Columns[0] != "who" || p.Columns[1] != "budget" {
		t.Errorf("columns = %v", p.Columns)
	}
}
