package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/sqltypes"
	"decorr/internal/tpcd"
	"decorr/internal/trace"
)

// counterDelta measures how much a process-wide metric moves across f.
// The metric tests must not run in parallel with each other.
func counterDelta(name string, f func()) int64 {
	before := trace.Metrics.Counter(name).Value()
	f()
	return trace.Metrics.Counter(name).Value() - before
}

// Satellite: Exec used to parse every statement twice (once to classify
// it, once inside CreateView/Prepare). Pin the fix with the parse metric.
func TestExecParsesOnce(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	if d := counterDelta("engine.parses", func() {
		if _, _, err := e.Exec("select name from emp", engine.NI); err != nil {
			t.Fatal(err)
		}
	}); d != 1 {
		t.Fatalf("query Exec parsed %d times, want 1", d)
	}
	if d := counterDelta("engine.parses", func() {
		if _, _, err := e.Exec("create view pv as select name from emp", engine.NI); err != nil {
			t.Fatal(err)
		}
	}); d != 1 {
		t.Fatalf("CREATE VIEW Exec parsed %d times, want 1", d)
	}
	// Auto prepares two plans but still parses once.
	if d := counterDelta("engine.parses", func() {
		if _, _, err := e.Exec(tpcd.ExampleQuery, engine.Auto); err != nil {
			t.Fatal(err)
		}
	}); d != 1 {
		t.Fatalf("Auto Exec parsed %d times, want 1", d)
	}
}

// Tentpole acceptance: with the cache warm, re-executing a statement
// skips parse, semant, and rewrite entirely — engine.prepares and
// engine.parses stay flat while plancache.hits climbs.
func TestWarmExecSkipsPreparation(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	e.EnablePlanCache(64)
	const q = "select name from emp where building = ?"
	cold, _, err := e.ExecParams(q, engine.Magic, []sqltypes.Value{str("B1")})
	if err != nil {
		t.Fatal(err)
	}
	var warm []string
	parses := counterDelta("engine.parses", func() {
		prepares := counterDelta("engine.prepares", func() {
			hits := counterDelta("plancache.hits", func() {
				for i := 0; i < 5; i++ {
					rows, _, err := e.ExecParams(q, engine.Magic, []sqltypes.Value{str("B1")})
					if err != nil {
						t.Fatal(err)
					}
					warm = multiset(rows)
				}
			})
			if hits != 5 {
				t.Fatalf("plancache.hits moved %d, want 5", hits)
			}
		})
		if prepares != 0 {
			t.Fatalf("engine.prepares moved %d on warm executions, want 0", prepares)
		}
	})
	if parses != 0 {
		t.Fatalf("engine.parses moved %d on warm executions, want 0", parses)
	}
	sameRows(t, "warm == cold", warm, multiset(cold))
}

// A reformatted spelling of a cached query must hit via the normalized
// key: one extra parse to discover the normal form, but no new prepare.
func TestCacheNormalizedSpelling(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	e.EnablePlanCache(64)
	if _, _, err := e.Exec("select name from emp where building = 'B1'", engine.NI); err != nil {
		t.Fatal(err)
	}
	if d := counterDelta("engine.prepares", func() {
		if _, _, err := e.Exec("SELECT  name\nFROM emp  WHERE building = 'B1'", engine.NI); err != nil {
			t.Fatal(err)
		}
	}); d != 0 {
		t.Fatalf("reformatted spelling re-prepared (%d), want normalized-key hit", d)
	}
	// And the second spelling is now cached verbatim: no parse either.
	if d := counterDelta("engine.parses", func() {
		if _, _, err := e.Exec("SELECT  name\nFROM emp  WHERE building = 'B1'", engine.NI); err != nil {
			t.Fatal(err)
		}
	}); d != 0 {
		t.Fatalf("second spelling not cached under its raw text (%d parses)", d)
	}
}

// Different strategies and knob settings must not share plans: one case
// per component of the cache key. Flipping the component must prepare
// afresh; flipping it back must hit the plan cached before the flip.
// (CoreOpts.EliminateSupplementary is not a component: the strategy owns
// it, so setting it neither changes the plan nor splits the cache.)
func TestCacheKeySeparatesStrategiesAndKnobs(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	e.EnablePlanCache(64)
	q := tpcd.ExampleQuery
	s := engine.Magic
	prepares := func() int64 {
		return counterDelta("engine.prepares", func() {
			if _, _, err := e.Exec(q, s); err != nil {
				t.Fatal(err)
			}
		})
	}
	prepares() // warm the baseline plan
	for _, c := range []struct {
		component  string
		flip, back func()
	}{
		{"s", func() { s = engine.OptMagic }, func() { s = engine.Magic }},
		{"de", func() { e.CoreOpts.DecorrelateExistential = false }, func() { e.CoreOpts.DecorrelateExistential = true }},
		{"oj", func() { e.CoreOpts.UseOuterJoin = false }, func() { e.CoreOpts.UseOuterJoin = true }},
		{"ms", func() { e.MagicSets = true }, func() { e.MagicSets = false }},
		{"cse", func() { e.MaterializeCSE = false }, func() { e.MaterializeCSE = true }},
		{"rm", func() { e.RowMode = true }, func() { e.RowMode = false }},
	} {
		c.flip()
		if prepares() == 0 {
			t.Errorf("%s: flip served the old plan", c.component)
		}
		c.back()
		if d := prepares(); d != 0 {
			t.Errorf("%s: restoring the knob re-prepared (%d), want the cached plan", c.component, d)
		}
	}
	e.CoreOpts.EliminateSupplementary = true
	if d := prepares(); d != 0 {
		t.Errorf("CoreOpts.EliminateSupplementary split the cache (%d prepares); the strategy owns it", d)
	}
}

// Stale-plan invalidation: after view DDL, cached plans that inlined the
// old definition must not be served.
func TestCacheInvalidatedByViewDDL(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	e.EnablePlanCache(64)
	if err := e.CreateView("create view vb as select name from emp where building = 'B1'"); err != nil {
		t.Fatal(err)
	}
	epoch := e.Epoch()
	rows, _, err := e.Exec("select name from vb", engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "v1", multiset(rows), []string{"anne", "bob"})
	// Redefine the view; the epoch must move and the next execution must
	// see the new definition, not the cached plan.
	if err := e.CreateView("create view vb as select name from emp where building = 'B3'"); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() == epoch {
		t.Fatal("CreateView did not bump the epoch")
	}
	inval := counterDelta("plancache.invalidations", func() {
		rows, _, err = e.Exec("select name from vb", engine.NI)
		if err != nil {
			t.Fatal(err)
		}
	})
	sameRows(t, "v2", multiset(rows), []string{"fay"})
	if inval == 0 {
		t.Fatal("stale plan was not counted as invalidated")
	}
	// DropView also bumps: the query must now fail instead of serving the
	// cached plan for the dropped view.
	e.DropView("vb")
	if _, _, err := e.Exec("select name from vb", engine.NI); err == nil {
		t.Fatal("query over dropped view served from cache")
	}
}

// A tracer opts out of the cache: every traced run must go through the
// full pipeline (the trace serialization contract).
func TestTracerBypassesCache(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	e.EnablePlanCache(64)
	if _, _, err := e.Exec(tpcd.ExampleQuery, engine.Magic); err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRingSink(0)
	e.Tracer = trace.New(ring)
	if d := counterDelta("engine.prepares", func() {
		if _, _, err := e.Exec(tpcd.ExampleQuery, engine.Magic); err != nil {
			t.Fatal(err)
		}
	}); d == 0 {
		t.Fatal("traced execution served a cached plan")
	}
	for _, want := range []string{"parse", "semant", "execute"} {
		found := false
		for _, ev := range ring.Events() {
			if ev.Name == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("traced cached-engine run missing %q span", want)
		}
	}
}

// Many goroutines hammering one cached engine with a mix of parameterized
// statements: results must match an uncached engine (run with -race).
func TestCachedEngineConcurrentClients(t *testing.T) {
	db := tpcd.EmpDept()
	cachedE := engine.New(db)
	cachedE.EnablePlanCache(32)
	plainE := engine.New(db)
	queries := []string{
		"select name from emp where building = ?",
		"select name from dept where budget < ? order by name",
		tpcd.ExampleQuery,
	}
	params := [][]sqltypes.Value{
		{str("B2")},
		{intv(10000)},
		nil,
	}
	want := make([][]string, len(queries))
	for i := range queries {
		rows, _, err := plainE.ExecParams(queries[i], engine.Magic, params[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = multiset(rows)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (w + i) % len(queries)
				rows, _, err := cachedE.ExecParams(queries[k], engine.Magic, params[k])
				if err != nil {
					t.Error(err)
					return
				}
				got := multiset(rows)
				if fmt.Sprint(got) != fmt.Sprint(want[k]) {
					t.Errorf("query %d: got %v want %v", k, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
