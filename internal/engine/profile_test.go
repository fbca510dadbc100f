package engine_test

import (
	"regexp"
	"strings"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/tpcd"
)

func TestExplainAnalyzeShowsNestedIteration(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	p, err := e.Prepare(tpcd.ExampleQuery, engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	// The correlated aggregate must show 4 evaluations (one per
	// low-budget department binding).
	if !regexp.MustCompile(`GROUPBY.*evals=4`).MatchString(out) {
		t.Errorf("nested iteration not visible in profile:\n%s", out)
	}
}

func TestExplainAnalyzeShowsCSERecomputation(t *testing.T) {
	e := engine.New(tpcd.Generate(tpcd.Config{SF: 0.1, Seed: 42}))
	e.MaterializeCSE = false // Starburst's recompute; engine.New materializes
	p, err := e.Prepare(tpcd.Query1, engine.Magic)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	// The supplementary table is referenced twice and recomputed.
	if !regexp.MustCompile(`\[SUPP\]\s+evals=2`).MatchString(out) {
		t.Errorf("SUPP recomputation not visible:\n%s", out)
	}
	// With materialization the second reference is served from cache.
	e.MaterializeCSE = true
	p, err = e.Prepare(tpcd.Query1, engine.Magic)
	if err != nil {
		t.Fatal(err)
	}
	out, err = p.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`\[SUPP\]\s+evals=1`).MatchString(out) {
		t.Errorf("materialized SUPP should evaluate once:\n%s", out)
	}
}

func TestExplainAnalyzeMagicHasNoRepeatedSubquery(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	p, err := e.Prepare(tpcd.ExampleQuery, engine.Magic)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "GROUPBY") && !strings.Contains(line, "evals=1") {
			t.Errorf("decorrelated aggregate evaluated more than once: %s", line)
		}
	}
}

// TestExplainAnalyzeShowsEngine pins the engine label on every select box
// line: a box that owns a correlated subquery runs columnar, RowMode says
// why it does not, and so does a read of a synthetic sys.* table.
func TestExplainAnalyzeShowsEngine(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	e.MountSystemCatalog()
	label := regexp.MustCompile(`^Box \d+: SELECT\s.* (col|row\((\w+)\))$`)
	analyze := func(sql string, s engine.Strategy) []string {
		t.Helper()
		p, err := e.Prepare(sql, s)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.ExplainAnalyze()
		if err != nil {
			t.Fatal(err)
		}
		var engines []string
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if !strings.Contains(line, ": SELECT") {
				continue
			}
			m := label.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("select box line without an engine label: %q", line)
			}
			engines = append(engines, m[1])
		}
		if len(engines) == 0 {
			t.Fatalf("no select box in:\n%s", out)
		}
		return engines
	}
	for _, s := range []engine.Strategy{engine.NI, engine.NIBatch} {
		for _, got := range analyze(tpcd.ExampleQuery, s) {
			if got != "col" {
				t.Errorf("%s: a select box runs %s, want col", s, got)
			}
		}
	}
	if got := analyze("select kind from sys.metrics", engine.NI); got[0] != "row(synthetic)" {
		t.Errorf("sys.metrics read runs %s, want row(synthetic)", got[0])
	}
	e.RowMode = true
	for _, got := range analyze(tpcd.ExampleQuery, engine.NI) {
		if got != "row(rowmode)" {
			t.Errorf("RowMode: a select box runs %s, want row(rowmode)", got)
		}
	}
}
