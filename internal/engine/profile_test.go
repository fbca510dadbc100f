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
