package engine_test

import (
	"strings"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/tpcd"
	"decorr/internal/trace"
)

// TestStrategyTableInvariants checks what every consumer of the strategy
// table relies on: names round-trip through ParseStrategy in any case,
// names and labels are non-empty and unique, each strategy has its
// exec.strategy.* histogram, and whatever Auto resolves to is itself a
// declared strategy.
func TestStrategyTableInvariants(t *testing.T) {
	declared := map[engine.Strategy]bool{}
	names, labels := map[string]bool{}, map[string]bool{}
	snap := trace.Metrics.Snapshot()
	for _, s := range engine.Strategies {
		declared[s] = true
		name, label := s.Name(), s.String()
		if name == "" || label == "" || strings.HasPrefix(label, "Strategy(") {
			t.Errorf("strategy %d: name %q, label %q", int(s), name, label)
		}
		if names[name] || labels[label] {
			t.Errorf("strategy %d: duplicate name %q or label %q", int(s), name, label)
		}
		names[name], labels[label] = true, true
		for _, spelling := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			if got, ok := engine.ParseStrategy(spelling); !ok || got != s {
				t.Errorf("ParseStrategy(%q) = %v, %v; want %v", spelling, got, ok, s)
			}
		}
		if _, ok := snap["hist:exec.strategy."+label]; !ok {
			t.Errorf("no exec.strategy.%s histogram", label)
		}
	}
	if !strings.Contains(engine.StrategyNames("|"), engine.Auto.Name()) {
		t.Errorf("StrategyNames omits %q: %s", engine.Auto.Name(), engine.StrategyNames("|"))
	}
	// "nimemo" was folded into nibatch; its value 1 stays reserved.
	for _, name := range []string{"nonesuch", "nimemo"} {
		if _, ok := engine.ParseStrategy(name); ok {
			t.Errorf("ParseStrategy accepted the undeclared name %q", name)
		}
	}
	largest := engine.Strategy(0)
	for _, s := range engine.Strategies {
		largest = max(largest, s)
	}
	for _, s := range []engine.Strategy{1, largest + 1} {
		if declared[s] || s.Name() != "" || !strings.HasPrefix(s.String(), "Strategy(") {
			t.Errorf("undeclared strategy %d renders as name %q, label %q", int(s), s.Name(), s.String())
		}
	}

	e := engine.New(tpcd.EmpDept())
	for _, sql := range []string{
		"select name from emp",
		tpcd.ExampleQuery,
		"select d.name from dept d where exists (select * from emp e where e.building = d.building)",
	} {
		p, err := e.Prepare(sql, engine.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if !declared[p.Chosen] || p.Chosen == engine.Auto {
			t.Errorf("Auto resolved %q to %v, not a concrete declared strategy", sql, p.Chosen)
		}
		if _, _, err := p.Run(); err != nil {
			t.Errorf("Auto plan (%v) for %q: %v", p.Chosen, sql, err)
		}
	}
}
