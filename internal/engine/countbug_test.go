package engine_test

import (
	"testing"

	"decorr/internal/engine"
	"decorr/internal/tpcd"
)

// countBugQueries are COUNT(*) correlated scalar subqueries over data with
// empty correlation groups — the exact shape of the paper's §2 COUNT bug.
// Three variations: the comparison below the count, the count in the select
// list, and a NULL-bearing random instance where some outer rows have a
// NULL correlation column (an empty group of its own kind).
var countBugQueries = []string{
	tpcd.ExampleQuery,
	`select d.name, (select count(*) from emp e where e.building = d.building) from dept d`,
	`select d.name from dept d where 0 = (select count(*) from emp e where e.building = d.building)`,
}

// TestCountBugOnlyKim asserts the division of the world the harness
// allowlist encodes: every modern strategy agrees with nested iteration on
// COUNT over empty groups, while classic Kim keeps its documented row loss
// (a strict subset of the oracle's answer) as faithful historical
// behaviour. If Kim ever returns the full answer these expectations go
// stale — that would mean the reproduction stopped reproducing the bug.
func TestCountBugOnlyKim(t *testing.T) {
	dbs := []struct {
		name string
		eng  *engine.Engine
	}{
		{"empdept", engine.New(tpcd.EmpDept())},
		{"empdept-random", engine.New(tpcd.EmpDeptRandom(3, 8, 16, 4))},
	}
	for _, d := range dbs {
		for _, sql := range countBugQueries {
			e := d.eng
			want, _ := query(t, e, sql, engine.NI)
			for _, s := range []engine.Strategy{
				engine.NIBatch, engine.Dayal, engine.GanskiWong,
				engine.Magic, engine.OptMagic, engine.Auto,
			} {
				if s == engine.Dayal || s == engine.GanskiWong {
					// The classic methods refuse shapes outside their
					// applicability limits; skip those, fail on anything else.
					rows, _, err := e.Query(sql, s)
					if err != nil {
						continue
					}
					sameRows(t, d.name+"/"+s.String(), multiset(rows), want)
					continue
				}
				got, _ := query(t, e, sql, s)
				sameRows(t, d.name+"/"+s.String(), got, want)
			}

			// Kim: refusal is fine; an answer must be a strict-subset row
			// loss, never spurious rows.
			rows, _, err := e.Query(sql, engine.Kim)
			if err != nil {
				continue
			}
			got := multiset(rows)
			if !isSubsetMultiset(got, want) {
				t.Errorf("%s/Kim on %q: produced rows outside the oracle answer\n got: %v\nwant: %v",
					d.name, sql, got, want)
			}
		}
	}

	// And the canonical witness stays lost: Kim on the §2 example query
	// drops archives (asserted exactly in TestKimCountBugReproduced).
	e := engine.New(tpcd.EmpDept())
	got, _ := query(t, e, tpcd.ExampleQuery, engine.Kim)
	if len(got) >= 2 {
		t.Error("Kim no longer loses the empty-group department; the historical COUNT bug is not reproduced")
	}
}

// isSubsetMultiset reports got ⊆ want as sorted multisets.
func isSubsetMultiset(got, want []string) bool {
	i := 0
	for _, g := range got {
		for i < len(want) && want[i] < g {
			i++
		}
		if i >= len(want) || want[i] != g {
			return false
		}
		i++
	}
	return true
}
