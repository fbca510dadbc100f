package engine_test

import (
	"fmt"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/qgm"
	"decorr/internal/storage"
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

// TestNullKeyCountBugDeterminism runs COUNT-bug shapes whose correlation
// column holds NULLs on both sides under Mag and OptMag, at workers 1, 2
// and 8 with the vectorized engine on and off. Their decorrelated plans
// join on null-safe equalities (the COUNT-bug outer join and the re-join
// of the outer block), which hash on the key with NULL filed as a value.
// Every cell must return nested iteration's bag, and one strategy's cells
// must agree on their counters. A hash join that drops the NULL-keyed rows
// loses the outer rows whose binding is NULL; one that files NULL as key 0
// on the typed integer path matches them to the num_emps = 0 rows.
func TestNullKeyCountBugDeterminism(t *testing.T) {
	queries := []struct{ name, sql string }{
		// A string key: NULL buildings among departments and employees.
		{"string", `select d.name, (select count(*) from emp e where e.building = d.building) from dept d`},
		// An integer key with NULLs and zeros: the re-join's build side is a
		// typed integer column, so the columnar engine's int64 table is in
		// play.
		{"int", `select d.name, (select count(*) from dept d2 where d2.num_emps = d.num_emps) from dept d`},
		// The correlation reaches the counted block only through a nested
		// NOT EXISTS, so the NULL binding has rows of its own: the
		// decorrelated subquery carries a NULL-keyed group, which the outer
		// join must find from the NULL row of the magic table.
		{"nested", `select d.name, (select count(*) from emp e where not exists
			(select * from dept d2 where d2.building = d.building and d2.name = e.name)) from dept d`},
		// A grouped lateral has no row for an empty group, so it needs no
		// outer join. With the outer block filtered small it is bound first,
		// and the re-join probes its NULL bindings into a NULL-free typed
		// integer build side, which must not match them.
		{"lateral", `select d.name, x.n from dept d,
			(select count(*) from dept d2 where d2.num_emps = d.num_emps group by d2.num_emps) as x(n)
			where d.name like 'dept-1%'`},
	}
	dbs := []*storage.DB{tpcd.EmpDeptRandom(3, 40, 60, 5), tpcd.EmpDeptRandom(11, 25, 30, 4)}
	for di, db := range dbs {
		// The data must give each shape NULL bindings to lose and a zero
		// key for a NULL filed as 0 to meet.
		for _, where := range []string{"dept d where d.building is null", "emp e where e.building is null",
			"dept d where d.num_emps is null", "dept d where d.num_emps = 0"} {
			if n, _ := query(t, engine.New(db), "select count(*) from "+where, engine.NI); n[0] == "0" {
				t.Fatalf("db %d: no row in %s", di, where)
			}
		}
		for _, q := range queries {
			want, _ := query(t, engine.New(db), q.sql, engine.NI)
			for _, s := range []engine.Strategy{engine.Magic, engine.OptMagic} {
				var first *exec.Stats
				for _, w := range []int{1, 2, 8} {
					for _, rowMode := range []bool{false, true} {
						cell := fmt.Sprintf("db %d %s %s workers=%d rowmode=%v", di, q.name, s, w, rowMode)
						e := engine.New(db)
						e.Workers, e.RowMode = w, rowMode
						p, err := e.Prepare(q.sql, s)
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						if first == nil && !hashesNullSafe(db, p.Graph) {
							t.Fatalf("%s: no join hashes on a null-safe key; the shape lost its point", cell)
						}
						rows, stats, err := p.Run()
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						sameRows(t, cell, multiset(rows), want)
						if first == nil {
							first = stats
						} else if *stats != *first {
							t.Fatalf("%s: stats %+v, want %+v", cell, *stats, *first)
						}
					}
				}
			}
		}
	}
}

// hashesNullSafe reports whether some join of g hashes on a null-safe key:
// a select box's join step or a left outer join.
func hashesNullSafe(db *storage.DB, g *qgm.Graph) bool {
	ex := exec.New(db, exec.Options{})
	for _, b := range qgm.Boxes(g.Root) {
		var flags []bool
		switch b.Kind {
		case qgm.BoxSelect:
			for _, s := range ex.Steps(b) {
				flags = append(flags, s.NullSafe...)
			}
		case qgm.BoxLeftJoin:
			_, _, flags, _ = qgm.LojKeys(b)
		}
		for _, ns := range flags {
			if ns {
				return true
			}
		}
	}
	return false
}
