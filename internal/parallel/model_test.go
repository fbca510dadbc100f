package parallel_test

import (
	"fmt"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/parallel"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

func planFor(t *testing.T, db *storage.DB, sql string, s engine.Strategy) parallel.Metrics {
	t.Helper()
	e := engine.New(db)
	p, err := e.Prepare(sql, s)
	if err != nil {
		t.Fatal(err)
	}
	return parallel.PlanCost(db, p.Graph, parallel.Config{Nodes: 8})
}

// The generalized plan model must reproduce the §6 asymmetry on the
// example query: per-binding broadcasts and fragments for NI, bounded
// phases for the decorrelated plan.
func TestPlanCostExampleQuery(t *testing.T) {
	db := tpcd.EmpDeptSized(800, 4000, 32, 7)
	ni := planFor(t, db, tpcd.ExampleQuery, engine.NI)
	mag := planFor(t, db, tpcd.ExampleQuery, engine.Magic)
	if ni.Fragments <= 4*mag.Fragments {
		t.Errorf("NI fragments (%d) should dwarf decorrelated (%d)", ni.Fragments, mag.Fragments)
	}
	if ni.Messages <= mag.Messages {
		t.Errorf("NI messages (%d) should exceed decorrelated (%d)", ni.Messages, mag.Messages)
	}
}

// The §6 claims extend to the paper's TPC-D workload: the decorrelated
// Query 1(b) plan schedules a bounded number of fragments while nested
// iteration pays per binding.
func TestPlanCostTPCDQueries(t *testing.T) {
	db := tpcd.Generate(tpcd.Config{SF: 0.05, Seed: 42})
	for _, sql := range []string{tpcd.Query1b, tpcd.Query3} {
		ni := planFor(t, db, sql, engine.NI)
		mag := planFor(t, db, sql, engine.Magic)
		if ni.Fragments <= mag.Fragments {
			t.Errorf("NI fragments (%d) should exceed decorrelated (%d)", ni.Fragments, mag.Fragments)
		}
	}
}

// Fragment growth with cluster size: linear for NI (per binding × n),
// per-phase for the decorrelated plan.
func TestPlanCostScalesWithNodes(t *testing.T) {
	db := tpcd.EmpDeptSized(400, 2000, 16, 3)
	e := engine.New(db)
	pNI, err := e.Prepare(tpcd.ExampleQuery, engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	f8 := parallel.PlanCost(db, pNI.Graph, parallel.Config{Nodes: 8}).Fragments
	f16 := parallel.PlanCost(db, pNI.Graph, parallel.Config{Nodes: 16}).Fragments
	if f16 != 2*f8 {
		t.Errorf("NI fragments: n=8 -> %d, n=16 -> %d (want exact doubling)", f8, f16)
	}
}

// An uncorrelated query costs no correlated broadcasts under either
// strategy name.
func TestPlanCostUncorrelated(t *testing.T) {
	db := tpcd.Generate(tpcd.Config{SF: 0.02, Seed: 1})
	m := planFor(t, db, "select p_brand, count(*) from parts group by p_brand", engine.NI)
	if m.Fragments > int64(8*4) {
		t.Errorf("simple aggregate scheduled %d fragments", m.Fragments)
	}
}

// The model repartitions on what the executor hashes, not on its own
// reading of the predicates. `l.a + r.b = r.c` has a side that mixes both
// inputs: qgm.LojKeys (and so evalLeftJoin) finds no hash key and meets
// every pair, so the plan ships both inputs exactly like the same join
// under an inequality. The simulator's private splitter used to take r.c
// for a key and, suppliers being partitioned on it, shipped parts alone.
func TestPlanCostMixedSideEqualityIsNoJoinKey(t *testing.T) {
	db := tpcd.Generate(tpcd.Config{SF: 0.02, Seed: 1})
	const loj = "select p.p_partkey, s.s_suppkey from parts p left join suppliers s on p.p_partkey + s.s_suppkey %s s.s_suppkey"
	mixed := fmt.Sprintf(loj, "=")
	if _, stats, err := engine.New(db).Query(mixed, engine.NI); err != nil {
		t.Fatal(err)
	} else if stats.HashBuilds != 0 {
		t.Fatalf("executor hashed the mixed-side equality (%d builds); the test's premise is gone", stats.HashBuilds)
	}
	eq := planFor(t, db, mixed, engine.NI)
	ge := planFor(t, db, fmt.Sprintf(loj, ">="), engine.NI)
	if eq.RowsShipped != ge.RowsShipped || eq.Messages != ge.Messages {
		t.Errorf("cross-product outer join ships %d rows / %d messages under =, %d / %d under >=: the simulator found a key the executor does not hash",
			eq.RowsShipped, eq.Messages, ge.RowsShipped, ge.Messages)
	}
}
