package parallel_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decorr/internal/differ"
	"decorr/internal/engine"
	"decorr/internal/parallel"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestPlanCostGolden pins the shared-nothing model's numbers at 8 nodes —
// messages, rows shipped, fragments, phases and work — for the paper's
// statements as bound and rewritten, and for the 200 fuzz-smoke statements
// (built as core's TestDecorrelateGolden builds them) as bound and under
// OptMag. The other tests here check orderings; this one catches a model
// whose inputs moved.
func TestPlanCostGolden(t *testing.T) {
	type stmt struct {
		name, sql  string
		db         *storage.DB
		strategies []engine.Strategy
	}
	paper := []engine.Strategy{engine.NI, engine.Magic, engine.OptMagic}
	tpcdDB := tpcd.Generate(tpcd.Config{SF: 0.1, Seed: 42})
	stmts := []stmt{
		{"Example", tpcd.ExampleQuery, tpcd.EmpDept(), paper},
		{"Query1", tpcd.Query1, tpcdDB, paper},
		{"Query1b", tpcd.Query1b, tpcdDB, paper},
		{"Query2", tpcd.Query2, tpcdDB, paper},
		{"Query3", tpcd.Query3, tpcdDB, paper},
	}
	for i := 0; i < 200; i++ {
		seed := 42 + int64(i)*1000003
		schema := differ.SchemaNames[i%len(differ.SchemaNames)]
		sql := differ.Generate(rand.New(rand.NewSource(seed)), schema).SQL()
		db := differ.DBSpec{Schema: schema, Seed: seed, Size: 8}.Build()
		stmts = append(stmts, stmt{fmt.Sprintf("fuzz%03d", i), sql, db, []engine.Strategy{engine.NI, engine.OptMagic}})
	}
	var sb strings.Builder
	for _, s := range stmts {
		e := engine.New(s.db)
		for _, st := range s.strategies {
			p, err := e.Prepare(s.sql, st)
			if err != nil {
				fmt.Fprintf(&sb, "%s %s error: %v\n", s.name, st, err)
				continue
			}
			m := parallel.PlanCost(s.db, p.Graph, parallel.Config{Nodes: 8})
			fmt.Fprintf(&sb, "%s %s messages=%d rows_shipped=%d fragments=%d phases=%d work=%d\n",
				s.name, st, m.Messages, m.RowsShipped, m.Fragments, m.Phases, m.Work)
		}
	}
	got := sb.String()

	golden := filepath.Join("testdata", "plancost.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("§6 model drifted from %s (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

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
