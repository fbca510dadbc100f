package engine_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"decorr/internal/differ"
	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/qgm"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// TestPlanGolden pins what the executor's select-box planner decides: the
// §7 cost of the whole graph (bit-exact, as a hex float) and the binding
// order of every select box, for the paper's queries as bound (NI) and as
// rewritten (Magic, OptMagic), plus the alternative Auto picks; and the
// cost under NI, NIBatch, Magic and OptMagic and Auto's pick for every
// fuzz-smoke statement. A diff here is a changed plan, not a refactoring.
func TestPlanGolden(t *testing.T) {
	tpcdDB := tpcd.Generate(tpcd.Config{SF: 0.1, Seed: 42})
	cases := []struct {
		name string
		db   *storage.DB
		sql  string
	}{
		{"Example", tpcd.EmpDept(), tpcd.ExampleQuery},
		{"Query1", tpcdDB, tpcd.Query1},
		{"Query1b", tpcdDB, tpcd.Query1b},
		{"Query2", tpcdDB, tpcd.Query2},
		{"Query3", tpcdDB, tpcd.Query3},
	}
	var sb strings.Builder
	for _, c := range cases {
		e := engine.New(c.db)
		for _, s := range []engine.Strategy{engine.NI, engine.Magic, engine.OptMagic} {
			p, err := e.Prepare(c.sql, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, s, err)
			}
			// Orders first, from an executor that has estimated nothing yet:
			// the path the rewrites take through engine.orderer.
			ex := exec.New(c.db, exec.Options{MaterializeCSE: e.MaterializeCSE})
			var orders []string
			for _, b := range qgm.Boxes(p.Graph.Root) {
				if b.Kind != qgm.BoxSelect {
					continue
				}
				ids := make([]string, 0, len(b.Quants))
				for _, q := range ex.JoinOrder(b) {
					ids = append(ids, fmt.Sprintf("%s%d", q.Kind, q.ID))
				}
				orders = append(orders, fmt.Sprintf("  box %d: %s\n", b.ID, strings.Join(ids, " ")))
			}
			cost := ex.EstimateCost(p.Graph)
			if cost != p.EstimatedCost {
				t.Errorf("%s/%s: fresh EstimateCost %v != Prepared.EstimatedCost %v", c.name, s, cost, p.EstimatedCost)
			}
			fmt.Fprintf(&sb, "%s %s cost=%s (%.6g)\n%s", c.name, s,
				strconv.FormatFloat(cost, 'x', -1, 64), cost, strings.Join(orders, ""))
		}
		p, err := e.Prepare(c.sql, engine.Auto)
		if err != nil {
			t.Fatalf("%s/auto: %v", c.name, err)
		}
		fmt.Fprintf(&sb, "%s auto chose=%s cost=%s\n", c.name, p.Chosen,
			strconv.FormatFloat(p.EstimatedCost, 'x', -1, 64))
	}
	// The 200 statements `make fuzz-smoke` generates, built as
	// TestDecorrelateGolden builds them: costs only, so a cost-model drift on
	// shapes the paper's queries lack shows up as a diff.
	for i := 0; i < 200; i++ {
		seed := 42 + int64(i)*1000003
		schema := differ.SchemaNames[i%len(differ.SchemaNames)]
		sql := differ.Generate(rand.New(rand.NewSource(seed)), schema).SQL()
		e := engine.New(differ.DBSpec{Schema: schema, Seed: seed, Size: 8}.Build())
		name := fmt.Sprintf("fuzz%03d", i)
		for _, s := range []engine.Strategy{engine.NI, engine.NIBatch, engine.Magic, engine.OptMagic} {
			if p, err := e.Prepare(sql, s); err != nil {
				fmt.Fprintf(&sb, "%s %s error: %v\n", name, s, err)
			} else {
				fmt.Fprintf(&sb, "%s %s cost=%s\n", name, s, strconv.FormatFloat(p.EstimatedCost, 'x', -1, 64))
			}
		}
		if p, err := e.Prepare(sql, engine.Auto); err != nil {
			fmt.Fprintf(&sb, "%s auto error: %v\n", name, err)
		} else {
			fmt.Fprintf(&sb, "%s auto chose=%s\n", name, p.Chosen)
		}
	}
	got := sb.String()

	golden := filepath.Join("testdata", "plan.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("plans drifted from golden file (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
