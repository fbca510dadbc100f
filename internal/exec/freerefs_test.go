package exec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"decorr/internal/differ"
	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/qgm"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// TestPlanFreeRefs pins NewPlan's one-pass free references to
// qgm.FreeRefs, box by box, on every statement the plan golden covers (the
// paper's statements and the 200 fuzz-smoke statements) under every
// strategy, and on a statement with 70 sibling subqueries — the shape
// whose per-box subtree walks made the old computation quadratic.
func TestPlanFreeRefs(t *testing.T) {
	type stmt struct {
		name string
		db   *storage.DB
		sql  string
	}
	tpcdDB := tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 42})
	var siblings strings.Builder
	siblings.WriteString("select e.name")
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&siblings, ", (select count(*) from dept d where d.building = e.building) as c%d", i)
	}
	siblings.WriteString(" from emp e")
	stmts := []stmt{
		{"Example", tpcd.EmpDept(), tpcd.ExampleQuery},
		{"Query1", tpcdDB, tpcd.Query1}, {"Query1b", tpcdDB, tpcd.Query1b},
		{"Query2", tpcdDB, tpcd.Query2}, {"Query3", tpcdDB, tpcd.Query3},
		{"siblings", tpcd.EmpDept(), siblings.String()},
	}
	for i := 0; i < 200; i++ {
		seed := 42 + int64(i)*1000003
		schema := differ.SchemaNames[i%len(differ.SchemaNames)]
		stmts = append(stmts, stmt{fmt.Sprintf("fuzz%03d", i),
			differ.DBSpec{Schema: schema, Seed: seed, Size: 8}.Build(),
			differ.Generate(rand.New(rand.NewSource(seed)), schema).SQL()})
	}
	checked := 0
	for _, st := range stmts {
		e := engine.New(st.db)
		for _, s := range engine.Strategies {
			p, err := e.Prepare(st.sql, s)
			if err != nil {
				continue
			}
			plan := exec.NewPlan(st.db, p.Graph, false)
			for _, b := range qgm.Boxes(p.Graph.Root) {
				got, want := plan.FreeRefsOf(b), exec.DedupRefs(qgm.FreeRefs(b))
				if !slices.Equal(got, want) {
					t.Errorf("%s/%s box %d: free references %v, qgm.FreeRefs %v", st.name, s, b.ID, got, want)
				}
				if len(want) > 0 {
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no box of the corpus has a free reference")
	}
}
