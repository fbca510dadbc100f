package decorr_test

import (
	"fmt"
	"strings"
	"testing"

	"decorr"
	"decorr/internal/engine"
)

func TestPublicAPISurface(t *testing.T) {
	// Build a database through the public constructors only.
	db := decorr.NewDB()
	emp := db.Create(decorr.NewTable("emp",
		decorr.Column{Name: "name", Type: decorr.TString},
		decorr.Column{Name: "building", Type: decorr.TString},
	).AddKey("name"))
	for _, r := range [][2]string{{"ada", "X"}, {"bo", "X"}, {"cy", "Y"}} {
		if err := emp.Insert(decorr.Row{decorr.String(r[0]), decorr.String(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	eng := decorr.NewEngine(db)
	rows, stats, err := eng.Query(`select building, count(*) from emp group by building order by 1`, decorr.NI)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][1].I != 2 || rows[1][1].I != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if stats.RowsScanned == 0 {
		t.Error("stats not populated")
	}
}

// Adding a strategy is one row in the engine's table plus one constant in
// api.go; this fails when the second half is forgotten.
func TestPublicStrategyReexports(t *testing.T) {
	public := map[decorr.Strategy]bool{}
	for _, s := range []decorr.Strategy{
		decorr.NI, decorr.NIBatch, decorr.Kim, decorr.Dayal,
		decorr.GanskiWong, decorr.Magic, decorr.OptMagic, decorr.Auto,
	} {
		public[s] = true
	}
	for _, s := range engine.Strategies {
		if !public[s] {
			t.Errorf("strategy %s (%q) has no decorr.* constant", s, s.Name())
		}
	}
	if len(public) != len(engine.Strategies) {
		t.Errorf("%d public strategy constants for %d declared strategies", len(public), len(engine.Strategies))
	}
}

func TestPublicValueConstructors(t *testing.T) {
	if !decorr.Null.IsNull() || decorr.Int(3).I != 3 ||
		decorr.Float(2.5).F != 2.5 || decorr.String("x").S != "x" {
		t.Error("value constructors broken")
	}
}

func TestPublicDatasetsAndQueries(t *testing.T) {
	if db := decorr.EmpDept(); db.Table("dept") == nil {
		t.Error("EmpDept missing dept")
	}
	db := decorr.TPCD(0.01, 7)
	for _, tbl := range []string{"customers", "parts", "suppliers", "partsupp", "lineitem"} {
		if db.Table(tbl) == nil {
			t.Errorf("TPCD missing %s", tbl)
		}
	}
	for _, q := range []string{decorr.ExampleQuery, decorr.Query1, decorr.Query1b, decorr.Query2, decorr.Query3} {
		if !strings.Contains(strings.ToLower(q), "select") {
			t.Error("query constant is not SQL")
		}
	}
}

func TestPublicParallelSimulation(t *testing.T) {
	db := decorr.EmpDeptSized(200, 800, 16, 3)
	ni, err := decorr.SimulateNestedIteration(db, decorr.ParallelConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := decorr.SimulateMagic(db, decorr.ParallelConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ni.Rows, ",") != strings.Join(mg.Rows, ",") {
		t.Error("simulated plans disagree")
	}
	if ni.Metrics.Fragments <= mg.Metrics.Fragments {
		t.Error("NI should schedule more fragments")
	}
}

// ExampleEngine_Query demonstrates running the paper's §2 example under
// magic decorrelation.
func ExampleEngine_Query() {
	eng := decorr.NewEngine(decorr.EmpDept())
	rows, stats, err := eng.Query(decorr.ExampleQuery, decorr.Magic)
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		fmt.Println(r[0])
	}
	fmt.Println("correlated invocations:", stats.SubqueryInvocations)
	// Output:
	// archives
	// toys
	// correlated invocations: 0
}

// ExampleEngine_Prepare shows plan inspection: the decorrelated QGM names
// the paper's helper views.
func ExampleEngine_Prepare() {
	eng := decorr.NewEngine(decorr.EmpDept())
	p, err := eng.Prepare(decorr.ExampleQuery, decorr.Magic)
	if err != nil {
		panic(err)
	}
	plan := p.Explain()
	fmt.Println(strings.Contains(plan, "SUPP"), strings.Contains(plan, "MAGIC"))
	// Output: true true
}

// ExampleEngine_CreateView registers and queries a view.
func ExampleEngine_CreateView() {
	eng := decorr.NewEngine(decorr.EmpDept())
	if err := eng.CreateView(
		"create view crowded(b) as select building from emp group by building having count(*) >= 2"); err != nil {
		panic(err)
	}
	rows, _, err := eng.Query("select b from crowded order by b", decorr.NI)
	if err != nil {
		panic(err)
	}
	for _, r := range rows {
		fmt.Println(r[0])
	}
	// Output:
	// B1
	// B2
}
