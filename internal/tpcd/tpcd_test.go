package tpcd

import (
	"testing"

	"decorr/internal/sqltypes"
)

func TestScaledCardinalities(t *testing.T) {
	db := Generate(Config{SF: 0.01, Seed: 1})
	want := map[string]int{
		"customers": 150, "parts": 200, "suppliers": 10,
		"partsupp": 800, "lineitem": 6000,
	}
	for name, n := range want {
		if got := db.MustTable(name).Len(); got != n {
			t.Errorf("%s: %d rows, want %d", name, got, n)
		}
	}
}

// TestTable1Cardinalities checks the paper's Table 1 contract at SF=1.
func TestTable1Cardinalities(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale generation skipped with -short")
	}
	db := Generate(Config{SF: 1.0, Seed: 1, SkipIndexes: true})
	want := map[string]int{
		"customers": BaseCustomers, "parts": BaseParts, "suppliers": BaseSuppliers,
		"partsupp": BasePartSupp, "lineitem": BaseLineItem,
	}
	for name, n := range want {
		if got := db.MustTable(name).Len(); got != n {
			t.Errorf("%s: %d rows, want %d (paper Table 1)", name, got, n)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{SF: 0.01, Seed: 42})
	b := Generate(Config{SF: 0.01, Seed: 42})
	for _, name := range []string{"parts", "suppliers", "lineitem"} {
		ra, rb := a.MustTable(name).RowForm(), b.MustTable(name).RowForm()
		if len(ra) != len(rb) {
			t.Fatalf("%s: different sizes", name)
		}
		for i := range ra {
			if sqltypes.Key(ra[i]) != sqltypes.Key(rb[i]) {
				t.Fatalf("%s row %d differs across identically-seeded runs", name, i)
			}
		}
	}
	c := Generate(Config{SF: 0.01, Seed: 43})
	if sqltypes.Key(a.MustTable("parts").RowForm()[0]) == sqltypes.Key(c.MustTable("parts").RowForm()[0]) {
		t.Log("warning: different seeds produced an identical first row (possible but unlikely)")
	}
}

func TestNationRegionConsistency(t *testing.T) {
	region := map[string]string{}
	for ri, ns := range Nations {
		for _, n := range ns {
			region[n] = Regions[ri]
		}
	}
	db := Generate(Config{SF: 0.02, Seed: 5})
	sup := db.MustTable("suppliers")
	nIdx := sup.Def.ColIndex("s_nation")
	rIdx := sup.Def.ColIndex("s_region")
	for _, r := range sup.RowForm() {
		if region[r[nIdx].S] != r[rIdx].S {
			t.Fatalf("supplier nation %q in region %q, want %q", r[nIdx].S, r[rIdx].S, region[r[nIdx].S])
		}
	}
	cust := db.MustTable("customers")
	nIdx = cust.Def.ColIndex("c_nation")
	rIdx = cust.Def.ColIndex("c_region")
	for _, r := range cust.RowForm() {
		if region[r[nIdx].S] != r[rIdx].S {
			t.Fatalf("customer nation %q in region %q", r[nIdx].S, r[rIdx].S)
		}
	}
}

func TestIndexesCreatedByDefault(t *testing.T) {
	db := Generate(Config{SF: 0.01, Seed: 1})
	checks := map[string]string{
		"parts": "p_partkey", "partsupp": "ps_partkey", "lineitem": "l_partkey",
		"suppliers": "s_suppkey", "customers": "c_nation",
	}
	for table, col := range checks {
		tb := db.MustTable(table)
		if !tb.HasIndex(tb.Def.ColIndex(col)) {
			t.Errorf("missing index %s.%s", table, col)
		}
	}
	bare := Generate(Config{SF: 0.01, Seed: 1, SkipIndexes: true})
	tb := bare.MustTable("parts")
	if tb.HasIndex(tb.Def.ColIndex("p_partkey")) {
		t.Error("SkipIndexes ignored")
	}
}

func TestKeysDeclared(t *testing.T) {
	db := Generate(Config{SF: 0.01, Seed: 1})
	for _, name := range []string{"customers", "parts", "suppliers", "partsupp", "lineitem"} {
		if len(db.MustTable(name).Def.Keys) == 0 {
			t.Errorf("%s has no declared key (Dayal/OptMag need them)", name)
		}
	}
}

func TestPartsuppFanout(t *testing.T) {
	db := Generate(Config{SF: 0.05, Seed: 9})
	ps := db.MustTable("partsupp")
	parts := db.MustTable("parts")
	perPart := map[int64]int{}
	for _, r := range ps.RowForm() {
		perPart[r[0].I]++
	}
	if len(perPart) != parts.Len() {
		t.Errorf("%d parts have suppliers, want %d (every part supplied)", len(perPart), parts.Len())
	}
	for pk, n := range perPart {
		if n < 1 || n > 8 {
			t.Fatalf("part %d has %d suppliers", pk, n)
		}
	}
}

func TestEmpDeptFixture(t *testing.T) {
	db := EmpDept()
	dept := db.MustTable("dept")
	emp := db.MustTable("emp")
	if dept.Len() != 5 || emp.Len() != 6 {
		t.Fatalf("fixture sizes: %d dept, %d emp", dept.Len(), emp.Len())
	}
	// The COUNT-bug witness: a low-budget department in a building with
	// no employees.
	bIdx := dept.Def.ColIndex("building")
	budIdx := dept.Def.ColIndex("budget")
	empB := map[string]bool{}
	for _, r := range emp.RowForm() {
		empB[r[1].S] = true
	}
	witness := false
	for _, r := range dept.RowForm() {
		if r[budIdx].I < 10000 && !empB[r[bIdx].S] {
			witness = true
		}
	}
	if !witness {
		t.Fatal("fixture lost its COUNT-bug witness")
	}
}

func TestEmpDeptSizedShapes(t *testing.T) {
	db := EmpDeptSized(100, 500, 8, 3)
	if got := db.MustTable("dept").Len(); got != 100 {
		t.Errorf("dept rows = %d", got)
	}
	if got := db.MustTable("emp").Len(); got != 500 {
		t.Errorf("emp rows = %d", got)
	}
	// Some buildings must be employee-free (compensation witnesses).
	empB := map[string]bool{}
	for _, r := range db.MustTable("emp").RowForm() {
		empB[r[1].S] = true
	}
	if len(empB) >= 8 {
		t.Errorf("employees occupy all %d buildings; expected a free quarter", len(empB))
	}
}
