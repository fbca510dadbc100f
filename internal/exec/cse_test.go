package exec

import (
	"testing"

	"decorr/internal/qgm"
	"decorr/internal/schema"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// TestColumnarCSEServesRowReader reaches the CSE cache's conversion from
// the columnar form to rows. A shared select box S is read first by a
// vectorized select box, which takes S's output vectors (the fused
// select→select input), and then by a left outer join, which the row
// engine evaluates and which asks for rows. The second read is served from
// the cache, converted once and kept: S evaluates once, and the join's
// output is the rows S holds.
func TestColumnarCSEServesRowReader(t *testing.T) {
	db := storage.NewDB()
	def := schema.NewTable("t",
		schema.Column{Name: "k", Type: schema.TInt},
		schema.Column{Name: "v", Type: schema.TInt})
	tbl := db.Create(def)
	for _, r := range [][2]sqltypes.Value{
		{sqltypes.NewInt(1), sqltypes.NewInt(10)},
		{sqltypes.NewInt(2), sqltypes.Null},
		{sqltypes.NewInt(3), sqltypes.NewInt(30)},
	} {
		if err := tbl.Insert(storage.Row{r[0], r[1]}); err != nil {
			t.Fatal(err)
		}
	}

	g := qgm.NewGraph()
	s := g.NewBox(qgm.BoxSelect, "S")
	qs := g.AddQuant(s, qgm.QForEach, g.NewBaseBox(def))
	s.Cols = []qgm.OutCol{{Name: "k", Expr: qgm.Ref(qs, 0)}, {Name: "v", Expr: qgm.Ref(qs, 1)}}
	a := g.NewBox(qgm.BoxSelect, "A")
	qa := g.AddQuant(a, qgm.QForEach, s)
	a.Cols = []qgm.OutCol{{Name: "k", Expr: qgm.Ref(qa, 0)}}
	loj := g.NewBox(qgm.BoxLeftJoin, "L")
	ql := g.AddQuant(loj, qgm.QForEach, a)
	qr := g.AddQuant(loj, qgm.QForEach, s)
	loj.Preds = []qgm.Expr{qgm.NewEq(qgm.Ref(ql, 0), qgm.Ref(qr, 0))}
	loj.Cols = []qgm.OutCol{{Name: "k", Expr: qgm.Ref(ql, 0)}, {Name: "v", Expr: qgm.Ref(qr, 1)}}
	g.Root = loj
	if err := qgm.Validate(g); err != nil {
		t.Fatal(err)
	}

	// One worker: the join reads its left input, A, before its right, S.
	ex := New(db, Options{MaterializeCSE: true, Workers: 1})
	rows, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.plan.Columnar(a) {
		t.Fatal("A is not vectorized; the shape no longer reads S's vectors first")
	}
	want := []string{"1|10", "2|NULL", "3|30"}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %v", len(rows), want)
	}
	for i, r := range rows {
		if got := r[0].String() + "|" + r[1].String(); got != want[i] {
			t.Errorf("row %d: got %s, want %s", i, got, want[i])
		}
	}
	if e := ex.cse[s]; e == nil || e.out.vecs == nil || e.out.rows == nil {
		t.Fatal("the cache does not hold S in both forms: the row reader was not served the converted vectors")
	}
	// L, A and one evaluation of S; the cached read is no evaluation.
	if ex.Stats.BoxEvals != 3 || ex.Stats.CSERecomputes != 0 {
		t.Errorf("box evaluations %d, recomputes %d; want 3 and 0", ex.Stats.BoxEvals, ex.Stats.CSERecomputes)
	}
}
