package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"decorr/internal/colvec"
	"decorr/internal/schema"
	"decorr/internal/sqltypes"
)

func newT(t *testing.T) *Table {
	t.Helper()
	def := schema.NewTable("t",
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "grp", Type: schema.TString},
	)
	def.AddKey("id")
	return NewTable(def)
}

func TestInsertAndArity(t *testing.T) {
	tb := newT(t)
	if err := tb.Insert(Row{sqltypes.NewInt(1), sqltypes.NewString("a")}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(Row{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if tb.Len() != 1 {
		t.Fatalf("rows = %d", tb.Len())
	}
}

func TestIndexLifecycle(t *testing.T) {
	tb := newT(t)
	for i := 0; i < 10; i++ {
		must(t, tb.Insert(Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(string(rune('a' + i%3)))}))
	}
	if _, ok := tb.Lookup(1, sqltypes.NewString("a")); ok {
		t.Fatal("lookup without index must report !ok")
	}
	must(t, tb.CreateIndex("grp"))
	ids, ok := tb.Lookup(1, sqltypes.NewString("a"))
	if !ok || len(ids) != 4 { // i = 0,3,6,9
		t.Fatalf("lookup a: %v %v", ids, ok)
	}
	// Index maintained across later inserts.
	must(t, tb.Insert(Row{sqltypes.NewInt(10), sqltypes.NewString("a")}))
	ids, _ = tb.Lookup(1, sqltypes.NewString("a"))
	if len(ids) != 5 {
		t.Fatalf("after insert: %v", ids)
	}
	// NULL probes match nothing.
	ids, ok = tb.Lookup(1, sqltypes.Null)
	if !ok || len(ids) != 0 {
		t.Fatalf("null probe: %v %v", ids, ok)
	}
	must(t, tb.DropIndex("grp"))
	if _, ok := tb.Lookup(1, sqltypes.NewString("a")); ok {
		t.Fatal("dropped index still answers")
	}
	if tb.HasIndex(1) {
		t.Fatal("HasIndex after drop")
	}
	// Creating twice is a no-op; unknown columns error.
	must(t, tb.CreateIndex("grp"))
	must(t, tb.CreateIndex("grp"))
	if err := tb.CreateIndex("nope"); err == nil {
		t.Fatal("index on unknown column accepted")
	}
	if err := tb.DropIndex("nope"); err == nil {
		t.Fatal("drop of unknown column accepted")
	}
}

// Property: for random columns of every index form, Lookup agrees with a
// linear scan, ids ascending. Some rows are inserted after CreateIndex, and
// the probes cover every key present, absent keys, NULL, cross-kind values
// and the float probes of an integer key: exact, fractional, -0.0, NaN,
// ±Inf and ±2^63.
func TestQuickLookupMatchesScan(t *testing.T) {
	twoTo63 := math.Ldexp(1, 63)
	gens := []struct {
		name string
		key  func(r *rand.Rand) sqltypes.Value
	}{
		{"dense", func(r *rand.Rand) sqltypes.Value { return sqltypes.NewInt(int64(r.Intn(8)) - 3) }},
		{"sparse", func(r *rand.Rand) sqltypes.Value {
			edge := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, -1 << 40, 1 << 53, 1<<53 + 1}
			if r.Intn(2) == 0 {
				return sqltypes.NewInt(edge[r.Intn(len(edge))])
			}
			return sqltypes.NewInt(r.Int63n(1<<20) - 1<<19)
		}},
		{"string", func(r *rand.Rand) sqltypes.Value { return sqltypes.NewString(string(rune('a' + r.Intn(6)))) }},
		{"mixed", func(r *rand.Rand) sqltypes.Value {
			k := int64(r.Intn(6))
			switch r.Intn(3) {
			case 0:
				return sqltypes.NewFloat(float64(k)) // one key with NewInt(k)
			case 1:
				return sqltypes.NewFloat(float64(k) + 0.5)
			}
			return sqltypes.NewInt(k)
		}},
	}
	probesOf := func(tb *Table, r *rand.Rand, gen func(*rand.Rand) sqltypes.Value) []sqltypes.Value {
		ps := []sqltypes.Value{
			sqltypes.Null, sqltypes.NewString("a"), sqltypes.NewInt(0), sqltypes.NewBool(true),
			sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(math.NaN()),
			sqltypes.NewFloat(math.Inf(1)), sqltypes.NewFloat(math.Inf(-1)),
			sqltypes.NewFloat(twoTo63), sqltypes.NewFloat(-twoTo63),
			sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MaxInt64),
			gen(r), gen(r),
		}
		for _, row := range tb.RowForm() {
			ps = append(ps, row[0])
			if row[0].K == sqltypes.KindInt {
				f := float64(row[0].I)
				ps = append(ps, sqltypes.NewFloat(f), sqltypes.NewFloat(f+0.5), sqltypes.NewInt(row[0].I+1))
			}
		}
		return ps
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				tb := NewTable(schema.NewTable("q", schema.Column{Name: "k", Type: schema.TInt}))
				n, late := r.Intn(60), r.Intn(4)
				insert := func() {
					v := g.key(r)
					if r.Intn(10) == 0 {
						v = sqltypes.Null
					}
					must(t, tb.Insert(Row{v}))
				}
				for i := 0; i < n; i++ {
					insert()
				}
				must(t, tb.CreateIndex("k"))
				for i := 0; i < late; i++ {
					insert()
				}
				for _, probe := range probesOf(tb, r, g.key) {
					ids, ok := tb.Lookup(0, probe)
					if !ok {
						t.Errorf("seed %d: no index", seed)
						return false
					}
					var want []int32
					for i, row := range tb.RowForm() {
						if !probe.IsNull() && sqltypes.Identical(row[0], probe) {
							want = append(want, int32(i))
						}
					}
					if !slices.Equal(ids, want) {
						t.Errorf("seed %d: Lookup(%v) = %v, scan %v", seed, probe, ids, want)
						return false
					}
					if ii := tb.IntIndex(0); ii != nil {
						if k, ok := sqltypes.IntKey(probe); ok && !slices.Equal(ii.Lookup(k), want) {
							t.Errorf("seed %d: IntIndex.Lookup(%d) = %v, scan %v", seed, k, ii.Lookup(k), want)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		})
	}
}

// The integer forms answer IntIndex; a column with any other key does not.
func TestIntIndexForms(t *testing.T) {
	for _, c := range []struct {
		name string
		keys []sqltypes.Value
		ints bool
	}{
		{"dense", []sqltypes.Value{sqltypes.NewInt(3), sqltypes.Null, sqltypes.NewInt(1)}, true},
		{"sparse", []sqltypes.Value{sqltypes.NewInt(math.MinInt64), sqltypes.NewInt(math.MaxInt64)}, true},
		{"all NULL", []sqltypes.Value{sqltypes.Null}, true},
		{"string", []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewString("1")}, false},
		{"float", []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewFloat(1)}, false},
	} {
		tb := NewTable(schema.NewTable("q", schema.Column{Name: "k", Type: schema.TInt}))
		for _, k := range c.keys {
			must(t, tb.Insert(Row{k}))
		}
		if tb.IntIndex(0) != nil {
			t.Errorf("%s: IntIndex before CreateIndex", c.name)
		}
		must(t, tb.CreateIndex("k"))
		if got := tb.IntIndex(0) != nil; got != c.ints {
			t.Errorf("%s: IntIndex present = %v, want %v", c.name, got, c.ints)
		}
	}
}

// A probe allocates nothing: the index hands out a view of its ids, and
// an encoded key lives on the stack.
func TestLookupAllocs(t *testing.T) {
	ints := NewTable(schema.NewTable("i", schema.Column{Name: "k", Type: schema.TInt}))
	strs := NewTable(schema.NewTable("s", schema.Column{Name: "k", Type: schema.TString}))
	for i := 0; i < 100; i++ {
		must(t, ints.Insert(Row{sqltypes.NewInt(int64(i % 10))}))
		must(t, strs.Insert(Row{sqltypes.NewString(string(rune('a' + i%10)))}))
	}
	must(t, ints.CreateIndex("k"))
	must(t, strs.CreateIndex("k"))
	for _, c := range []struct {
		name  string
		tb    *Table
		probe sqltypes.Value
	}{
		{"int", ints, sqltypes.NewInt(3)},
		{"float on int", ints, sqltypes.NewFloat(3)},
		{"string", strs, sqltypes.NewString("c")},
	} {
		var ids []int32
		allocs := testing.AllocsPerRun(100, func() {
			ids, _ = c.tb.Lookup(0, c.probe)
		})
		if len(ids) != 10 {
			t.Errorf("%s: %d ids, want 10", c.name, len(ids))
		}
		if allocs != 0 {
			t.Errorf("%s: Lookup allocates %v times per probe, want 0", c.name, allocs)
		}
	}
}

func TestNDV(t *testing.T) {
	tb := newT(t)
	for i := 0; i < 12; i++ {
		must(t, tb.Insert(Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(string(rune('a' + i%4)))}))
	}
	if got := tb.NDV(0); got != 12 {
		t.Errorf("NDV(id) = %d", got)
	}
	if got := tb.NDV(1); got != 4 {
		t.Errorf("NDV(grp) = %d", got)
	}
	// Cache invalidates on growth.
	must(t, tb.Insert(Row{sqltypes.NewInt(99), sqltypes.NewString("zz")}))
	if got := tb.NDV(1); got != 5 {
		t.Errorf("NDV(grp) after insert = %d", got)
	}
	// Out-of-range columns degrade to 1.
	if got := tb.NDV(9); got != 1 {
		t.Errorf("NDV(out of range) = %d", got)
	}
}

func TestDB(t *testing.T) {
	db := NewDB()
	def := schema.NewTable("people", schema.Column{Name: "name", Type: schema.TString})
	tb := db.Create(def)
	must(t, tb.Insert(Row{sqltypes.NewString("ada")}))
	if db.Table("PEOPLE") != tb {
		t.Error("table lookup must be case-insensitive")
	}
	if db.Table("ghost") != nil {
		t.Error("unknown table should be nil")
	}
	if db.Catalog.Lookup("people") != def {
		t.Error("catalog not wired")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTable on unknown table must panic")
		}
	}()
	db.MustTable("ghost")
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticTable(t *testing.T) {
	db := NewDB()
	n := 0
	def := schema.NewTable("sys.ticks", schema.Column{Name: "n", Type: schema.TInt})
	tb := db.CreateSynthetic(def, func() []Row {
		n++
		out := make([]Row, n)
		for i := range out {
			out[i] = Row{sqltypes.NewInt(int64(i))}
		}
		return out
	})
	if !tb.Synthetic() {
		t.Fatal("Synthetic() = false")
	}
	if db.Table("sys.ticks") != tb || db.Catalog.Lookup("sys.ticks") != def {
		t.Fatal("synthetic table not registered in db/catalog")
	}
	// Every scan re-invokes the source: live state, not a snapshot.
	r1, err := tb.Scan()
	must(t, err)
	r2, err := tb.Scan()
	must(t, err)
	if len(r1) != 1 || len(r2) != 2 {
		t.Fatalf("scans = %d, %d rows; want 1, 2", len(r1), len(r2))
	}
	// Read-only: no inserts, no indexes.
	if err := tb.Insert(Row{sqltypes.NewInt(9)}); err == nil {
		t.Fatal("Insert on synthetic table accepted")
	}
	if err := tb.CreateIndex("n"); err == nil {
		t.Fatal("CreateIndex on synthetic table accepted")
	}
	if tb.HasIndex(0) {
		t.Fatal("synthetic table has an index")
	}
	if tb.ColVecs() != nil {
		t.Fatal("synthetic table has a column form")
	}
}

// The stored form round-trips: each column vector is the one
// colvec.FromColumn builds over the inserted rows, Scan returns the rows
// in insertion order, and a snapshot taken before an Insert is unchanged
// after it.
func TestColumnRoundTrip(t *testing.T) {
	null := sqltypes.Null
	i, f, s, b := sqltypes.NewInt, sqltypes.NewFloat, sqltypes.NewString, sqltypes.NewBool
	def := schema.NewTable("every",
		schema.Column{Name: "i", Type: schema.TInt},
		schema.Column{Name: "f", Type: schema.TFloat},
		schema.Column{Name: "s", Type: schema.TString},
		schema.Column{Name: "b", Type: schema.TBool},
		schema.Column{Name: "num", Type: schema.TFloat},
		schema.Column{Name: "none", Type: schema.TInt},
		schema.Column{Name: "late", Type: schema.TString},
	)
	// Columns: ints with NULLs, floats, strings, bools, mixed int/float
	// (1 and 1.0), all-NULL, and a column whose first value comes after
	// NULLs and after a bitmap word boundary.
	var rows []Row
	for k := range 150 {
		r := Row{i(int64(k)), f(float64(k) / 4), s(string(rune('a' + k%26))), b(k%3 == 0), i(1), null, null}
		if k%7 == 0 {
			r[0], r[2] = null, null
		}
		if k%2 == 1 {
			r[4] = f(1.0)
		}
		if k >= 70 && k%5 != 0 {
			r[6] = s(fmt.Sprint(k))
		}
		rows = append(rows, r)
	}
	tb := NewTable(def)
	var snaps [][]colvec.Vec
	var clones [][]colvec.Vec
	for k, r := range rows {
		must(t, tb.Insert(r))
		if k%37 == 0 {
			vecs := tb.ColVecs()
			snaps = append(snaps, vecs)
			clones = append(clones, deepCopyVecs(vecs))
		}
	}
	vecs := tb.ColVecs()
	for c := range def.Columns {
		if want := colvec.FromColumn(rows, c); !reflect.DeepEqual(vecs[c], want) {
			t.Errorf("column %s: stored %+v, FromColumn %+v", def.Columns[c].Name, vecs[c], want)
		}
	}
	if vecs[4].Mixed == nil || vecs[5].K != sqltypes.KindNull || vecs[6].Nulls == nil {
		t.Errorf("representations: num mixed=%v, none kind=%v, late nulls=%v", vecs[4].Mixed != nil, vecs[5].K, vecs[6].Nulls != nil)
	}
	got, err := tb.Scan()
	must(t, err)
	if !reflect.DeepEqual(got, rows) {
		t.Errorf("Scan returned %d rows, not the %d inserted in order", len(got), len(rows))
	}
	for k := range snaps {
		if !reflect.DeepEqual(snaps[k], clones[k]) {
			t.Errorf("snapshot %d changed under later inserts", k)
		}
	}
}

// deepCopyVecs copies vectors with none of their arrays shared.
func deepCopyVecs(vecs []colvec.Vec) []colvec.Vec {
	out := make([]colvec.Vec, len(vecs))
	for c, v := range vecs {
		v.Ints, v.Floats, v.Strs = slices.Clone(v.Ints), slices.Clone(v.Floats), slices.Clone(v.Strs)
		v.Bools, v.Nulls, v.Mixed = slices.Clone(v.Bools), slices.Clone(v.Nulls), slices.Clone(v.Mixed)
		out[c] = v
	}
	return out
}

// Concurrent first Scans build the row form once, while readers of the
// column vectors run beside them.
func TestRowFormConcurrent(t *testing.T) {
	tb := newT(t)
	for k := range 1000 {
		must(t, tb.Insert(Row{sqltypes.NewInt(int64(k)), sqltypes.NewString(fmt.Sprint(k % 10))}))
	}
	before := rowMaterializations.Value()
	var wg sync.WaitGroup
	scans := make([][]Row, 8)
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				rows, err := tb.Scan()
				if err != nil {
					t.Error(err)
				}
				scans[g/2] = rows
				return
			}
			vecs := tb.ColVecs()
			if vecs[0].Len() != 1000 || vecs[1].Value(999).S != "9" {
				t.Errorf("column read: %d rows, last grp %v", vecs[0].Len(), vecs[1].Value(999))
			}
		}()
	}
	wg.Wait()
	if d := rowMaterializations.Value() - before; d != 1 {
		t.Errorf("%d row-form builds, want 1", d)
	}
	for g, rows := range scans {
		if len(rows) != 1000 || &rows[0] != &scans[0][0] || rows[999][0].I != 999 {
			t.Errorf("scan %d: %d rows, not the one shared row form", g, len(rows))
		}
	}
}

// Index DDL moves the DB's index generation; a no-op does not.
func TestIndexGeneration(t *testing.T) {
	db := NewDB()
	tb := db.Create(schema.NewTable("g", schema.Column{Name: "k", Type: schema.TInt}))
	must(t, tb.Insert(Row{sqltypes.NewInt(1)}))
	gen := db.IndexGen()
	step := func(what string, moves bool, f func() error) {
		t.Helper()
		must(t, f())
		if got := db.IndexGen(); (got != gen) != moves {
			t.Errorf("%s: generation %d → %d", what, gen, got)
		}
		gen = db.IndexGen()
	}
	step("CreateIndex", true, func() error { return tb.CreateIndex("k") })
	step("CreateIndex again", false, func() error { return tb.CreateIndex("k") })
	step("DropIndex", true, func() error { return tb.DropIndex("k") })
	step("DropIndex again", false, func() error { return tb.DropIndex("k") })
}
