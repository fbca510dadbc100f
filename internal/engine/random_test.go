package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/schema"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// randDB builds a small random two-table database. Value domains are tiny
// so that duplicates, empty correlation groups, and NULLs all occur.
func randDB(r *rand.Rand) *storage.DB {
	db := storage.NewDB()
	t1 := db.Create(schema.NewTable("t1",
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "a", Type: schema.TInt},
		schema.Column{Name: "b", Type: schema.TInt},
		schema.Column{Name: "c", Type: schema.TString},
	).AddKey("id"))
	t2 := db.Create(schema.NewTable("t2",
		schema.Column{Name: "id2", Type: schema.TInt},
		schema.Column{Name: "d", Type: schema.TInt},
		schema.Column{Name: "e", Type: schema.TInt},
		schema.Column{Name: "f", Type: schema.TString},
	).AddKey("id2"))
	maybeNullInt := func(max int, pNull float64) sqltypes.Value {
		if r.Float64() < pNull {
			return sqltypes.Null
		}
		return sqltypes.NewInt(int64(r.Intn(max)))
	}
	n1 := 3 + r.Intn(15)
	for i := 0; i < n1; i++ {
		err := t1.Insert(storage.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(r.Intn(8))),
			maybeNullInt(11, 0.15),
			sqltypes.NewString(string(rune('p' + r.Intn(3)))),
		})
		if err != nil {
			panic(err)
		}
	}
	n2 := r.Intn(25)
	for i := 0; i < n2; i++ {
		err := t2.Insert(storage.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(r.Intn(10))), // some t1.a values unmatched
			maybeNullInt(11, 0.2),
			sqltypes.NewString(string(rune('p' + r.Intn(3)))),
		})
		if err != nil {
			panic(err)
		}
	}
	if r.Intn(2) == 0 {
		if err := t2.CreateIndex("d"); err != nil {
			panic(err)
		}
	}
	return db
}

var cmps = []string{"=", "<>", "<", "<=", ">", ">="}
var aggs = []string{"count", "sum", "min", "max", "avg"}

// randQuery emits a random correlated query from a template family.
func randQuery(r *rand.Rand) string {
	cmp := func() string { return cmps[r.Intn(len(cmps))] }
	agg := func() string { return aggs[r.Intn(len(aggs))] }
	konst := func() int { return r.Intn(11) }
	switch r.Intn(9) {
	case 0: // scalar aggregate in WHERE
		return fmt.Sprintf(`
			select id, a, b from t1
			where b %s (select %s(e) from t2 where t2.d = t1.a)`, cmp(), agg())
	case 1: // scalar aggregate with extra inner predicate
		return fmt.Sprintf(`
			select id, a from t1
			where b %s (select %s(e) from t2 where t2.d = t1.a and e %s %d)`,
			cmp(), agg(), cmp(), konst())
	case 2: // EXISTS / NOT EXISTS
		not := ""
		if r.Intn(2) == 0 {
			not = "not "
		}
		return fmt.Sprintf(`
			select id, a from t1
			where %sexists (select * from t2 where d = t1.a and e %s %d)`,
			not, cmp(), konst())
	case 3: // IN / NOT IN
		not := ""
		if r.Intn(2) == 0 {
			not = "not "
		}
		return fmt.Sprintf(`
			select id from t1
			where b %sin (select e from t2 where d = t1.a)`, not)
	case 4: // scalar subquery in the select list
		return fmt.Sprintf(`
			select id, (select %s(e) from t2 where d = t1.a) from t1`, agg())
	case 5: // lateral derived table
		return fmt.Sprintf(`
			select t1.id, x.v from t1,
			  (select %s(e) from t2 where d = t1.a) as x(v)
			where t1.b %s %d or t1.b is null`, agg(), cmp(), konst())
	case 6: // multi-level correlation
		return fmt.Sprintf(`
			select id from t1
			where b %s (select count(*) from t2
			            where d = t1.a and exists
			              (select * from t2 u where u.d = t1.a and u.e %s t2.e))`,
			cmp(), cmp())
	case 8: // correlated INTERSECT/EXCEPT in a lateral table expression
		op := "intersect"
		if r.Intn(2) == 0 {
			op = "except"
		}
		all := ""
		if r.Intn(2) == 0 {
			all = " all"
		}
		return fmt.Sprintf(`
			select t1.id, x.v from t1,
			  (select count(q) from
			    ((select e from t2 where d = t1.a)
			     %s%s
			     (select e from t2 where d = t1.a and e %s %d)) as u(q)
			  ) as x(v)`, op, all, cmp(), konst())
	case 7: // correlated UNION in a lateral table expression
		return fmt.Sprintf(`
			select t1.id, x.v from t1,
			  (select sum(q) from
			    ((select e from t2 where d = t1.a)
			     union all
			     (select %d from t2 where d = t1.a and e %s %d)) as u(q)
			  ) as x(v)`, konst(), cmp(), konst())
	}
	panic("unreachable")
}

// TestRandomizedDifferential cross-checks magic decorrelation (and batched
// nested iteration) against nested iteration on hundreds of random
// correlated queries over random data.
func TestRandomizedDifferential(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for seed := 0; seed < iters; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		db := randDB(r)
		sql := randQuery(r)
		e := engine.New(db)
		want, _, err := e.Query(sql, engine.NI)
		if err != nil {
			t.Fatalf("seed %d: NI failed on\n%s\n%v", seed, sql, err)
		}
		for _, s := range []engine.Strategy{engine.NIBatch, engine.Magic, engine.OptMagic} {
			got, _, err := e.Query(sql, s)
			if err != nil {
				t.Fatalf("seed %d: %s failed on\n%s\n%v", seed, s, sql, err)
			}
			g, w := multiset(got), multiset(want)
			if len(g) != len(w) {
				t.Fatalf("seed %d: %s returned %d rows, NI %d on\n%s\ngot  %v\nwant %v",
					seed, s, len(g), len(w), sql, g, w)
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("seed %d: %s row %d = %q, NI %q on\n%s", seed, s, i, g[i], w[i], sql)
				}
			}
		}
	}
}
