package differ_test

// Shrunk reproducers found by `decorr fuzz` during development, pinned
// exactly as the harness emitted them. Each one was a real divergence from
// the nested-iteration oracle before its fix landed:
//
//   - The NULL-binding ties: decorrelation joined the outer block back to
//     the decorrelated view (and MAGIC to the compensation join) with
//     comparison equality, so outer rows whose correlation column is NULL
//     were silently dropped — the NULL cousin of the COUNT bug. Fixed by
//     using grouping equality (IS NOT DISTINCT FROM) for tie and
//     compensation predicates (internal/core/decorrelate.go).
//
//   - The nested-subquery binding flow: when the correlation reaches the
//     child only through a nested NOT EXISTS, the decorrelated view holds a
//     NULL-keyed group with a real aggregate; the compensation join must
//     re-find it instead of NULL-extending. Same fix.
//
//   - OptMag over existential quantifiers: eliminating the supplementary
//     table is only sound when the fed quantifier contributes rows;
//     doing it for IN/EXISTS left the outer block with no range and an
//     invalid graph. Fixed by gating optFeed on row-contributing kinds.
//
//   - The same-named columns of a self-join: cleanup's duplicate-predicate
//     rule compared predicates by their printed form, which names a column,
//     not its ordinal. Decorrelating over `emp o1, emp o2` gives SUPP and
//     MAGIC two columns named `building`, so a tie predicate and an LOJ key
//     over different columns looked identical and one was dropped. Fixed by
//     comparing structurally (qgm.EqualExpr). Written by hand: the
//     generator's outer block ranges over a single table.

import (
	"math"
	"testing"

	"decorr/internal/differ"
	"decorr/internal/schema"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

func TestDifferRegression_magic_empdept_16000090(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "empdept", Seed: 16000090, Size: 4},
		"magic",
		`select o.building, (select count(i1.building) from dept i1 where i1.num_emps <= (select count(*) from dept i2 where i2.building = o.building)) from emp o`)
}

func TestDifferRegression_magic_empdept_20000102(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "empdept", Seed: 20000102, Size: 2},
		"magic",
		`select x.v from emp o, (select avg(i1.budget) from dept i1 where i1.building = o.building) as x(v)`)
}

func TestDifferRegression_gw_empdept_26000120(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "empdept", Seed: 26000120, Size: 4},
		"gw",
		`select o.budget from dept o where 0 <= (select count(*) from emp i1 where i1.building = o.building)`)
}

func TestDifferRegression_magic_empdept_26000120(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "empdept", Seed: 26000120, Size: 4},
		"magic",
		`select o.budget from dept o where 0 <= (select count(*) from emp i1 where i1.building = o.building)`)
}

func TestDifferRegression_magic_empdept_28000126(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "empdept", Seed: 28000126, Size: 2},
		"magic",
		`select o.building, (select count(*) from dept i1 where i1.name in (select i2.name from dept i2 where i2.building = o.building)) from emp o`)
}

func TestDifferRegression_magic_empdept_48000186(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "empdept", Seed: 48000186, Size: 2},
		"magic",
		`select o.building from emp o where 0 >= (select count(i1.budget) from dept i1 where i1.budget > (select avg(i2.num_emps) from dept i2 where i2.building = o.building))`)
}

func TestDifferRegression_magic_tpcd_29000129(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "tpcd", Seed: 29000129, Size: 4},
		"magic",
		`select o.l_suppkey, (select max(i1.ps_supplycost) from partsupp i1 where not exists (select * from partsupp i2 where i2.ps_suppkey = o.l_suppkey)) from lineitem o`)
}

func TestDifferRegression_magic_tpcd_55000207(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "tpcd", Seed: 55000207, Size: 2},
		"magic",
		`select o.s_acctbal, (select avg(i1.c_custkey) from customers i1 where i1.c_nation = o.s_nation) from suppliers o`)
}

func TestDifferRegression_gw_tpcd_55000207(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "tpcd", Seed: 55000207, Size: 2},
		"gw",
		`select o.s_acctbal, (select avg(i1.c_custkey) from customers i1 where i1.c_nation = o.s_nation) from suppliers o`)
}

func TestDifferRegression_optmagic_tpcd_55000207(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "tpcd", Seed: 55000207, Size: 2},
		"optmagic",
		`select o.s_acctbal, (select avg(i1.c_custkey) from customers i1 where i1.c_nation = o.s_nation) from suppliers o`)
}

// The next two pinned OptMag's invalid-graph failure ("select box has no
// row-contributing quantifier"): the fed quantifier is existential, so the
// supplementary table must not be eliminated. CheckSQL fails loudly on any
// strategy error, so these assert the graph stays valid.

func TestDifferRegression_optmagic_tpcd_57000213(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "tpcd", Seed: 57000213, Size: 8},
		"optmagic",
		`select o.p_container, o.p_brand from parts o where not exists (select * from partsupp i1 where (i1.ps_suppkey = 1 or i1.ps_supplycost is null) and 'AFRICA' in (select i2.s_region from suppliers i2 where i2.s_acctbal < 2 and i2.s_suppkey = i1.ps_suppkey) and i1.ps_partkey = o.p_partkey)`)
}

func TestDifferRegression_optmagic_tpcd_59000219(t *testing.T) {
	differ.CheckSQL(t,
		differ.DBSpec{Schema: "tpcd", Seed: 59000219, Size: 8},
		"optmagic",
		`select o.p_brand from parts o where o.p_retailprice <> 0.5 and (o.p_container < 'MED BOX' or o.p_retailprice is null) and o.p_retailprice in (select i1.l_suppkey from lineitem i1 where i1.l_quantity is not null and i1.l_partkey = o.p_partkey)`)
}

// The binding-key canonicalization pins. The batched NI executor shares
// subquery results between outer tuples whose correlation bindings encode
// to the same sqltypes key (bindingKey, which its batch path and its memo
// cache both use), so the key's equality notion must be exactly the
// grouping notion the comparisons use: NULL and the empty string must stay
// distinct keys, while numerically equal values of different kinds (1 vs
// 1.0, -0.0 vs 0.0) may share one — sharing is only sound because
// comparison equality agrees. Each test hand-builds the witness data the
// generated schemas cannot express and checks the result-sharing variant
// against the per-tuple NI oracle.

func bindingKeyStringDB() *storage.DB {
	db := storage.NewDB()
	outr := db.Create(schema.NewTable("outr",
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "s", Type: schema.TString}))
	for i, v := range []sqltypes.Value{
		sqltypes.Null, sqltypes.NewString(""), sqltypes.NewString("x"),
		sqltypes.NewString(""), sqltypes.Null,
	} {
		if err := outr.Insert(storage.Row{sqltypes.NewInt(int64(i)), v}); err != nil {
			panic(err)
		}
	}
	innr := db.Create(schema.NewTable("innr",
		schema.Column{Name: "s", Type: schema.TString},
		schema.Column{Name: "v", Type: schema.TInt}))
	for i, v := range []sqltypes.Value{
		sqltypes.NewString(""), sqltypes.NewString("x"), sqltypes.NewString("x"), sqltypes.Null,
	} {
		if err := innr.Insert(storage.Row{v, sqltypes.NewInt(int64(10 + i))}); err != nil {
			panic(err)
		}
	}
	return db
}

func bindingKeyNumericDB() *storage.DB {
	db := storage.NewDB()
	outr := db.Create(schema.NewTable("outr",
		schema.Column{Name: "id", Type: schema.TInt},
		schema.Column{Name: "k", Type: schema.TFloat}))
	// Mixed kinds in one correlation column: int 1 vs float 1.0 and
	// -0.0 vs 0.0 vs int 0 must behave exactly as comparison equality does.
	for i, v := range []sqltypes.Value{
		sqltypes.NewInt(1), sqltypes.NewFloat(1.0),
		sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(0.0), sqltypes.NewInt(0),
		sqltypes.NewFloat(2.5), sqltypes.Null,
	} {
		if err := outr.Insert(storage.Row{sqltypes.NewInt(int64(i)), v}); err != nil {
			panic(err)
		}
	}
	innr := db.Create(schema.NewTable("innr",
		schema.Column{Name: "k", Type: schema.TFloat}))
	for _, v := range []sqltypes.Value{
		sqltypes.NewFloat(1.0), sqltypes.NewInt(0), sqltypes.NewFloat(2.5), sqltypes.Null,
	} {
		if err := innr.Insert(storage.Row{v}); err != nil {
			panic(err)
		}
	}
	return db
}

func TestDifferRegression_bindingkey_null_vs_empty(t *testing.T) {
	const sql = `select o.id, (select count(*) from innr i where i.s = o.s) from outr o`
	differ.CheckSQLOnDB(t, bindingKeyStringDB(), "bindingkey-strings", "nibatch", sql)
}

func TestDifferRegression_bindingkey_null_vs_empty_exists(t *testing.T) {
	const sql = `select o.id from outr o where exists (select * from innr i where i.s = o.s)`
	differ.CheckSQLOnDB(t, bindingKeyStringDB(), "bindingkey-strings", "nibatch", sql)
}

func TestDifferRegression_bindingkey_int_float_zero(t *testing.T) {
	const sql = `select o.id, (select count(*) from innr i where i.k = o.k) from outr o`
	differ.CheckSQLOnDB(t, bindingKeyNumericDB(), "bindingkey-numeric", "nibatch", sql)
}

// The self-join pins (see the header): each subquery correlates with both
// o1.building and o2.building, which decorrelation carries side by side
// under one name.

func TestDifferRegression_selfjoin_empdept_1(t *testing.T) {
	for _, variant := range []string{"magic", "optmagic", "auto"} {
		differ.CheckSQL(t,
			differ.DBSpec{Schema: "empdept", Seed: 1, Size: 4},
			variant,
			`select o1.name, o2.name from emp o1, emp o2 where 0 < (select count(*) from dept i1 where i1.building = o1.building or i1.building = o2.building)`)
	}
}

func TestDifferRegression_selfjoin_lateral_empdept_1(t *testing.T) {
	for _, variant := range []string{"magic", "optmagic", "auto"} {
		differ.CheckSQL(t,
			differ.DBSpec{Schema: "empdept", Seed: 1, Size: 4},
			variant,
			`select o1.name, o2.name, x.n from emp o1, emp o2, (select count(*) from dept i1 where i1.building = o1.building and i1.name <> o2.building) as x(n)`)
	}
}
