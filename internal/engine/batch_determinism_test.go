package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/schema"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// TestBatchedDeterminismMatrix is the columnar-parity matrix extended to
// binding reuse: every correlated shape runs under NIBatch at workers 1, 2,
// and 8 with the vectorized engine on and off. Rows (including order) and
// execution counters must be identical across every cell, rows must be
// bit-identical to the per-row NI baseline, and the reuse path must
// actually have engaged (BatchedSubqueries > 0) — a silently-declined batch
// would make this test vacuous. The cells also agree on MemoHits: a memo
// miss is single-flight, so each binding is evaluated exactly once however
// the workers interleave (docs/parallel-execution.md, contract 4).
func TestBatchedDeterminismMatrix(t *testing.T) {
	tpcdDB := tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 7})
	empDB := tpcd.EmpDept()
	cases := []struct {
		name, sql string
		db        *storage.DB
		// niWork: NIBatch does exactly NI's work (Work() and HashBuilds).
		// memo: the memo cache must serve at least one binding.
		niWork, memo bool
	}{
		// Correlated scalar COUNT over a group box: signature extraction
		// declines at the group root, exercising the per-distinct-binding
		// fallback with duplicate correlation values (two B1 departments).
		{name: "ScalarAgg", sql: tpcd.ExampleQuery, db: empDB},
		// Root-level equality correlation: the single-execution path.
		{name: "Exists", sql: `Select D.name From Dept D
			 Where Exists (Select * From Emp E Where E.building = D.building)
			 Order By D.name`, db: empDB},
		{name: "NotExists", sql: `Select D.name From Dept D
			 Where Not Exists (Select * From Emp E Where E.building = D.building)
			 Order By D.name`, db: empDB},
		// The same correlation with one binding: its one evaluation keeps
		// the correlated predicate (an index probe), where the stripped
		// single execution would scan and hash all of Emp.
		{name: "ExistsOneBinding", sql: `Select D.name From Dept D
			 Where D.name = 'toys'
			   And Exists (Select * From Emp E Where E.building = D.building)`,
			db: empDB, niWork: true},
		// Quantifier ties outside the subtree plus correlation inside it.
		{name: "In", sql: `Select D.name From Dept D
			 Where D.name In (Select E.name From Emp E Where E.building = D.building)
			 Order By D.name`, db: empDB},
		// A skip-level subquery: the inner EXISTS is correlated only to the
		// outer block, so it runs once per evaluation of the middle box, and
		// departments sharing a building repeat its binding.
		{name: "SkipLevel", sql: `Select D.name From Dept D
			 Where Exists (Select * From Dept D2
			               Where D2.name = D.name
			                 And Exists (Select * From Emp E Where E.building = D.building))
			 Order By D.name`, db: empDB, memo: true},
		{name: "Query1", sql: tpcd.Query1, db: tpcdDB},
		{name: "Query2", sql: tpcd.Query2, db: tpcdDB},
		// Lateral derived tables (Figure 9): the lateral's subtree runs once
		// per distinct binding and its rows fan back in stream order.
		{name: "Query3", sql: tpcd.Query3, db: tpcdDB},
		{name: "Query3Distinct", sql: tpcd.Query3Distinct, db: tpcdDB},
		// An aggregate lateral with duplicate bindings (two B1 departments).
		// A plain select lateral is merged by cleanup, so it would never
		// reach the lateral join.
		{name: "LateralAgg", sql: `Select D.name, X.n From Dept D,
			   (Select count(*) From Emp E Where E.building = D.building) As X(n)
			 Order By D.name, X.n`, db: empDB},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := engine.New(c.db)
			base.Workers = 1
			niRows, niStats, err := base.Query(c.sql, engine.NI)
			if err != nil {
				t.Fatalf("NI baseline: %v", err)
			}
			want := ordered(niRows)

			type run struct {
				rows  []string
				stats [7]int64
				reuse [3]int64
			}
			var first *run
			for _, w := range []int{1, 2, 8} {
				for _, rowMode := range []bool{false, true} {
					cell := fmt.Sprintf("workers=%d rowmode=%v", w, rowMode)
					e := engine.New(c.db)
					e.Workers = w
					e.RowMode = rowMode
					rows, stats, err := e.Query(c.sql, engine.NIBatch)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					got := run{
						rows:  ordered(rows),
						stats: execCounters(stats),
						reuse: [3]int64{stats.BatchedSubqueries, stats.BatchExecutions, stats.MemoHits},
					}
					if got.reuse[0] == 0 {
						t.Fatalf("%s: batched path never engaged", cell)
					}
					if c.memo && got.reuse[2] == 0 {
						t.Fatalf("%s: no binding was served from the memo cache", cell)
					}
					if c.niWork && (stats.Work() != niStats.Work() || stats.HashBuilds != niStats.HashBuilds) {
						t.Fatalf("%s: work %d, hash builds %d; NI does %d and %d",
							cell, stats.Work(), stats.HashBuilds, niStats.Work(), niStats.HashBuilds)
					}
					if len(got.rows) != len(want) {
						t.Fatalf("%s: %d rows, NI baseline has %d", cell, len(got.rows), len(want))
					}
					for i := range got.rows {
						if got.rows[i] != want[i] {
							t.Fatalf("%s row %d: got %q, NI baseline %q", cell, i, got.rows[i], want[i])
						}
					}
					if first == nil {
						first = &got
						continue
					}
					if got.stats != first.stats {
						t.Fatalf("%s: counters %v, want %v", cell, got.stats, first.stats)
					}
					if got.reuse != first.reuse {
						t.Fatalf("%s: batch/memo counters %v, want %v", cell, got.reuse, first.reuse)
					}
				}
			}
		})
	}
}

// TestSharedBoxDeterminism extends the matrix to shared boxes: four
// identical scalar subqueries decorrelate under OptMagic into one plan that
// reads the same uncorrelated boxes many times over. A shared box's first
// evaluation is single-flight, so under either CSE policy the full Stats —
// CSERecomputes included — are the same at workers 1, 2 and 8, in both
// engines, run after run. Workers that raced to fill the cache used to
// evaluate a shared box twice (MaterializeCSE) or skip counting a
// recompute (the default).
func TestSharedBoxDeterminism(t *testing.T) {
	const sql = `select e.name,
		(select count(*) from dept d where d.building = e.building) as c0,
		(select count(*) from dept d where d.building = e.building) as c1,
		(select count(*) from dept d where d.building = e.building) as c2,
		(select count(*) from dept d where d.building = e.building) as c3
		from emp e`
	db := tpcd.EmpDept()
	for _, materialize := range []bool{false, true} {
		var first *exec.Stats
		var want []string
		for _, w := range []int{1, 2, 8} {
			for _, rowMode := range []bool{false, true} {
				for run := 0; run < 10; run++ {
					cell := fmt.Sprintf("MaterializeCSE=%v workers=%d rowmode=%v run %d", materialize, w, rowMode, run)
					e := engine.New(db)
					e.MaterializeCSE = materialize
					e.Workers = w
					e.RowMode = rowMode
					rows, stats, err := e.Query(sql, engine.OptMagic)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					got := ordered(rows)
					if first == nil {
						first, want = stats, got
						if stats.CSERecomputes == 0 && !materialize {
							t.Fatalf("%s: no shared box was recomputed; the shape lost its point", cell)
						}
						continue
					}
					if *stats != *first {
						t.Fatalf("%s: stats %+v, want %+v", cell, *stats, *first)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d rows, want %d", cell, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s row %d: got %q, want %q", cell, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// batchBoundaryDB: outer t1(k) with duplicate correlation values and inner
// t2(k, v), no indexes — the exists-probe below takes the single-execution
// batch path, whose tracked bytes are exactly the distinct binding keys
// plus the partitioned build side.
func batchBoundaryDB() *storage.DB {
	db := storage.NewDB()
	t1 := db.Create(schema.NewTable("t1", schema.Column{Name: "k", Type: schema.TInt}))
	for _, k := range []int64{1, 1, 2, 2, 3} {
		if err := t1.Insert(storage.Row{sqltypes.NewInt(k)}); err != nil {
			panic(err)
		}
	}
	t2 := db.Create(schema.NewTable("t2",
		schema.Column{Name: "k", Type: schema.TInt},
		schema.Column{Name: "v", Type: schema.TInt}))
	for _, kv := range [][2]int64{{1, 10}, {2, 20}, {2, 21}} {
		if err := t2.Insert(storage.Row{sqltypes.NewInt(kv[0]), sqltypes.NewInt(kv[1])}); err != nil {
			panic(err)
		}
	}
	return db
}

// TestBatchedGovernorExactBoundary pins the batched path's MaxTrackedBytes
// accounting to the byte: the bindings relation is charged at its encoded
// key lengths and the single-execution build side at the same rowsBytes
// model as a hash-join build (24 bytes per value). A budget of exactly that
// sum passes; one byte less trips ErrMemBudget — at any worker count.
func TestBatchedGovernorExactBoundary(t *testing.T) {
	const sql = `Select T.k From t1 T
		Where Exists (Select I.v From t2 I Where I.k = T.k)
		Order By T.k`
	db := batchBoundaryDB()

	// Distinct bindings of T.k are {1, 2, 3}; the build side is the three
	// projected width-1 int rows of t2.
	keyLen := func(v sqltypes.Value) int64 {
		return int64(len(sqltypes.Key([]sqltypes.Value{v})))
	}
	budget := keyLen(sqltypes.NewInt(1)) + keyLen(sqltypes.NewInt(2)) +
		keyLen(sqltypes.NewInt(3)) + 3*24

	for _, w := range []int{1, 4} {
		e := engine.New(db)
		e.Workers = w
		e.Limits = exec.Limits{MaxTrackedBytes: budget}
		rows, stats, err := e.Query(sql, engine.NIBatch)
		if err != nil {
			t.Fatalf("workers=%d: exact budget %d tripped: %v", w, budget, err)
		}
		sameRows(t, "exact-budget rows", multiset(rows), []string{"1", "1", "2", "2"})
		// Pin the path the formula describes: one batched call covering all
		// five outer tuples, collapsed into one single-execution run.
		if stats.BatchedSubqueries != 5 || stats.BatchExecutions != 1 {
			t.Fatalf("workers=%d: batched=%d batch-execs=%d, want 5 and 1",
				w, stats.BatchedSubqueries, stats.BatchExecutions)
		}

		e.Limits = exec.Limits{MaxTrackedBytes: budget - 1}
		if _, _, err := e.Query(sql, engine.NIBatch); !errors.Is(err, exec.ErrMemBudget) {
			t.Fatalf("workers=%d: budget %d: got %v, want ErrMemBudget", w, budget-1, err)
		}
	}
}

// TestBatchedSysCatalogFallback: correlated subqueries over sys.* synthetic
// tables must not be batched (their row sources read live engine state), but
// NIBatch must still answer them — by falling back to per-tuple nested
// iteration — with rows identical to NI.
func TestBatchedSysCatalogFallback(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	e.MountSystemCatalog()
	// Populate the query log with completed queries of two strategies.
	for _, s := range []engine.Strategy{engine.NI, engine.Magic} {
		if _, _, err := e.Query(tpcd.ExampleQuery, s); err != nil {
			t.Fatal(err)
		}
	}

	// DISTINCT keeps the expected rows stable while the log keeps growing:
	// every comparison run below appends its own completed query to it.
	const sql = `select distinct q.strategy from sys.query_log q
		where exists (select * from sys.query_log q2 where q2.strategy = q.strategy)
		order by q.strategy`
	want, _ := query(t, e, sql, engine.NI)
	if len(want) == 0 {
		t.Fatal("query log is empty; the regression needs completed queries")
	}
	got, stats := query(t, e, sql, engine.NIBatch)
	sameRows(t, "NIBatch over sys.query_log", got, want)
	if stats.BatchedSubqueries != 0 {
		t.Errorf("batched a volatile sys.* subtree: batched=%d", stats.BatchedSubqueries)
	}
	if stats.SubqueryInvocations == 0 {
		t.Error("fallback never invoked the correlated subquery")
	}
}
