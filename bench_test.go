// Benchmarks regenerating every table and figure of the paper's
// evaluation. Run them all with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark has one sub-benchmark per strategy; strategies the
// paper reports as inapplicable (Kim/Dayal on the non-linear Query 3) are
// skipped, mirroring the missing bars in the published figures. The
// work/op metric is the machine-independent row-operation count; shapes
// should be compared against EXPERIMENTS.md.
package decorr_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"decorr"
	"decorr/internal/classic"
	"decorr/internal/parallel"
)

// benchSF scales the benchmark database; -short quarters it.
func benchSF() float64 {
	if testing.Short() {
		return 0.025
	}
	return 0.1
}

var tpcdOnce = sync.OnceValue(func() *decorr.DB {
	return decorr.TPCD(benchSF(), 42)
})

var tpcdNoIndexOnce = sync.OnceValue(func() *decorr.DB {
	db := decorr.TPCD(benchSF(), 42)
	if err := db.MustTable("partsupp").DropIndex("ps_partkey"); err != nil {
		panic(err)
	}
	return db
})

var figureStrategies = []decorr.Strategy{
	decorr.NI, decorr.NIBatch, decorr.Kim, decorr.Dayal, decorr.Magic, decorr.OptMagic,
}

func benchFigure(b *testing.B, db *decorr.DB, sql string) {
	e := decorr.NewEngine(db)
	for _, s := range figureStrategies {
		b.Run(s.String(), func(b *testing.B) {
			p, err := e.Prepare(sql, s)
			if errors.Is(err, classic.ErrNotApplicable) {
				b.Skipf("%s: %v (matches the paper's missing bar)", s, err)
			}
			if err != nil {
				b.Fatal(err)
			}
			var work, invocations int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, stats, err := p.Run()
				if err != nil {
					b.Fatal(err)
				}
				work = stats.Work()
				invocations = stats.SubqueryInvocations
			}
			b.ReportMetric(float64(work), "work/op")
			b.ReportMetric(float64(invocations), "subqinv/op")
		})
	}
}

// BenchmarkTable1 measures database generation and asserts the SF=1
// cardinality contract indirectly through scaled counts.
func BenchmarkTable1Generate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := decorr.TPCD(0.01, int64(i))
		if len(db.MustTable("lineitem").Rows) == 0 {
			b.Fatal("empty lineitem")
		}
	}
}

// BenchmarkFigure5 — Query 1 with all indexes present.
func BenchmarkFigure5(b *testing.B) { benchFigure(b, tpcdOnce(), decorr.Query1) }

// BenchmarkFigure6 — Query 1(b): no size predicate, two regions, thousands
// of (heavily duplicated) correlation bindings.
func BenchmarkFigure6(b *testing.B) { benchFigure(b, tpcdOnce(), decorr.Query1b) }

// BenchmarkFigure7 — Query 1(c): the index the subquery probes is dropped,
// inflating per-invocation cost.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, tpcdNoIndexOnce(), decorr.Query1b) }

// BenchmarkFigure8 — Query 2: key correlation, cheap subquery;
// decorrelation must not hurt.
func BenchmarkFigure8(b *testing.B) { benchFigure(b, tpcdOnce(), decorr.Query2) }

// BenchmarkFigure9 — Query 3: non-linear UNION subquery, 5 distinct
// bindings; Kim and Dayal are skipped (inapplicable).
func BenchmarkFigure9(b *testing.B) { benchFigure(b, tpcdOnce(), decorr.Query3) }

// BenchmarkParallelSpeedup measures the real multi-core gain of the morsel
// scheduler: every Figure 5–9 workload, every strategy, workers=1 versus
// workers=NumCPU, reporting the wall-clock ratio as a speedup/op metric
// (1.0 on a single-CPU host — the scheduler degenerates to the inline
// sequential path there). The first iteration also re-verifies the
// determinism contract: both worker counts must produce identical rows in
// identical order.
func BenchmarkParallelSpeedup(b *testing.B) {
	ncpu := runtime.NumCPU()
	figures := []struct {
		name, sql string
		db        func() *decorr.DB
	}{
		{"Figure5", decorr.Query1, tpcdOnce},
		{"Figure6", decorr.Query1b, tpcdOnce},
		{"Figure7", decorr.Query1b, tpcdNoIndexOnce},
		{"Figure8", decorr.Query2, tpcdOnce},
		{"Figure9", decorr.Query3, tpcdOnce},
	}
	for _, fig := range figures {
		for _, s := range figureStrategies {
			b.Run(fig.name+"/"+s.String(), func(b *testing.B) {
				db := fig.db()
				prep := func(workers int) (*decorr.Prepared, error) {
					e := decorr.NewEngine(db)
					e.Workers = workers
					return e.Prepare(fig.sql, s)
				}
				p1, err := prep(1)
				if errors.Is(err, classic.ErrNotApplicable) {
					b.Skipf("%s: %v (matches the paper's missing bar)", s, err)
				}
				if err != nil {
					b.Fatal(err)
				}
				pN, err := prep(ncpu)
				if err != nil {
					b.Fatal(err)
				}
				rows1, _, err := p1.Run()
				if err != nil {
					b.Fatal(err)
				}
				rowsN, _, err := pN.Run()
				if err != nil {
					b.Fatal(err)
				}
				if len(rows1) != len(rowsN) {
					b.Fatalf("workers=1 produced %d rows, workers=%d produced %d", len(rows1), ncpu, len(rowsN))
				}
				for i := range rows1 {
					for j := range rows1[i] {
						if rows1[i][j].String() != rowsN[i][j].String() {
							b.Fatalf("row %d col %d: workers=1 %q, workers=%d %q",
								i, j, rows1[i][j], ncpu, rowsN[i][j])
						}
					}
				}
				var t1, tN time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := time.Now()
					if _, _, err := p1.Run(); err != nil {
						b.Fatal(err)
					}
					t1 += time.Since(start)
					start = time.Now()
					if _, _, err := pN.Run(); err != nil {
						b.Fatal(err)
					}
					tN += time.Since(start)
				}
				if tN > 0 {
					b.ReportMetric(float64(t1)/float64(tN), "speedup/op")
				}
				b.ReportMetric(float64(ncpu), "workers")
			})
		}
	}
}

// BenchmarkFigureRowVsColumnar pits the vectorized executor against the
// row-at-a-time path on every Figure 5–9 workload at workers=1 (no
// parallelism — the ratio is pure batch-execution gain). The row and
// columnar sub-benchmarks carry allocs/op so the allocation reduction is
// visible next to the time; the speedup sub-benchmark interleaves both
// engines in one timed loop and reports the wall-clock ratio, verifying
// on the first iteration that the two paths produce identical rows in
// identical order. make bench-smoke lands all three in BENCH_exec.json.
func BenchmarkFigureRowVsColumnar(b *testing.B) {
	figures := []struct {
		name, sql string
		db        func() *decorr.DB
	}{
		{"Figure5", decorr.Query1, tpcdOnce},
		{"Figure6", decorr.Query1b, tpcdOnce},
		{"Figure7", decorr.Query1b, tpcdNoIndexOnce},
		{"Figure8", decorr.Query2, tpcdOnce},
		{"Figure9", decorr.Query3, tpcdOnce},
	}
	prep := func(b *testing.B, db *decorr.DB, sql string, rowMode bool) *decorr.Prepared {
		e := decorr.NewEngine(db)
		e.Workers = 1
		e.RowMode = rowMode
		p, err := e.Prepare(sql, decorr.Magic)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	for _, fig := range figures {
		b.Run(fig.name+"/row", func(b *testing.B) {
			p := prep(b, fig.db(), fig.sql, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fig.name+"/columnar", func(b *testing.B) {
			p := prep(b, fig.db(), fig.sql, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fig.name+"/speedup", func(b *testing.B) {
			db := fig.db()
			pRow := prep(b, db, fig.sql, true)
			pCol := prep(b, db, fig.sql, false)
			rowRows, _, err := pRow.Run()
			if err != nil {
				b.Fatal(err)
			}
			colRows, _, err := pCol.Run()
			if err != nil {
				b.Fatal(err)
			}
			if len(rowRows) != len(colRows) {
				b.Fatalf("row path produced %d rows, columnar %d", len(rowRows), len(colRows))
			}
			for i := range rowRows {
				for j := range rowRows[i] {
					if rowRows[i][j].String() != colRows[i][j].String() {
						b.Fatalf("row %d col %d: row path %q, columnar %q",
							i, j, rowRows[i][j], colRows[i][j])
					}
				}
			}
			var tRow, tCol time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, _, err := pRow.Run(); err != nil {
					b.Fatal(err)
				}
				tRow += time.Since(start)
				// Collect outside the timed windows so one engine's garbage
				// is not charged to the other's wall clock.
				runtime.GC()
				start = time.Now()
				if _, _, err := pCol.Run(); err != nil {
					b.Fatal(err)
				}
				tCol += time.Since(start)
				runtime.GC()
			}
			if tCol > 0 {
				b.ReportMetric(float64(tRow)/float64(tCol), "speedup/op")
			}
		})
	}
}

// BenchmarkExampleQuery — the §2 running example under every strategy
// (including Ganski/Wong, which applies to its single-table outer block).
func BenchmarkExampleQuery(b *testing.B) {
	e := decorr.NewEngine(decorr.EmpDept())
	for _, s := range []decorr.Strategy{
		decorr.NI, decorr.NIBatch, decorr.Kim, decorr.Dayal,
		decorr.GanskiWong, decorr.Magic, decorr.OptMagic,
	} {
		b.Run(s.String(), func(b *testing.B) {
			p, err := e.Prepare(decorr.ExampleQuery, s)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, _, err := p.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSection6 sweeps cluster sizes over the shared-nothing
// simulator, reporting fragments and messages per configuration.
func BenchmarkParallelSection6(b *testing.B) {
	db := decorr.EmpDeptSized(800, 4000, 32, 7)
	for _, nodes := range []int{2, 4, 8, 16, 32} {
		cfg := parallel.Config{Nodes: nodes}
		b.Run("NI/nodes="+itoa(nodes), func(b *testing.B) {
			var m parallel.Metrics
			for i := 0; i < b.N; i++ {
				r, err := parallel.RunNestedIteration(db, cfg)
				if err != nil {
					b.Fatal(err)
				}
				m = r.Metrics
			}
			b.ReportMetric(float64(m.Fragments), "fragments/op")
			b.ReportMetric(float64(m.Messages), "messages/op")
			b.ReportMetric(float64(m.Makespan), "makespan/op")
		})
		b.Run("Magic/nodes="+itoa(nodes), func(b *testing.B) {
			var m parallel.Metrics
			for i := 0; i < b.N; i++ {
				r, err := parallel.RunMagic(db, cfg)
				if err != nil {
					b.Fatal(err)
				}
				m = r.Metrics
			}
			b.ReportMetric(float64(m.Fragments), "fragments/op")
			b.ReportMetric(float64(m.Messages), "messages/op")
			b.ReportMetric(float64(m.Makespan), "makespan/op")
		})
	}
}

// BenchmarkAblationMaterializeCSE quantifies the §5.3 wish: materializing
// the supplementary common subexpression instead of recomputing it.
func BenchmarkAblationMaterializeCSE(b *testing.B) {
	for _, mat := range []bool{false, true} {
		name := "recompute"
		if mat {
			name = "materialize"
		}
		b.Run(name, func(b *testing.B) {
			e := decorr.NewEngine(tpcdOnce())
			e.MaterializeCSE = mat
			p, err := e.Prepare(decorr.Query1, decorr.Magic)
			if err != nil {
				b.Fatal(err)
			}
			var work int64
			for i := 0; i < b.N; i++ {
				_, stats, err := p.Run()
				if err != nil {
					b.Fatal(err)
				}
				work = stats.Work()
			}
			b.ReportMetric(float64(work), "work/op")
		})
	}
}

// BenchmarkAblationExistentialKnob compares decorrelating an EXISTS
// subquery against leaving it correlated (§4.4).
func BenchmarkAblationExistentialKnob(b *testing.B) {
	const existsQuery = `
		select d.name from dept d
		where d.budget < 10000 and exists
		  (select * from emp e where e.building = d.building)`
	db := decorr.EmpDeptSized(2000, 8000, 24, 5)
	for _, on := range []bool{true, false} {
		name := "decorrelate"
		if !on {
			name = "keep-correlated"
		}
		b.Run(name, func(b *testing.B) {
			e := decorr.NewEngine(db)
			e.CoreOpts.DecorrelateExistential = on
			p, err := e.Prepare(existsQuery, decorr.Magic)
			if err != nil {
				b.Fatal(err)
			}
			var inv int64
			for i := 0; i < b.N; i++ {
				_, stats, err := p.Run()
				if err != nil {
					b.Fatal(err)
				}
				inv = stats.SubqueryInvocations
			}
			b.ReportMetric(float64(inv), "subqinv/op")
		})
	}
}

// BenchmarkTraceOverhead measures the execution hot path with tracing
// disabled versus enabled. The disabled case is the contract: the tracer
// hooks are guarded by nil checks, so allocs/op must not exceed the
// pre-instrumentation baseline (compare the sub-benchmarks' allocs/op to
// see the tracing cost land only on the enabled side).
func BenchmarkTraceOverhead(b *testing.B) {
	e := decorr.NewEngine(decorr.EmpDept())
	p, err := e.Prepare(decorr.ExampleQuery, decorr.Magic)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("disabled", func(b *testing.B) {
		e.Tracer = nil
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		ring := decorr.NewRingSink(0)
		e.Tracer = decorr.NewTracer(ring)
		defer func() { e.Tracer = nil }()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Run(); err != nil {
				b.Fatal(err)
			}
			ring.Reset()
		}
	})
}

// BenchmarkRewriteOverhead isolates the cost of the magic decorrelation
// rewrite itself (parse + bind + decorrelate + cleanup).
func BenchmarkRewriteOverhead(b *testing.B) {
	e := decorr.NewEngine(tpcdOnce())
	for _, s := range []decorr.Strategy{decorr.NI, decorr.Magic} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Prepare(decorr.Query1, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanCache measures the prepared-plan cache. ColdPrepare runs
// the full parse → bind → rewrite → cost pipeline every iteration;
// WarmPrepare serves the same statement from the cache (the interesting
// ratio — the cache earns its keep at ≥5× here); WarmExec is the
// end-to-end repeated-statement path with a `?` parameter rebound per
// iteration; ConcurrentExec shares one cached engine across all procs.
func BenchmarkPlanCache(b *testing.B) {
	db := decorr.EmpDept()
	const paramQ = "select name from emp where building = ?"
	b.Run("ColdPrepare", func(b *testing.B) {
		e := decorr.NewEngine(db)
		for i := 0; i < b.N; i++ {
			if _, err := e.Prepare(decorr.ExampleQuery, decorr.Magic); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WarmPrepare", func(b *testing.B) {
		e := decorr.NewEngine(db)
		e.EnablePlanCache(64)
		if _, err := e.PrepareCached(decorr.ExampleQuery, decorr.Magic); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.PrepareCached(decorr.ExampleQuery, decorr.Magic); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WarmExec", func(b *testing.B) {
		e := decorr.NewEngine(db)
		e.EnablePlanCache(64)
		buildings := []decorr.Value{decorr.String("B1"), decorr.String("B2"), decorr.String("B3")}
		if _, _, err := e.ExecParams(paramQ, decorr.Magic, buildings[:1]); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.ExecParams(paramQ, decorr.Magic, buildings[i%3:i%3+1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ConcurrentExec", func(b *testing.B) {
		e := decorr.NewEngine(db)
		e.EnablePlanCache(64)
		if _, _, err := e.ExecParams(paramQ, decorr.Magic, []decorr.Value{decorr.String("B1")}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			args := []decorr.Value{decorr.String("B2")}
			for pb.Next() {
				if _, _, err := e.ExecParams(paramQ, decorr.Magic, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkObservabilityOverhead compares one engine with the full
// observability surface enabled (query registry, mounted sys.* catalog —
// which wraps every run in a cancelable context and so buys a governor
// checkpoint per morsel claim and box eval) against a bare engine, both on
// the cached-plan hot path where fixed per-query cost is largest relative
// to work. The iterations interleave the engines and are split into
// batches; the comparison uses each engine's fastest batch, which filters
// scheduler preemptions and GC pauses out of both sides — a mean would
// attribute whichever side a pause landed on. Reports ns-bare/op,
// ns-observed/op, and overhead-pct; at a meaningful iteration count it
// fails if the overhead exceeds the 5% budget (make obs-smoke emits
// BENCH_obs.json from this).
func BenchmarkObservabilityOverhead(b *testing.B) {
	db := decorr.EmpDept()
	bare := decorr.NewEngine(db)
	bare.EnablePlanCache(64)
	observed := decorr.NewEngine(db)
	observed.EnablePlanCache(64)
	observed.MountSystemCatalog()
	for _, e := range []*decorr.Engine{bare, observed} {
		if _, _, err := e.Query(decorr.ExampleQuery, decorr.OptMagic); err != nil {
			b.Fatal(err)
		}
	}
	batches := 10
	if b.N < batches {
		batches = 1
	}
	per := b.N / batches
	minBare, minObserved := time.Duration(1<<62), time.Duration(1<<62)
	done := 0
	b.ResetTimer()
	for batch := 0; batch < batches; batch++ {
		n := per
		if batch == batches-1 {
			n = b.N - done // the last batch absorbs the remainder
		}
		done += n
		var tBare, tObserved time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			if _, _, err := bare.Query(decorr.ExampleQuery, decorr.OptMagic); err != nil {
				b.Fatal(err)
			}
			tBare += time.Since(start)
			start = time.Now()
			if _, _, err := observed.Query(decorr.ExampleQuery, decorr.OptMagic); err != nil {
				b.Fatal(err)
			}
			tObserved += time.Since(start)
		}
		if d := tBare / time.Duration(n); d < minBare {
			minBare = d
		}
		if d := tObserved / time.Duration(n); d < minObserved {
			minObserved = d
		}
	}
	b.StopTimer()
	nsBare := float64(minBare.Nanoseconds())
	nsObserved := float64(minObserved.Nanoseconds())
	pct := (nsObserved - nsBare) / nsBare * 100
	b.ReportMetric(nsBare, "ns-bare/op")
	b.ReportMetric(nsObserved, "ns-observed/op")
	b.ReportMetric(pct, "overhead-pct")
	if b.N >= 1000 && pct >= 5 {
		b.Fatalf("observability overhead %.2f%% exceeds the 5%% budget (bare %.0f ns/op, observed %.0f ns/op)",
			pct, nsBare, nsObserved)
	}
}

// fanoutOnce builds the high-fan-out workload of the batched-subquery
// benchmark: 600 outer rows sharing 61 distinct correlation values probe a
// 2000-row inner table with NO index on the correlation column. Per-row
// nested iteration pays a full inner scan per outer row (600 scans); the
// batched executor collapses the fan-out to one decorrelated execution of
// the shared signature.
var fanoutOnce = sync.OnceValue(func() *decorr.DB {
	db := decorr.NewDB()
	outr := db.Create(decorr.NewTable("outr",
		decorr.Column{Name: "id", Type: decorr.TInt},
		decorr.Column{Name: "k", Type: decorr.TInt}))
	for i := 0; i < 600; i++ {
		if err := outr.Insert(decorr.Row{decorr.Int(int64(i)), decorr.Int(int64(i % 61))}); err != nil {
			panic(err)
		}
	}
	innr := db.Create(decorr.NewTable("innr",
		decorr.Column{Name: "k", Type: decorr.TInt},
		decorr.Column{Name: "v", Type: decorr.TInt}))
	for i := 0; i < 2000; i++ {
		if err := innr.Insert(decorr.Row{decorr.Int(int64(i % 40)), decorr.Int(int64(i))}); err != nil {
			panic(err)
		}
	}
	return db
})

const fanoutQuery = `Select O.id From outr O
Where Exists (Select * From innr I Where I.k = O.k)
Order By O.id`

// BenchmarkFigureBatchedFanout measures runtime subquery batching against
// per-row nested iteration on the high-fan-out shape NIBatch targets. The
// speedup sub-benchmark interleaves both strategies in one timed loop
// (verifying identical rows in identical order on the first iteration) and
// reports the wall-clock ratio; make bench-smoke lands it in
// BENCH_exec.json.
func BenchmarkFigureBatchedFanout(b *testing.B) {
	prep := func(b *testing.B, db *decorr.DB, s decorr.Strategy) *decorr.Prepared {
		e := decorr.NewEngine(db)
		e.Workers = 1
		p, err := e.Prepare(fanoutQuery, s)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Run("ni", func(b *testing.B) {
		p := prep(b, fanoutOnce(), decorr.NI)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		p := prep(b, fanoutOnce(), decorr.NIBatch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("speedup", func(b *testing.B) {
		db := fanoutOnce()
		pNI := prep(b, db, decorr.NI)
		pBat := prep(b, db, decorr.NIBatch)
		niRows, _, err := pNI.Run()
		if err != nil {
			b.Fatal(err)
		}
		batRows, batStats, err := pBat.Run()
		if err != nil {
			b.Fatal(err)
		}
		if batStats.BatchExecutions == 0 {
			b.Fatal("batched path never engaged on the fan-out workload")
		}
		if len(niRows) != len(batRows) {
			b.Fatalf("NI produced %d rows, NIBatch %d", len(niRows), len(batRows))
		}
		for i := range niRows {
			for j := range niRows[i] {
				if niRows[i][j].String() != batRows[i][j].String() {
					b.Fatalf("row %d col %d: NI %q, NIBatch %q",
						i, j, niRows[i][j], batRows[i][j])
				}
			}
		}
		var tNI, tBat time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, _, err := pNI.Run(); err != nil {
				b.Fatal(err)
			}
			tNI += time.Since(start)
			// Collect outside the timed windows so one strategy's garbage
			// is not charged to the other's wall clock.
			runtime.GC()
			start = time.Now()
			if _, _, err := pBat.Run(); err != nil {
				b.Fatal(err)
			}
			tBat += time.Since(start)
			runtime.GC()
		}
		if tBat > 0 {
			b.ReportMetric(float64(tNI)/float64(tBat), "speedup/op")
		}
	})
}
