package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
	"decorr/internal/trace"
)

// autoChoice prepares sql under Auto and checks the strategy it picked.
func autoChoice(t *testing.T, db *storage.DB, name, sql string, want engine.Strategy) {
	t.Helper()
	p, err := engine.New(db).Prepare(sql, engine.Auto)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if p.Chosen != want {
		t.Errorf("%s: want %s, got %s", name, want, strings.TrimSpace(strings.SplitN(p.Explain(), "\n", 2)[0]))
	}
}

// The §7 plan choice, pinned where it crosses over, in both directions.
// Every pin carries the two times that justify it: best / median of 60
// interleaved runs, one worker, seed 42 (`make cost-audit AUDIT_SF=1`
// prints a fresh table). A pin that could only hold by tilting the model
// toward one side is a finding for ROADMAP item 1, not a constant for
// cost.go.
func TestAutoChoosesPerQuery(t *testing.T) {
	sf1 := tpcd.Generate(tpcd.Config{SF: 1, Seed: 42})
	// Thousands of invocations with duplicate bindings (Figure 6):
	// NIBatch 51.1 / 92.1 ms, OptMagic 11.4 / 17.9 ms.
	autoChoice(t, sf1, "SF=1 Query1b", tpcd.Query1b, engine.OptMagic)
	// 200 invocations of a 4-box lateral for 5 distinct nations (Figure 9).
	// Batching runs the lateral once per nation: NIBatch 0.94 / 1.61 ms,
	// OptMagic 1.23 / 1.86 ms (NI 26.8 / 37.7 ms). The pick is OptMagic,
	// estimated 27 150 against NIBatch's 36 100, and it is the slower plan:
	// a recorded exception. The cause is NIBatch's over-estimate (10.3x
	// row operations in TestCostAudit): s_region = 'EUROPE' determines
	// s_nation, so 5 distinct bindings reach the lateral where the model,
	// taking the columns as independent, prices 20 (ROADMAP item 1).
	autoChoice(t, sf1, "SF=1 Query3", tpcd.Query3, engine.OptMagic)
	// A key correlation over a cheap indexed subquery (Figure 8's
	// "decorrelation unnecessary" case, no longer so): NIBatch 6.27 / 9.44
	// ms, OptMagic 1.43 / 2.17 ms. The decorrelated plan's two null-safe
	// joins against the 210-row magic table hash on their key, and the
	// magic table, read three times, is computed once.
	autoChoice(t, sf1, "SF=1 Query2", tpcd.Query2, engine.OptMagic)

	sf01 := tpcd.Generate(tpcd.Config{SF: 0.1, Seed: 42})
	// The same statement at a tenth of the scale: NIBatch 0.64 / 0.80 ms,
	// OptMagic 0.30 / 0.35 ms. (An earlier model pinned NIBatch here, on an
	// estimate that took p_container = '6 PACK' for one value in ten where
	// it is one in four and so expected 8 invocations where 27 happen.)
	autoChoice(t, sf01, "SF=0.1 Query2", tpcd.Query2, engine.OptMagic)

	// Query 1(c): the index the subquery probes is gone; each invocation
	// is a full scan and decorrelation must win (Figure 7): NIBatch 20.9 /
	// 34.7 ms, OptMagic 1.05 / 1.78 ms.
	noIdx := tpcd.Generate(tpcd.Config{SF: 0.1, Seed: 42})
	if err := noIdx.MustTable("partsupp").DropIndex("ps_partkey"); err != nil {
		t.Fatal(err)
	}
	autoChoice(t, noIdx, "SF=0.1 Query1(c)", tpcd.Query1b, engine.OptMagic)
}

// The three statement shapes of the benchmark's plan_cold workload
// (bench/workload.go coldShapes): Query1, Query2 and Query3 with their
// selective filters replaced by one key literal, so the subquery runs once.
var coldShapes = []string{
	`Select s.s_name, s.s_acctbal, s.s_address, s.s_phone, s.s_comment
From parts p, suppliers s, partsupp ps
Where p.p_partkey = %d
  and p.p_partkey = ps.ps_partkey and s.s_suppkey = ps.ps_suppkey
  and ps.ps_supplycost =
    (Select min(ps1.ps_supplycost)
     From partsupp ps1, suppliers s1
     Where p.p_partkey = ps1.ps_partkey
       and s1.s_suppkey = ps1.ps_suppkey)`,
	`Select sum(l.l_extendedprice * l.l_quantity) / 5
From lineitem l, parts p
Where p.p_partkey = l.l_partkey and p.p_partkey = %d
  and l.l_quantity <
    (Select 0.2 * avg(l1.l_quantity)
     From lineitem l1 Where l1.l_partkey = p.p_partkey)`,
	`Select s.s_name, s.s_acctbal, dt.sumbal
From suppliers s,
  (Select sum(ddt.bal) From
     ((Select a.c_acctbal From customers a
       Where a.c_mktsegment = 'BUILDING' and a.c_nation = s.s_nation)
      Union All
      (Select b.c_acctbal From customers b
       Where b.c_mktsegment = 'AUTOMOBILE' and b.c_nation = s.s_nation)
     ) As ddt(bal)
  ) As dt(sumbal)
Where s.s_suppkey = %d`,
}

// One invocation leaves decorrelation nothing to save. Best / median of
// 2000 interleaved runs at SF=1, key 17, one worker.
func TestAutoColdShapes(t *testing.T) {
	db := tpcd.Generate(tpcd.Config{SF: 1, Seed: 42})
	for i, want := range []engine.Strategy{
		// The partsupp shape decorrelates into three boxes, as many as nested
		// iteration evaluates, all of them columnar where nested iteration's
		// outer block is not: estimated 321 against 341, measured OptMagic
		// 25.6 / 52.8 us against NIBatch 23.1 / 45.6 us. The parent kept
		// NIBatch. That the vectorized engine takes 3 us longer than the row
		// interpreter to join a dozen rows is a fixed cost per join step the
		// model does not carry (ROADMAP item 1), 1 % of the statement's
		// prepare.
		engine.OptMagic,
		// The lineitem shape keeps its outer join for the COUNT bug: NIBatch
		// 30.9 / 47.3 us, OptMagic 39.8 / 63.5 us.
		engine.NIBatch,
		// The customers shape is lateral with one binding, so NI and NIBatch
		// do the same work and tie at 1470; the later row wins. NI 128 / 173
		// us, NIBatch 135 / 177 us (batching's bindings pass over one tuple),
		// OptMagic 191 / 262 us.
		engine.NIBatch,
	} {
		autoChoice(t, db, fmt.Sprintf("cold shape %d", i), fmt.Sprintf(coldShapes[i], 17), want)
	}
}

func TestAutoAlwaysCorrect(t *testing.T) {
	db := tpcd.Generate(tpcd.Config{SF: 0.05, Seed: 11})
	e := engine.New(db)
	for _, sql := range []string{tpcd.Query1, tpcd.Query1b, tpcd.Query2, tpcd.Query3, tpcd.ExampleQuery} {
		if sql == tpcd.ExampleQuery {
			e = engine.New(tpcd.EmpDept())
		}
		want, _ := query(t, e, sql, engine.NI)
		got, _ := query(t, e, sql, engine.Auto)
		sameRows(t, "Auto vs NI on "+sql[:30], got, want)
	}
}

func TestAutoCostOrderingMatchesReality(t *testing.T) {
	// On the index-dropped workload, the estimated NI cost must exceed
	// the estimated decorrelated cost by a wide margin — the estimator
	// needs to see the full-scan-per-invocation blowup.
	db := tpcd.Generate(tpcd.Config{SF: 0.1, Seed: 42})
	if err := db.MustTable("partsupp").DropIndex("ps_partkey"); err != nil {
		t.Fatal(err)
	}
	e := engine.New(db)
	ni, err := e.Prepare(tpcd.Query1b, engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	mag, err := e.Prepare(tpcd.Query1b, engine.Magic)
	if err != nil {
		t.Fatal(err)
	}
	if ni.EstimatedCost < 10*mag.EstimatedCost {
		t.Errorf("estimator missed the blowup: NI=%.0f Magic=%.0f", ni.EstimatedCost, mag.EstimatedCost)
	}
}

// Auto records its race: every alternative it costed, in strategy-table
// order, the one line Explain leads with, and a per-choice counter.
func TestAutoRecordsRace(t *testing.T) {
	e := engine.New(tpcd.Generate(tpcd.Config{SF: 0.1, Seed: 42}))
	counter := trace.Metrics.Counter("engine.auto_choice.optmagic")
	before := counter.Value()
	p, err := e.Prepare(tpcd.Query1b, engine.Auto)
	if err != nil {
		t.Fatal(err)
	}
	var raced []engine.Strategy
	for _, a := range p.Alternatives {
		raced = append(raced, a.Strategy)
		if a.Strategy == p.Chosen && a.Cost != p.EstimatedCost {
			t.Errorf("chosen alternative costs %v, EstimatedCost is %v", a.Cost, p.EstimatedCost)
		}
		if a.Cost < p.EstimatedCost {
			t.Errorf("%s at %v is cheaper than the chosen %s at %v", a.Strategy, a.Cost, p.Chosen, p.EstimatedCost)
		}
	}
	if fmt.Sprint(raced) != "[NI NIBatch OptMag]" {
		t.Errorf("raced %v, want the three auto rows in table order", raced)
	}
	want := fmt.Sprintf("auto: chose optmagic %.0f over ni %.0f, nibatch %.0f\n",
		p.Alternatives[2].Cost, p.Alternatives[0].Cost, p.Alternatives[1].Cost)
	if got := p.Explain(); !strings.HasPrefix(got, want) {
		t.Errorf("Explain starts %q, want %q", strings.SplitN(got, "\n", 2)[0], want)
	}
	if got := counter.Value() - before; got != 1 {
		t.Errorf("engine.auto_choice.optmagic moved by %d, want 1", got)
	}

	ni, err := e.Prepare(tpcd.Query1b, engine.NI)
	if err != nil {
		t.Fatal(err)
	}
	if ni.Alternatives != nil || strings.HasPrefix(ni.Explain(), "auto:") {
		t.Errorf("an explicit strategy recorded a race: %v", ni.Alternatives)
	}
}

// Auto does not race what cannot differ, and shares what its rows have in
// common: every statement is parsed, bound and cleaned once under one
// prepare span; a correlated one is decorrelated on a copy of the cleaned
// graph and prices the as-bound graph once per nested-iteration row on one
// estimator. The plan records the caller's SQL, as every strategy's does.
func TestAutoPrepareStages(t *testing.T) {
	db := tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 42})
	for _, c := range []struct {
		name, sql     string
		chosen        []engine.Strategy
		rewrites, est int
	}{
		{"scan", `select ps_partkey from partsupp where ps_availqty >= 1`,
			[]engine.Strategy{engine.NI}, 0, 1},
		{"uncorrelated subquery", `select p_partkey from parts where p_size > (select avg(p_size) from parts)`,
			[]engine.Strategy{engine.NI}, 0, 1},
		{"correlated subquery", tpcd.Query2,
			[]engine.Strategy{engine.NI, engine.NIBatch, engine.OptMagic}, 1, 3},
		{"lateral", tpcd.Query3,
			[]engine.Strategy{engine.NI, engine.NIBatch, engine.OptMagic}, 1, 3},
	} {
		sink := trace.NewRingSink(1 << 14)
		e := engine.New(db)
		e.Tracer = trace.New(sink)
		p, err := e.Prepare(c.sql, engine.Auto)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		spans := map[string]int{}
		for _, ev := range sink.Events() {
			spans[ev.Name]++
		}
		if spans["prepare"] != 1 || spans["parse"] != 1 || spans["semant"] != 1 || spans["cleanup-pre"] != 1 ||
			spans["decorrelate"] != c.rewrites || spans["plan-cost"] != c.est {
			t.Errorf("%s: prepare=%d parse=%d semant=%d cleanup-pre=%d decorrelate=%d plan-cost=%d, want 1 1 1 1 %d %d", c.name,
				spans["prepare"], spans["parse"], spans["semant"], spans["cleanup-pre"], spans["decorrelate"], spans["plan-cost"],
				c.rewrites, c.est)
		}
		var raced []engine.Strategy
		for _, a := range p.Alternatives {
			raced = append(raced, a.Strategy)
		}
		if fmt.Sprint(raced) != fmt.Sprint(c.chosen) {
			t.Errorf("%s: raced %v, want %v", c.name, raced, c.chosen)
		}
		if p.Text != c.sql {
			t.Errorf("%s: Text = %q, want the caller's SQL", c.name, p.Text)
		}
	}
}
