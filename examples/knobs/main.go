// The §4.4 "degrees of decorrelation": magic decorrelation adapts to the
// system environment through knobs. This example runs the same queries
// with each knob flipped and shows what changes.
package main

import (
	"fmt"
	"strings"

	"decorr"
)

const existsQuery = `
select d.name from dept d
where d.budget < 10000
  and exists (select * from emp e where e.building = d.building)`

func main() {
	db := decorr.EmpDept()

	fmt.Println("Knob 1 — DecorrelateExistential (§4.4: existential subqueries")
	fmt.Println("introduce CI boxes; systems without temp-table indexes may")
	fmt.Println("prefer to keep them correlated):")
	for _, on := range []bool{true, false} {
		eng := decorr.NewEngine(db)
		eng.CoreOpts.DecorrelateExistential = on
		rows, stats, err := eng.Query(existsQuery, decorr.Magic)
		check(err)
		fmt.Printf("  knob=%-5v -> %d rows, %d correlated invocations\n",
			on, len(rows), stats.SubqueryInvocations)
	}

	fmt.Println()
	fmt.Println("Knob 2 — UseOuterJoin (§4.4: without a LOJ operator the COUNT")
	fmt.Println("aggregate cannot be fully decorrelated; the rest of the query")
	fmt.Println("still is — partial decorrelation, same answer):")
	for _, on := range []bool{true, false} {
		eng := decorr.NewEngine(db)
		eng.CoreOpts.UseOuterJoin = on
		rows, stats, err := eng.Query(decorr.ExampleQuery, decorr.Magic)
		check(err)
		fmt.Printf("  knob=%-5v -> %d rows, %d correlated invocations\n",
			on, len(rows), stats.SubqueryInvocations)
	}

	fmt.Println()
	fmt.Println("Knob 3 — MaterializeCSE (§5.3: Starburst always recomputed the")
	fmt.Println("supplementary common subexpression; materializing it is the")
	fmt.Println("optimizer improvement the paper asks for):")
	tp := decorr.TPCD(0.05, 42)
	for _, on := range []bool{false, true} {
		eng := decorr.NewEngine(tp)
		eng.MaterializeCSE = on
		_, stats, err := eng.Query(decorr.Query1, decorr.Magic)
		check(err)
		fmt.Printf("  knob=%-5v -> work=%d, CSE recomputations=%d\n",
			on, stats.Work(), stats.CSERecomputes)
	}

	fmt.Println()
	fmt.Println("Knob 4 — the Auto strategy (§7: cost nested iteration, batched")
	fmt.Println("nested iteration and the decorrelated plan; keep the cheapest):")
	eng := decorr.NewEngine(tp)
	p, err := eng.Prepare(decorr.Query2, decorr.Auto)
	check(err)
	fmt.Printf("  %-40s -> %s\n", "Query 2 (cheap indexed subquery)", raceLine(p))

	noIdx := decorr.TPCD(0.05, 42)
	check(noIdx.MustTable("partsupp").DropIndex("ps_partkey"))
	eng2 := decorr.NewEngine(noIdx)
	p, err = eng2.Prepare(decorr.Query1b, decorr.Auto)
	check(err)
	fmt.Printf("  %-40s -> %s\n", "Query 1(c) (subquery index dropped)", raceLine(p))
}

// raceLine is the line an Auto plan's Explain leads with: the strategy it
// chose and the alternatives it was costed against.
func raceLine(p *decorr.Prepared) string {
	line, _, _ := strings.Cut(p.Explain(), "\n")
	return line
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
