// The paper's §5 performance study in miniature: the three benchmark
// queries run under every strategy, printing wall time and the work
// counters so the figures' shapes are visible (who wins, by what factor,
// and where algorithms simply do not apply).
package main

import (
	"fmt"
	"time"

	"decorr"
)

func main() {
	const sf = 0.05
	fmt.Printf("Generating TPC-D database at SF=%g (paper: SF=1, 120 MB) ...\n\n", sf)
	db := decorr.TPCD(sf, 42)
	eng := decorr.NewEngine(db)

	queries := []struct{ name, sql, note string }{
		{"Query 1 (Fig 5)", decorr.Query1, "min-cost supplier; few invocations, no duplicates"},
		{"Query 1b (Fig 6)", decorr.Query1b, "wide predicates; many duplicated bindings"},
		{"Query 2 (Fig 8)", decorr.Query2, "key correlation, cheap subquery; decorrelation must not hurt"},
		{"Query 3 (Fig 9)", decorr.Query3, "non-linear UNION; Kim/Dayal inapplicable"},
	}
	strategies := []decorr.Strategy{
		decorr.NI, decorr.NIBatch, decorr.Kim, decorr.Dayal, decorr.Magic, decorr.OptMagic,
	}
	for _, q := range queries {
		fmt.Printf("=== %s — %s ===\n", q.name, q.note)
		fmt.Printf("%-8s %10s %10s %12s %8s\n", "strategy", "time", "work", "invocations", "rows")
		for _, s := range strategies {
			p, err := eng.Prepare(q.sql, s)
			if err != nil {
				fmt.Printf("%-8s not applicable\n", s)
				continue
			}
			start := time.Now()
			rows, stats, err := p.Run()
			if err != nil {
				fmt.Printf("%-8s error: %v\n", s, err)
				continue
			}
			fmt.Printf("%-8s %10s %10d %12d %8d\n",
				s, time.Since(start).Round(10*time.Microsecond),
				stats.Work(), stats.SubqueryInvocations, len(rows))
		}
		fmt.Println()
	}
}
