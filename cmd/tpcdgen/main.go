// Command tpcdgen generates the TPC-D-style benchmark database and prints
// its cardinalities next to the paper's Table 1 contract (exact at SF=1).
//
// Usage:
//
//	tpcdgen -sf 0.1 -seed 42
//	tpcdgen -sf 0.01 -dump suppliers   # CSV of one table
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"decorr"
	"decorr/internal/tpcd"
)

func main() {
	sf := flag.Float64("sf", 0.1, "scale factor (1.0 = the paper's 120 MB database)")
	seed := flag.Int64("seed", 42, "generator seed")
	dump := flag.String("dump", "", "print this table as CSV instead of the summary")
	flag.Parse()

	db := decorr.TPCD(*sf, *seed)
	if *dump != "" {
		t := db.Table(*dump)
		if t == nil {
			fmt.Fprintf(os.Stderr, "tpcdgen: unknown table %q\n", *dump)
			os.Exit(1)
		}
		cols := make([]string, len(t.Def.Columns))
		for i, c := range t.Def.Columns {
			cols[i] = c.Name
		}
		fmt.Println(strings.Join(cols, ","))
		for _, r := range t.RowForm() {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, ","))
		}
		return
	}

	paper := map[string]int{
		"customers": tpcd.BaseCustomers, "parts": tpcd.BaseParts,
		"suppliers": tpcd.BaseSuppliers, "partsupp": tpcd.BasePartSupp,
		"lineitem": tpcd.BaseLineItem,
	}
	fmt.Printf("TPC-D database at SF=%g (seed %d); paper's Table 1 is SF=1\n\n", *sf, *seed)
	fmt.Printf("%-10s %10s %14s\n", "table", "tuples", "paper (SF=1)")
	for _, name := range []string{"customers", "parts", "suppliers", "partsupp", "lineitem"} {
		fmt.Printf("%-10s %10d %14d\n", name, db.MustTable(name).Len(), paper[name])
	}
}
