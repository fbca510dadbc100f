package qgm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"decorr/internal/core"
	"decorr/internal/differ"
	"decorr/internal/exec"
	"decorr/internal/parser"
	"decorr/internal/qgm"
	"decorr/internal/rewrite"
	"decorr/internal/semant"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// cleaned binds sql and runs the cleanup rules: the graph Auto's race
// starts every row from.
func cleaned(t *testing.T, db *storage.DB, sql string) *qgm.Graph {
	t.Helper()
	q, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sql)
	}
	g, err := semant.BindWithViews(q, db.Catalog, nil)
	if err != nil {
		t.Fatalf("bind: %v\n%s", err, sql)
	}
	if err := rewrite.NewCleanup().Run(g); err != nil {
		t.Fatalf("cleanup: %v\n%s", err, sql)
	}
	return g
}

// graphNodes collects every box, quantifier and expression node of g.
func graphNodes(g *qgm.Graph) map[any]bool {
	nodes := map[any]bool{}
	for _, b := range qgm.Boxes(g.Root) {
		nodes[b] = true
		for _, q := range b.Quants {
			nodes[q] = true
		}
		b.ExprSlots(func(slot *qgm.Expr) {
			qgm.Walk(*slot, func(e qgm.Expr) bool {
				nodes[e] = true
				return true
			})
		})
	}
	return nodes
}

// CloneGraph is what lets Auto decorrelate a copy of the cleaned graph:
// the copy prints the same plan, shares no box, quantifier or expression
// with the original, and a rewrite of it leaves the original alone and
// allocates the IDs it would have allocated on a fresh bind.
func TestCloneGraph(t *testing.T) {
	type stmt struct {
		name, sql string
		db        *storage.DB
	}
	tpcdDB := tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 42})
	stmts := []stmt{
		{"Query1", tpcd.Query1, tpcdDB},
		{"Query1b", tpcd.Query1b, tpcdDB},
		{"Query2", tpcd.Query2, tpcdDB},
		{"Query3", tpcd.Query3, tpcdDB},
	}
	// The statements `make fuzz-smoke` (seed 42) generates, case by case.
	for i := 0; i < 200; i++ {
		seed := 42 + int64(i)*1000003
		schema := differ.SchemaNames[i%len(differ.SchemaNames)]
		q := differ.Generate(rand.New(rand.NewSource(seed)), schema)
		db := differ.DBSpec{Schema: schema, Seed: seed, Size: 8}.Build()
		stmts = append(stmts, stmt{fmt.Sprintf("fuzz case %d", i), q.SQL(), db})
	}
	for _, s := range stmts {
		g := cleaned(t, s.db, s.sql)
		before := qgm.Format(g)
		c := qgm.CloneGraph(g)
		if got := qgm.Format(c); got != before {
			t.Fatalf("%s: the clone prints differently\n--- original ---\n%s--- clone ---\n%s", s.name, before, got)
		}
		if err := qgm.Validate(c); err != nil {
			t.Fatalf("%s: invalid clone: %v", s.name, err)
		}
		orig := graphNodes(g)
		for n := range graphNodes(c) {
			if orig[n] {
				t.Fatalf("%s: the clone shares %T %p with the original", s.name, n, n)
			}
		}

		opts := core.DefaultOptions()
		opts.EliminateSupplementary = true
		opts.Order = exec.New(s.db, exec.Options{}).JoinOrder
		cloneErr := core.Decorrelate(c, opts, nil)
		if got := qgm.Format(g); got != before {
			t.Fatalf("%s: decorrelating the clone changed the original\n--- before ---\n%s--- after ---\n%s", s.name, before, got)
		}
		fresh := cleaned(t, s.db, s.sql)
		freshErr := core.Decorrelate(fresh, opts, nil)
		if fmt.Sprint(cloneErr) != fmt.Sprint(freshErr) {
			t.Fatalf("%s: decorrelation errs %v on the clone, %v on a fresh bind", s.name, cloneErr, freshErr)
		}
		if got, want := qgm.Format(c), qgm.Format(fresh); cloneErr == nil && got != want {
			t.Fatalf("%s: the decorrelated clone differs from a decorrelated fresh bind\n--- clone ---\n%s--- fresh ---\n%s", s.name, got, want)
		}
	}
}
