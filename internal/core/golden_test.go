package core_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestDecorrelateGolden pins what Decorrelate makes of every statement the
// repo has a reason to care about — the paper's example and Queries 1, 1b,
// 2, 3, and the 200 statements `make fuzz-smoke` (seed 42) generates —
// under Mag and OptMag with the §4.4 knobs at their defaults, with
// existential decorrelation off, and with the outer join off. One line per
// statement × option set holds an FNV-64a hash of the decorrelated graph's
// qgm.Format, or the error. A change to how decorrelation is driven that
// keeps every plan keeps this file.
func TestDecorrelateGolden(t *testing.T) {
	type stmt struct {
		name, sql string
		db        *storage.DB
	}
	tpcdDB := tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 42})
	stmts := []stmt{
		{"Example", tpcd.ExampleQuery, tpcd.EmpDept()},
		{"Query1", tpcd.Query1, tpcdDB},
		{"Query1b", tpcd.Query1b, tpcdDB},
		{"Query2", tpcd.Query2, tpcdDB},
		{"Query3", tpcd.Query3, tpcdDB},
	}
	for i := 0; i < 200; i++ {
		seed := 42 + int64(i)*1000003
		schema := differ.SchemaNames[i%len(differ.SchemaNames)]
		q := differ.Generate(rand.New(rand.NewSource(seed)), schema)
		db := differ.DBSpec{Schema: schema, Seed: seed, Size: 8}.Build()
		stmts = append(stmts, stmt{fmt.Sprintf("fuzz%03d", i), q.SQL(), db})
	}
	optionSets := []struct {
		name string
		set  func(*core.Options)
	}{
		{"default", func(*core.Options) {}},
		{"no-existential", func(o *core.Options) { o.DecorrelateExistential = false }},
		{"no-outer-join", func(o *core.Options) { o.UseOuterJoin = false }},
	}

	var got strings.Builder
	for _, s := range stmts {
		ast, err := parser.Parse(s.sql)
		if err != nil {
			t.Fatalf("%s: parse: %v", s.name, err)
		}
		g, err := semant.BindWithViews(ast, s.db.Catalog, nil)
		if err != nil {
			t.Fatalf("%s: bind: %v", s.name, err)
		}
		if err := rewrite.NewCleanup().Run(g); err != nil {
			t.Fatalf("%s: cleanup: %v", s.name, err)
		}
		order := exec.New(s.db, exec.Options{}).JoinOrder
		for _, optMag := range []bool{false, true} {
			strategy := map[bool]string{false: "Mag", true: "OptMag"}[optMag]
			for _, o := range optionSets {
				opts := core.DefaultOptions()
				opts.EliminateSupplementary = optMag
				opts.Order = order
				o.set(&opts)
				c := qgm.CloneGraph(g)
				result := ""
				if err := core.Decorrelate(c, opts, nil); err != nil {
					result = "error: " + err.Error()
				} else {
					h := fnv.New64a()
					h.Write([]byte(qgm.Format(c)))
					result = fmt.Sprintf("%016x", h.Sum64())
				}
				fmt.Fprintf(&got, "%s %s %s %s\n", s.name, strategy, o.name, result)
			}
		}
	}

	golden := filepath.Join("testdata", "decorrelate.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var gl, wl string
		if i < len(gotLines) {
			gl = gotLines[i]
		}
		if i < len(wantLines) {
			wl = wantLines[i]
		}
		if gl != wl {
			t.Fatalf("decorrelation drifted from %s at line %d (run with -update to regenerate)\n got: %s\nwant: %s", golden, i+1, gl, wl)
		}
	}
}
