package engine_test

import (
	"strings"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// ordered renders rows without sorting: the parallel-determinism contract
// is about engine output *order*, not just bag contents.
func ordered(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// TestStrategiesDeterministicAcrossWorkers runs every strategy on the
// paper's workload at workers 1, 2, and 8, asserting identical rows in
// identical order. This is the engine-level face of the executor's
// parallel-determinism guarantee; together with the exec-level test it
// pins union dedup, group merge, and join emission order.
func TestStrategiesDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-strategy parallel sweep is slow under -race")
	}
	db := tpcd.Generate(tpcd.Config{SF: 0.05, Seed: 42})
	cases := []struct {
		name, sql  string
		strategies []engine.Strategy
	}{
		{"Example", tpcd.ExampleQuery, []engine.Strategy{engine.NI, engine.NIBatch, engine.Dayal, engine.GanskiWong, engine.Magic, engine.OptMagic, engine.Auto}},
		{"Query1", tpcd.Query1, []engine.Strategy{engine.NI, engine.NIBatch, engine.Kim, engine.Magic, engine.OptMagic}},
		{"Query2", tpcd.Query2, []engine.Strategy{engine.NI, engine.Magic, engine.OptMagic}},
		{"Query3", tpcd.Query3, []engine.Strategy{engine.NI, engine.Magic, engine.OptMagic}},
	}
	exDB := tpcd.EmpDept()
	for _, c := range cases {
		for _, s := range c.strategies {
			t.Run(c.name+"/"+s.String(), func(t *testing.T) {
				d := db
				if c.name == "Example" {
					d = exDB
				}
				e := engine.New(d)
				e.Workers = 1
				p, err := e.Prepare(c.sql, s)
				if err != nil {
					t.Fatalf("prepare: %v", err)
				}
				rows, _, err := p.Run()
				if err != nil {
					t.Fatalf("workers=1: %v", err)
				}
				want := ordered(rows)
				for _, w := range []int{2, 8} {
					ew := engine.New(d)
					ew.Workers = w
					pw, err := ew.Prepare(c.sql, s)
					if err != nil {
						t.Fatalf("prepare workers=%d: %v", w, err)
					}
					rowsW, _, err := pw.Run()
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					got := ordered(rowsW)
					if len(got) != len(want) {
						t.Fatalf("workers=%d: %d rows, want %d", w, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("workers=%d row %d: got %q want %q", w, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}
