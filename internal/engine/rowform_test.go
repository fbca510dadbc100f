package engine_test

import (
	"context"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/sqltypes"
	"decorr/internal/tpcd"
)

// The served shapes read base tables only as column vectors: the paper's
// statements under every served strategy, run and streamed, and the
// partsupp range scan the stream_scan workload serves build no table's
// row form, at one worker and at eight. The row engine does build it, so
// the counter is live.
func TestServedShapesBuildNoRowForm(t *testing.T) {
	const rowForms = "storage.row_materializations"
	const scan = `select ps_partkey, ps_suppkey, ps_availqty, ps_supplycost from partsupp where ps_availqty >= ? and ps_partkey < ?`
	db := tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 42})
	drain := func(p *engine.Prepared, params []sqltypes.Value) int {
		t.Helper()
		st, err := p.Stream(context.Background(), params)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		n := 0
		for {
			batch, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				return n
			}
			n += len(batch)
		}
	}
	for _, workers := range []int{1, 8} {
		e := engine.New(db)
		e.Workers = workers
		if d := counterDelta(rowForms, func() {
			for _, q := range []string{tpcd.Query1, tpcd.Query1b, tpcd.Query2, tpcd.Query3} {
				for _, s := range []engine.Strategy{engine.NI, engine.NIBatch, engine.OptMagic, engine.Auto} {
					p, err := e.Prepare(q, s)
					if err != nil {
						t.Fatal(err)
					}
					rows, _, err := p.Run()
					if err != nil {
						t.Fatal(err)
					}
					if n := drain(p, nil); n != len(rows) {
						t.Errorf("workers=%d %s: streamed %d rows, ran %d", workers, s, n, len(rows))
					}
				}
			}
			p, err := e.Prepare(scan, engine.Auto)
			if err != nil {
				t.Fatal(err)
			}
			if n := drain(p, []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(190)}); n == 0 {
				t.Errorf("workers=%d: the partsupp scan streamed no rows", workers)
			}
		}); d != 0 {
			t.Errorf("workers=%d: the served shapes built %d row forms, want 0", workers, d)
		}
	}
	e := engine.New(db)
	e.RowMode = true
	if d := counterDelta(rowForms, func() {
		if _, _, err := e.Query(tpcd.Query1, engine.OptMagic); err != nil {
			t.Fatal(err)
		}
	}); d == 0 {
		t.Error("the row engine ran Query 1 without building a row form")
	}
}
