package engine_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/tpcd"
)

// Satellite: Engine.views was a plain map mutated by CreateView/DropView
// while Query binds read it — a data race under concurrent clients. The
// map is now copy-on-write behind a lock; this test drives DDL and
// queries from many goroutines and must pass under -race.
func TestConcurrentViewDDLAndQueries(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	if err := e.CreateView("create view stable as select name from emp where building = 'B1'"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	// Writers: create and drop per-goroutine views in a loop.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("scratch%d", w)
			for i := 0; i < 50; i++ {
				ddl := fmt.Sprintf("create view %s as select name from dept where budget < %d", name, 1000*(i+1))
				if err := e.CreateView(ddl); err != nil {
					t.Error(err)
					return
				}
				e.DropView(name)
			}
		}(w)
	}
	// Readers: query base tables and the stable view throughout.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rows, _, err := e.Query("select name from stable order by name", engine.NI)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rows) != 2 {
					t.Errorf("stable view returned %d rows, want 2", len(rows))
					return
				}
				if _, _, err := e.Query(tpcd.ExampleQuery, engine.Magic); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Garbage worker counts degrade to a deterministic single-threaded run
// with the same rows — never a panic, never scheduling-dependent output.
func TestNegativeWorkersDeterministic(t *testing.T) {
	db := tpcd.EmpDept()
	ref := engine.New(db)
	ref.Workers = 1
	want, _ := query(t, ref, tpcd.ExampleQuery, engine.Magic)
	for _, n := range []int{-1, -1000} {
		e := engine.New(db)
		e.Workers = n
		got, _ := query(t, e, tpcd.ExampleQuery, engine.Magic)
		sameRows(t, fmt.Sprintf("workers=%d", n), got, want)
	}
}

// A failed CreateView must leave the view map untouched and the epoch
// unmoved (no cache invalidation storm from rejected DDL).
func TestCreateViewFailureLeavesStateUntouched(t *testing.T) {
	e := engine.New(tpcd.EmpDept())
	if err := e.CreateView("create view good as select name from emp"); err != nil {
		t.Fatal(err)
	}
	epoch := e.Epoch()
	err := e.CreateView("create view bad as select nosuchcol from emp")
	if err == nil {
		t.Fatal("invalid view accepted")
	}
	if e.Epoch() != epoch {
		t.Fatal("failed CreateView bumped the epoch")
	}
	if _, _, err := e.Query("select name from good", engine.NI); err != nil {
		t.Fatalf("pre-existing view lost after failed DDL: %v", err)
	}
	if _, _, qerr := e.Query("select * from bad", engine.NI); qerr == nil ||
		!strings.Contains(qerr.Error(), "bad") {
		t.Fatalf("failed view resolvable: %v", qerr)
	}
}

// Auto's rows each finish their own copy of the statement's cleaned graph,
// which is a value of one prepare, never engine state: a server prepares
// many statements on one engine at once. Every concurrent prepare must
// give the plan a lone prepare gives. Run under -race.
func TestConcurrentAutoPrepare(t *testing.T) {
	e := engine.New(tpcd.Generate(tpcd.Config{SF: 0.01, Seed: 42}))
	stmts := []string{tpcd.Query1, tpcd.Query1b, tpcd.Query2, tpcd.Query3}
	want := make([]string, len(stmts))
	for i, sql := range stmts {
		p, err := e.Prepare(sql, engine.Auto)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p.Explain()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range stmts {
				i := (w + k) % len(stmts)
				p, err := e.Prepare(stmts[i], engine.Auto)
				if err != nil {
					t.Error(err)
					return
				}
				if got := p.Explain(); got != want[i] {
					t.Errorf("goroutine %d, statement %d: concurrent plan differs\n--- got ---\n%s--- want ---\n%s", w, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
