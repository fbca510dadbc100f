package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/faultinject"
	"decorr/internal/tpcd"
)

// Every join-shaped operator builds its hash table through one gate — the
// row engine's rowHash (inner join, left outer join, EXISTS/IN semi-join,
// the batched subquery's partition) and the columnar inner join's mirror
// of it. Per site, engine and worker count the table pins what that gate
// promises: the build is counted in Stats.HashBuilds, the fault-injection
// point fires ahead of it as a typed error, and the build side is charged
// against the byte budget.
func TestHashBuildGateAtEveryJoinSite(t *testing.T) {
	defer faultinject.Disable()
	cases := []struct {
		name     string
		sql      string
		strategy engine.Strategy
		builds   int64
		batches  int64 // Stats.BatchExecutions: 1 pins the NIBatch single-execution path
		noRows   bool  // the probe rejects every tuple
	}{
		{"inner hash join", hashJoinQuery, engine.NI, 1, 0, false},
		{"left outer join", "select d.name, e.name from dept d left join emp e on d.building = e.building", engine.NI, 1, 0, false},
		{"uncorrelated IN", "select name from dept where building in (select building from emp)", engine.NI, 1, 0, false},
		{"uncorrelated EXISTS", "select name from dept where exists (select name from emp where building = 'B1')", engine.NI, 1, 0, false},
		{"uncorrelated NOT EXISTS", "select name from dept where not exists (select name from emp where building = 'B1')", engine.NI, 1, 0, true},
		{"NIBatch single execution", "select d.name from dept d where exists (select e.name from emp e where e.building = d.building)", engine.NIBatch, 1, 1, false},
	}
	for _, c := range cases {
		for _, rowMode := range []bool{false, true} {
			for _, workers := range []int{1, 8} {
				name := fmt.Sprintf("%s/rowmode=%v/workers=%d", c.name, rowMode, workers)
				e := engine.New(tpcd.EmpDept())
				e.RowMode, e.Workers = rowMode, workers

				rows, stats, err := e.Query(c.sql, c.strategy)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if (len(rows) == 0) != c.noRows {
					t.Fatalf("%s: %d rows; the statement does not exercise its probe", name, len(rows))
				}
				if stats.HashBuilds != c.builds || stats.BatchExecutions != c.batches {
					t.Errorf("%s: %d hash builds, %d batch executions; want %d, %d",
						name, stats.HashBuilds, stats.BatchExecutions, c.builds, c.batches)
				}

				faultinject.Enable(faultinject.Plan{Seed: 1, Rules: map[faultinject.Point]faultinject.Rule{
					faultinject.HashBuild: {ErrEvery: 1},
				}})
				_, _, err = e.Query(c.sql, c.strategy)
				faultinject.Disable()
				if !errors.Is(err, faultinject.ErrInjected) {
					t.Errorf("%s: hash-build fault: got %v, want ErrInjected", name, err)
				}

				e.Limits = exec.Limits{MaxTrackedBytes: 1}
				if _, _, err := e.Query(c.sql, c.strategy); !errors.Is(err, exec.ErrMemBudget) {
					t.Errorf("%s: 1-byte budget: got %v, want ErrMemBudget", name, err)
				}
			}
		}
	}
}
