// Package parallel is a discrete simulator of shared-nothing execution for
// the paper's §6: it executes the §2 example query over a partitioned
// EMP/DEPT database under nested iteration and under magic decorrelation,
// counting network messages, shipped rows, and computation fragments, and
// deriving a simulated makespan from per-node, per-phase work.
//
// The paper's analytic claims fall out of the counters:
//
//   - nested iteration with tables not partitioned on the correlation
//     attribute broadcasts every binding to every node and schedules
//     O(qualifying-tuples × n) computation fragments — O(n²) fragments as
//     both scale (§6.1);
//
//   - the magic-decorrelated plan repartitions each table once, then runs
//     every phase as co-partitioned local joins: O(n) fragments and
//     O(rows) messages (§6.2);
//
//   - when tables are already partitioned on the correlation attribute,
//     nested iteration runs locally and parallelism shows no special
//     inefficiency (§6.1 case 1) — Placement PartitionByCorrelation models
//     that.
//
// Both executions also compute the actual query answer, so tests can check
// the simulator against the single-node engine.
package parallel

import (
	"fmt"
	"hash/fnv"
	"sort"

	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/trace"
)

// Placement selects how tables are partitioned across nodes.
type Placement int

const (
	// PartitionByPrimaryKey spreads rows by their key — the general case
	// where the correlation attribute is NOT the partitioning column.
	PartitionByPrimaryKey Placement = iota
	// PartitionByCorrelation co-partitions both tables on the building
	// attribute (§6.1 case 1).
	PartitionByCorrelation
)

// String names the placement.
func (p Placement) String() string {
	if p == PartitionByCorrelation {
		return "corr-partitioned"
	}
	return "key-partitioned"
}

// Config parameterizes a simulation run.
type Config struct {
	Nodes     int
	Placement Placement
	// RowCost and MsgCost weight the makespan: time units per row
	// operation and per message.
	RowCost int64
	MsgCost int64
}

func (c Config) normalized() Config {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.RowCost <= 0 {
		c.RowCost = 1
	}
	if c.MsgCost <= 0 {
		c.MsgCost = 5
	}
	return c
}

// Metrics are the §6 quantities.
type Metrics struct {
	Messages    int64 // point-to-point messages (broadcasts count n-1)
	RowsShipped int64 // rows moved between nodes
	Fragments   int64 // computation fragments scheduled
	Phases      int   // global synchronization phases
	Work        int64 // total row operations across nodes
	Makespan    int64 // sum over phases of the slowest node's cost
}

// Result is the answer plus the cost metrics.
type Result struct {
	Rows    []string // "name" of qualifying departments, sorted
	Metrics Metrics
}

type row = storage.Row

// sim carries the partitioned data and accounting.
type sim struct {
	cfg   Config
	dept  [][]row // per node
	emp   [][]row
	m     Metrics
	phase []int64 // per-node cost in the current phase
}

func hashTo(v sqltypes.Value, n int) int {
	h := fnv.New32a()
	h.Write([]byte(sqltypes.Key([]sqltypes.Value{v})))
	return int(h.Sum32() % uint32(n))
}

const (
	deptName     = 0
	deptBudget   = 1
	deptNumEmps  = 2
	deptBuilding = 3
	empBuilding  = 1
)

func newSim(db *storage.DB, cfg Config) (*sim, error) {
	cfg = cfg.normalized()
	dt, et := db.Table("dept"), db.Table("emp")
	if dt == nil || et == nil {
		return nil, fmt.Errorf("parallel: database must contain dept and emp tables")
	}
	s := &sim{cfg: cfg, dept: make([][]row, cfg.Nodes), emp: make([][]row, cfg.Nodes)}
	for _, r := range dt.RowForm() {
		col := deptName
		if cfg.Placement == PartitionByCorrelation {
			col = deptBuilding
		}
		n := hashTo(r[col], cfg.Nodes)
		s.dept[n] = append(s.dept[n], r)
	}
	for _, r := range et.RowForm() {
		col := 0 // emp name
		if cfg.Placement == PartitionByCorrelation {
			col = empBuilding
		}
		n := hashTo(r[col], cfg.Nodes)
		s.emp[n] = append(s.emp[n], r)
	}
	s.beginPhase()
	return s, nil
}

func (s *sim) beginPhase() {
	s.phase = make([]int64, s.cfg.Nodes)
}

// endPhase folds the current phase into the makespan (the slowest node
// gates the barrier).
func (s *sim) endPhase() {
	max := int64(0)
	for _, w := range s.phase {
		if w > max {
			max = w
		}
	}
	s.m.Makespan += max
	s.m.Phases++
	s.beginPhase()
}

func (s *sim) work(node int, rows int64) {
	s.phase[node] += rows * s.cfg.RowCost
	s.m.Work += rows
}

func (s *sim) send(from, to int, rows int64) {
	s.m.Messages++
	s.m.RowsShipped += rows
	s.phase[from] += s.cfg.MsgCost
	s.phase[to] += s.cfg.MsgCost
}

// publish folds one simulation's metrics into the process-wide registry.
func (s *sim) publish(strategy string) {
	trace.Metrics.Counter("parallel.runs").Inc()
	trace.Metrics.Counter("parallel.runs." + strategy).Inc()
	trace.Metrics.Counter("parallel.messages").Add(s.m.Messages)
	trace.Metrics.Counter("parallel.rows_shipped").Add(s.m.RowsShipped)
	trace.Metrics.Counter("parallel.fragments").Add(s.m.Fragments)
	trace.Metrics.Counter("parallel.work").Add(s.m.Work)
	trace.Metrics.Gauge("parallel.last_makespan").Set(s.m.Makespan)
	trace.Metrics.Gauge("parallel.nodes").Set(int64(s.cfg.Nodes))
}

// RunNestedIteration simulates the §6.1 execution of the example query.
func RunNestedIteration(db *storage.DB, cfg Config) (*Result, error) {
	s, err := newSim(db, cfg)
	if err != nil {
		return nil, err
	}
	n := s.cfg.Nodes
	var answers []string

	if s.cfg.Placement == PartitionByCorrelation {
		// Case 1: both tables partitioned on building — fully local NI.
		for node := 0; node < n; node++ {
			s.work(node, int64(len(s.dept[node])))
			for _, d := range s.dept[node] {
				if d[deptBudget].I >= 10000 {
					continue
				}
				// Local subquery scan: one fragment, local only.
				s.m.Fragments++
				count := int64(0)
				s.work(node, int64(len(s.emp[node])))
				for _, e := range s.emp[node] {
					if sqltypes.Identical(e[empBuilding], d[deptBuilding]) {
						count++
					}
				}
				if d[deptNumEmps].I > count {
					answers = append(answers, d[deptName].S)
				}
			}
		}
		s.endPhase()
		sort.Strings(answers)
		s.publish("ni")
		return &Result{Rows: answers, Metrics: s.m}, nil
	}

	// General case: every qualifying department tuple broadcasts its
	// building to all nodes; each node computes a local count (one
	// fragment per node per invocation) and replies.
	for node := 0; node < n; node++ {
		s.work(node, int64(len(s.dept[node])))
		for _, d := range s.dept[node] {
			if d[deptBudget].I >= 10000 {
				continue
			}
			total := int64(0)
			for peer := 0; peer < n; peer++ {
				if peer != node {
					s.send(node, peer, 1) // broadcast the binding
				}
				s.m.Fragments++ // the peer's local count fragment
				local := int64(0)
				s.work(peer, int64(len(s.emp[peer])))
				for _, e := range s.emp[peer] {
					if sqltypes.Identical(e[empBuilding], d[deptBuilding]) {
						local++
					}
				}
				if peer != node {
					s.send(peer, node, 1) // reply with the local count
				}
				total += local
			}
			if d[deptNumEmps].I > total {
				answers = append(answers, d[deptName].S)
			}
		}
	}
	s.endPhase()
	sort.Strings(answers)
	s.publish("ni")
	return &Result{Rows: answers, Metrics: s.m}, nil
}

// RunMagic simulates the §6.2 execution of the magic-decorrelated plan.
func RunMagic(db *storage.DB, cfg Config) (*Result, error) {
	s, err := newSim(db, cfg)
	if err != nil {
		return nil, err
	}
	n := s.cfg.Nodes

	// Phase 1: compute SUPP locally and repartition it on the correlation
	// attribute (a no-op shuffle when already co-partitioned).
	supp := make([][]row, n)
	for node := 0; node < n; node++ {
		s.work(node, int64(len(s.dept[node])))
		s.m.Fragments++
		for _, d := range s.dept[node] {
			if d[deptBudget].I >= 10000 {
				continue
			}
			dest := hashTo(d[deptBuilding], n)
			if dest != node {
				s.send(node, dest, 1)
			}
			supp[dest] = append(supp[dest], d)
		}
	}
	s.endPhase()

	// Phase 2: project the magic table locally (already partitioned on
	// building, so local DISTINCT is global DISTINCT).
	magic := make([]map[string]sqltypes.Value, n)
	for node := 0; node < n; node++ {
		s.work(node, int64(len(supp[node])))
		s.m.Fragments++
		magic[node] = map[string]sqltypes.Value{}
		for _, d := range supp[node] {
			magic[node][sqltypes.Key([]sqltypes.Value{d[deptBuilding]})] = d[deptBuilding]
		}
	}
	s.endPhase()

	// Phase 3: repartition EMP on the correlation attribute.
	emp := make([][]row, n)
	for node := 0; node < n; node++ {
		s.work(node, int64(len(s.emp[node])))
		s.m.Fragments++
		for _, e := range s.emp[node] {
			dest := hashTo(e[empBuilding], n)
			if dest != node && s.cfg.Placement != PartitionByCorrelation {
				s.send(node, dest, 1)
			}
			emp[dest] = append(emp[dest], e)
		}
	}
	s.endPhase()

	// Phase 4: local join magic ⋈ emp and local aggregation (grouping is
	// on the partitioning attribute, so no further shuffle).
	counts := make([]map[string]int64, n)
	for node := 0; node < n; node++ {
		s.work(node, int64(len(emp[node])))
		s.m.Fragments++
		counts[node] = map[string]int64{}
		for _, e := range emp[node] {
			k := sqltypes.Key([]sqltypes.Value{e[empBuilding]})
			if _, ok := magic[node][k]; ok {
				counts[node][k]++
			}
		}
	}
	s.endPhase()

	// Phase 5: local join SUPP ⋈ counts (co-partitioned), apply the
	// predicate, emit answers.
	var answers []string
	for node := 0; node < n; node++ {
		s.work(node, int64(len(supp[node])))
		s.m.Fragments++
		for _, d := range supp[node] {
			k := sqltypes.Key([]sqltypes.Value{d[deptBuilding]})
			if d[deptNumEmps].I > counts[node][k] {
				answers = append(answers, d[deptName].S)
			}
		}
	}
	s.endPhase()
	sort.Strings(answers)
	s.publish("magic")
	return &Result{Rows: answers, Metrics: s.m}, nil
}
