package differ

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"decorr/internal/classic"
	"decorr/internal/engine"
	"decorr/internal/parallel"
	"decorr/internal/rewrite"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// Variant is one execution configuration cross-checked against the nested
// iteration oracle: a strategy plus optional engine knobs.
type Variant struct {
	Name     string
	Strategy engine.Strategy
	// Tolerant variants may refuse a query with classic.ErrNotApplicable
	// (Kim/Dayal/GW have documented applicability limits); that counts as
	// a skip, not a divergence.
	Tolerant  bool
	Configure func(e *engine.Engine)
}

// Variants lists every configuration the harness checks: every strategy in
// the engine's table other than the NI oracle itself (named as the table
// names it), then the §4.4 decorrelation knobs, the §5.3 CSE ablation, magic
// sets, a cleanup rule toggle that disables predicate pushdown and
// projection pruning, and the rowmode pair that pits the row-at-a-time
// executor against the vectorized oracle.
func Variants() []Variant {
	var vs []Variant
	for _, s := range engine.Strategies {
		if s == engine.NI {
			continue
		}
		vs = append(vs, Variant{Name: s.Name(), Strategy: s,
			Tolerant: s == engine.Kim || s == engine.Dayal || s == engine.GanskiWong})
	}
	return append(vs, []Variant{
		{Name: "magic-noexist", Strategy: engine.Magic,
			Configure: func(e *engine.Engine) { e.CoreOpts.DecorrelateExistential = false }},
		{Name: "magic-noouterjoin", Strategy: engine.Magic,
			Configure: func(e *engine.Engine) { e.CoreOpts.UseOuterJoin = false }},
		// The Starburst path: shared boxes recomputed per reference, as the
		// paper measured (the engine materializes them by default).
		{Name: "magic-recompute", Strategy: engine.Magic,
			Configure: func(e *engine.Engine) { e.MaterializeCSE = false }},
		{Name: "magic-magicsets", Strategy: engine.Magic,
			Configure: func(e *engine.Engine) { e.MagicSets = true }},
		{Name: "magic-nopushprune", Strategy: engine.Magic,
			Configure: func(e *engine.Engine) {
				e.CleanupFactory = func() *rewrite.Engine {
					return rewrite.NewCleanupWithout("push-predicates", "prune-projections")
				}
			}},
		// The rowmode variants force the row-at-a-time executor; since the
		// oracle runs with default knobs (vectorized engine on), every
		// fuzzed statement cross-checks the columnar and row paths for
		// bit-identical bags under both NI and decorrelated plan shapes —
		// NI's outer blocks included, whose subquery, scalar and lateral
		// steps the columnar engine runs in place.
		{Name: "rowmode-ni", Strategy: engine.NI,
			Configure: func(e *engine.Engine) { e.RowMode = true }},
		{Name: "rowmode-magic", Strategy: engine.Magic,
			Configure: func(e *engine.Engine) { e.RowMode = true }},
	}...)
}

// oracleVariant is the NI oracle dressed as a variant, for the checks that
// also run against the oracle's own strategy.
var oracleVariant = Variant{Name: engine.NI.Name(), Strategy: engine.NI}

// VariantByName resolves a variant (for pinned regression tests).
func VariantByName(name string) (Variant, bool) {
	for _, v := range Variants() {
		if v.Name == name {
			return v, true
		}
	}
	return Variant{}, false
}

// Config parameterizes a fuzzing run.
type Config struct {
	// Seed drives query and data generation; every case derives its own
	// sub-seed, so (Seed, N) identifies the whole run.
	Seed int64
	// N is the number of generated statements.
	N int
	// Size is the database row knob (default 8).
	Size int
	// Out receives progress and divergence reports (nil discards).
	Out io.Writer
	// Verbose additionally logs every generated statement.
	Verbose bool
}

// Divergence is one observed disagreement with the oracle.
type Divergence struct {
	DB      DBSpec
	Variant string
	SQL     string
	Want    []string // oracle rows, rendered, sorted
	Got     []string
	Err     error // the variant errored instead of answering
	// Shrunk is the minimized reproducer; ReproTest is a ready-to-paste
	// regression test for it.
	ShrunkDB  DBSpec
	ShrunkSQL string
	ReproTest string
}

func (d *Divergence) String() string {
	if d.Err != nil {
		return fmt.Sprintf("%s on %s: error: %v\n  sql: %s", d.Variant, d.DB, d.Err, d.SQL)
	}
	return fmt.Sprintf("%s on %s:\n  sql: %s\n  want(NI): %v\n  got:      %v\n  shrunk [%s]: %s",
		d.Variant, d.DB, d.SQL, d.Want, d.Got, d.ShrunkDB, d.ShrunkSQL)
}

// Report summarizes one run.
type Report struct {
	Queries     int // statements generated
	Comparisons int // variant executions compared against the oracle
	Skipped     int // tolerant strategies that refused (ErrNotApplicable)
	OracleSkips int // statements the oracle itself could not run
	Allowlisted int // Kim empty-group (COUNT bug) divergences, expected
	Divergences []*Divergence
}

// Clean reports whether the run found no unallowlisted divergences.
func (r *Report) Clean() bool { return len(r.Divergences) == 0 }

func (r *Report) String() string {
	return fmt.Sprintf("queries=%d comparisons=%d skipped=%d oracle-skips=%d allowlisted=%d divergences=%d",
		r.Queries, r.Comparisons, r.Skipped, r.OracleSkips, r.Allowlisted, len(r.Divergences))
}

// Run fuzzes N statements and cross-checks every variant, then runs the
// fixed-query parallel-simulator check. Deterministic in cfg.
func Run(cfg Config) *Report {
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	if cfg.Size <= 0 {
		cfg.Size = 8
	}
	if cfg.N <= 0 {
		cfg.N = 100
	}
	rep := &Report{}
	for i := 0; i < cfg.N; i++ {
		caseSeed := cfg.Seed + int64(i)*1000003
		r := rand.New(rand.NewSource(caseSeed))
		schemaName := SchemaNames[i%len(SchemaNames)]
		q := Generate(r, schemaName)
		db := DBSpec{Schema: schemaName, Seed: caseSeed, Size: cfg.Size}
		rep.Queries++
		if cfg.Verbose {
			fmt.Fprintf(out, "case %d [%s]: %s\n", i, db, q.SQL())
		}
		runCase(rep, db, q, out)
	}
	if err := ParallelAgreement(); err != nil {
		rep.Divergences = append(rep.Divergences, &Divergence{
			Variant: "parallel-simulator",
			SQL:     tpcd.ExampleQuery,
			Err:     err,
		})
		fmt.Fprintf(out, "DIVERGENCE parallel-simulator: %v\n", err)
	} else {
		rep.Comparisons++
	}
	if err := DDLInterleaving(cfg.Seed, 0); err != nil {
		rep.Divergences = append(rep.Divergences, &Divergence{
			Variant: "plancache-ddl",
			SQL:     "(interleaved DDL stream)",
			Err:     err,
		})
		fmt.Fprintf(out, "DIVERGENCE plancache-ddl: %v\n", err)
	} else {
		rep.Comparisons++
	}
	fmt.Fprintf(out, "%s\n", rep)
	return rep
}

// parallelCheckWorkers is the worker count of the fuzzer's determinism
// cross-check (>1 so morsels actually interleave, small so the single-CPU
// CI runner is not oversubscribed).
const parallelCheckWorkers = 4

// runCase executes one statement under the oracle and all variants.
func runCase(rep *Report, dbs DBSpec, q Query, out io.Writer) {
	sql := q.SQL()
	db := dbs.Build()
	want, _, err := engine.New(db).Query(sql, engine.NI)
	if err != nil {
		// The oracle itself cannot run the statement (generator drift or a
		// runtime limit); nothing to compare — but it must not be silent.
		rep.OracleSkips++
		fmt.Fprintf(out, "oracle-skip [%s]: %v\n  sql: %s\n", dbs, err, sql)
		return
	}
	if d := parallelCheck(rep, db, oracleVariant, sql, want); d != nil {
		d.DB = dbs
		rep.Divergences = append(rep.Divergences, d)
		fmt.Fprintf(out, "DIVERGENCE %s\n%s\n", d.Variant, d)
	}
	wantBag := bagOf(want)
	for _, v := range Variants() {
		got, err := runVariant(db, v, sql)
		if err != nil {
			if v.Tolerant && errors.Is(err, classic.ErrNotApplicable) {
				rep.Skipped++
				continue
			}
			d := &Divergence{DB: dbs, Variant: v.Name, SQL: sql, Err: err}
			shrinkDivergence(d, q, v)
			rep.Divergences = append(rep.Divergences, d)
			fmt.Fprintf(out, "DIVERGENCE %s\n%s\n", d.Variant, d)
			continue
		}
		if v.Configure == nil {
			if d := parallelCheck(rep, db, v, sql, got); d != nil {
				d.DB = dbs
				rep.Divergences = append(rep.Divergences, d)
				fmt.Fprintf(out, "DIVERGENCE %s\n%s\n", d.Variant, d)
			}
		}
		gotBag := bagOf(got)
		if bagsEqual(gotBag, wantBag) {
			rep.Comparisons++
			continue
		}
		if allowlistedKim(v, q, gotBag, wantBag) {
			rep.Allowlisted++
			continue
		}
		d := &Divergence{DB: dbs, Variant: v.Name, SQL: sql,
			Want: renderSorted(want), Got: renderSorted(got)}
		shrinkDivergence(d, q, v)
		rep.Divergences = append(rep.Divergences, d)
		fmt.Fprintf(out, "DIVERGENCE %s\n%s\nrepro:\n%s\n", d.Variant, d, d.ReproTest)
	}
}

// parallelCheck re-runs the variant at workers>1 and compares against the
// single-threaded rows — *ordered, unsorted* equality, because the engine's
// contract is determinism at any worker count, not just the same bag. The
// shrinker is skipped: the single-threaded run is the reference, so the
// statement itself already is the reproducer.
func parallelCheck(rep *Report, db *storage.DB, v Variant, sql string, seq []storage.Row) *Divergence {
	e := engine.New(db)
	e.Workers = parallelCheckWorkers
	if v.Configure != nil {
		v.Configure(e)
	}
	name := v.Name + "-parallel"
	got, _, err := e.Query(sql, v.Strategy)
	if err != nil {
		return &Divergence{Variant: name, SQL: sql, Err: fmt.Errorf("workers=%d: %w", parallelCheckWorkers, err)}
	}
	wantR, gotR := renderOrdered(seq), renderOrdered(got)
	if len(wantR) != len(gotR) {
		return &Divergence{Variant: name, SQL: sql, Want: wantR, Got: gotR}
	}
	for i := range wantR {
		if wantR[i] != gotR[i] {
			return &Divergence{Variant: name, SQL: sql, Want: wantR, Got: gotR}
		}
	}
	rep.Comparisons++
	return nil
}

// allowlistedKim recognizes Kim's documented historical wrongness: scalar
// aggregate subqueries lose outer rows whose correlation group is empty
// (the COUNT bug, §2 of the paper). The divergence must be a strict row
// loss — anything else is a real bug even under Kim.
func allowlistedKim(v Variant, q Query, got, want map[string]int) bool {
	return v.Strategy == engine.Kim && q.HasScalarAggSub() && bagSubset(got, want)
}

// runVariant executes sql under one variant on a fresh engine.
func runVariant(db *storage.DB, v Variant, sql string) ([]storage.Row, error) {
	e := engine.New(db)
	if v.Configure != nil {
		v.Configure(e)
	}
	rows, _, err := e.Query(sql, v.Strategy)
	return rows, err
}

// bagOf builds the NULL-aware multiset of rows: two rows land on the same
// key iff they are Identical column-wise (NULL matches NULL; INT 3 matches
// DOUBLE 3.0 — the grouping notion of equality, which is what result bags
// need).
func bagOf(rows []storage.Row) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[sqltypes.Key(r)]++
	}
	return m
}

func bagsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// bagSubset reports whether sub ⊆ super as multisets.
func bagSubset(sub, super map[string]int) bool {
	for k, n := range sub {
		if super[k] < n {
			return false
		}
	}
	return true
}

func renderSorted(rows []storage.Row) []string {
	out := renderOrdered(rows)
	sort.Strings(out)
	return out
}

// renderOrdered renders rows preserving engine order (the parallel
// determinism check compares order, not just contents).
func renderOrdered(rows []storage.Row) []string {
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

// ParallelAgreement cross-checks the §6 shared-nothing simulator against
// the single-node engine on the example query: both placements, several
// node counts, the fixed §2 database and a larger synthetic one.
func ParallelAgreement() error {
	dbs := []struct {
		name string
		db   *storage.DB
	}{
		{"empdept", tpcd.EmpDept()},
		{"empdept-sized", tpcd.EmpDeptSized(40, 120, 8, 1)},
	}
	for _, d := range dbs {
		want, _, err := engine.New(d.db).Query(tpcd.ExampleQuery, engine.NI)
		if err != nil {
			return fmt.Errorf("engine NI on %s: %w", d.name, err)
		}
		wantNames := renderSorted(want)
		for _, placement := range []parallel.Placement{parallel.PartitionByPrimaryKey, parallel.PartitionByCorrelation} {
			for _, nodes := range []int{1, 3, 4} {
				cfg := parallel.Config{Nodes: nodes, Placement: placement}
				for _, sim := range []struct {
					name string
					run  func(*storage.DB, parallel.Config) (*parallel.Result, error)
				}{
					{engine.NI.Name(), parallel.RunNestedIteration},
					{engine.Magic.Name(), parallel.RunMagic},
				} {
					res, err := sim.run(d.db, cfg)
					if err != nil {
						return fmt.Errorf("parallel %s on %s (%v, %d nodes): %w", sim.name, d.name, placement, nodes, err)
					}
					got := append([]string(nil), res.Rows...)
					sort.Strings(got)
					if strings.Join(got, ";") != strings.Join(wantNames, ";") {
						return fmt.Errorf("parallel %s on %s (%v, %d nodes): got %v, engine NI %v",
							sim.name, d.name, placement, nodes, got, wantNames)
					}
				}
			}
		}
	}
	return nil
}
