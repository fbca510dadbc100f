package differ

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"decorr/internal/classic"
	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/faultinject"
	"decorr/internal/storage"
)

// FaultConfig parameterizes a fault-injection sweep (FaultSweep).
type FaultConfig struct {
	// Seed drives query generation, data generation, and the injection
	// plan; (Seed, N) identifies the whole sweep.
	Seed int64
	// N is the number of generated statements (default 25).
	N int
	// Size is the database row knob (default 8).
	Size int
	// Out receives progress and failure reports (nil discards).
	Out io.Writer
	// Verbose additionally logs every generated statement.
	Verbose bool
}

// FaultFailure is one violation of the failure-handling contract: under
// injected faults a query must either return the correct result or a
// clean typed error — a wrong answer or an unclassified error is a bug.
type FaultFailure struct {
	DB      DBSpec
	Variant string
	Workers int
	SQL     string
	// Kind is "wrong-answer" (rows returned, bag differs from the no-fault
	// oracle) or "dirty-error" (an error not in the typed allowlist —
	// including a hang, which the governor's deadline converts into an
	// error that then fails classification only if untyped).
	Kind   string
	Detail string
}

func (f *FaultFailure) String() string {
	return fmt.Sprintf("%s workers=%d on %s: %s: %s\n  sql: %s",
		f.Variant, f.Workers, f.DB, f.Kind, f.Detail, f.SQL)
}

// FaultReport summarizes one sweep.
type FaultReport struct {
	Cases       int // statements swept (oracle ran clean without faults)
	Executions  int // variant × workers runs under injection
	Agreements  int // runs returning the exact oracle bag despite faults
	CleanErrors int // runs failing with an allowlisted typed error
	Skipped     int // tolerant ErrNotApplicable refusals
	Allowlisted int // Kim COUNT-bug row losses, expected
	OracleSkips int // statements the no-fault oracle could not run
	Failures    []*FaultFailure
}

// Clean reports whether the sweep found no contract violations.
func (r *FaultReport) Clean() bool { return len(r.Failures) == 0 }

func (r *FaultReport) String() string {
	return fmt.Sprintf("cases=%d executions=%d agreements=%d clean-errors=%d skipped=%d allowlisted=%d oracle-skips=%d failures=%d",
		r.Cases, r.Executions, r.Agreements, r.CleanErrors, r.Skipped,
		r.Allowlisted, r.OracleSkips, len(r.Failures))
}

// faultSweepWorkers are the worker counts every variant is swept at: the
// deterministic single-threaded engine and a parallel one, so injected
// faults land both on the caller's stack and inside worker goroutines.
var faultSweepWorkers = []int{1, 4}

// faultHangGuard bounds each governed execution; a run that neither
// finishes nor fails within it is reported as a hang. It is generous
// because the point is detecting a stuck engine, not a slow one.
const faultHangGuard = 30 * time.Second

// faultPlan derives one case's injection plan. Every site gets an error
// stream; hash builds and morsel claims additionally panic (exercising
// morsel recovery and the engine boundary) and morsel claims add latency
// (exercising deadline checks under slow operators). The Every values are
// spread over small primes so streams interleave rather than align.
func faultPlan(seed int64) faultinject.Plan {
	return faultinject.Plan{
		Seed: seed,
		Rules: map[faultinject.Point]faultinject.Rule{
			faultinject.StorageScan: {ErrEvery: 11},
			faultinject.HashBuild:   {ErrEvery: 13, PanicEvery: 29},
			faultinject.MorselClaim: {ErrEvery: 37, PanicEvery: 41, LatencyEvery: 7, Latency: 100 * time.Microsecond},
		},
	}
}

// cleanFaultError reports whether an execution failure under injection is
// an allowlisted typed error: the injected fault itself, a recovered
// panic, or a governance trip. Anything else is a dirty error.
func cleanFaultError(err error) bool {
	return errors.Is(err, faultinject.ErrInjected) ||
		errors.Is(err, exec.ErrPanic) ||
		errors.Is(err, exec.ErrCanceled) ||
		errors.Is(err, exec.ErrDeadlineExceeded) ||
		errors.Is(err, exec.ErrRowBudget) ||
		errors.Is(err, exec.ErrMemBudget)
}

// FaultSweep fuzzes statements and re-runs every variant × worker count
// under seeded fault injection, proving the failure-handling contract:
// each run either agrees with the no-fault nested-iteration oracle or
// fails with a clean typed error — never a wrong answer, a hang, or a
// process crash. Which operation a given fault lands on can vary with
// scheduling at workers>1 (hit indexes are assigned in arrival order),
// but the contract itself must hold for every interleaving, which is
// exactly what the sweep checks. Injection state is process-global: the
// sweep must not run concurrently with other engine work.
func FaultSweep(cfg FaultConfig) *FaultReport {
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	if cfg.Size <= 0 {
		cfg.Size = 8
	}
	if cfg.N <= 0 {
		cfg.N = 25
	}
	rep := &FaultReport{}
	defer faultinject.Disable()
	variants := append([]Variant{oracleVariant}, Variants()...)
	for i := 0; i < cfg.N; i++ {
		caseSeed := cfg.Seed + int64(i)*999983
		r := rand.New(rand.NewSource(caseSeed))
		schemaName := SchemaNames[i%len(SchemaNames)]
		q := Generate(r, schemaName)
		dbs := DBSpec{Schema: schemaName, Seed: caseSeed, Size: cfg.Size}
		db := dbs.Build()
		sql := q.SQL()
		if cfg.Verbose {
			fmt.Fprintf(out, "case %d [%s]: %s\n", i, dbs, sql)
		}
		// The oracle runs without injection: it defines correctness.
		faultinject.Disable()
		want, _, err := engine.New(db).Query(sql, engine.NI)
		if err != nil {
			rep.OracleSkips++
			fmt.Fprintf(out, "oracle-skip [%s]: %v\n  sql: %s\n", dbs, err, sql)
			continue
		}
		wantBag := bagOf(want)
		rep.Cases++
		faultinject.Enable(faultPlan(caseSeed))
		for _, v := range variants {
			for _, w := range faultSweepWorkers {
				rep.Executions++
				got, err := runFaulted(db, v, sql, w)
				switch {
				case err == nil:
					gotBag := bagOf(got)
					if bagsEqual(gotBag, wantBag) {
						rep.Agreements++
					} else if allowlistedKim(v, q, gotBag, wantBag) {
						rep.Allowlisted++
					} else {
						f := &FaultFailure{DB: dbs, Variant: v.Name, Workers: w, SQL: sql,
							Kind: "wrong-answer",
							Detail: fmt.Sprintf("want %v, got %v",
								renderSorted(want), renderSorted(got))}
						rep.Failures = append(rep.Failures, f)
						fmt.Fprintf(out, "FAULT-FAILURE %s\n", f)
					}
				case v.Tolerant && errors.Is(err, classic.ErrNotApplicable):
					rep.Skipped++
				case cleanFaultError(err):
					rep.CleanErrors++
				default:
					f := &FaultFailure{DB: dbs, Variant: v.Name, Workers: w, SQL: sql,
						Kind: "dirty-error", Detail: err.Error()}
					rep.Failures = append(rep.Failures, f)
					fmt.Fprintf(out, "FAULT-FAILURE %s\n", f)
				}
			}
		}
		faultinject.Disable()
	}
	fmt.Fprintf(out, "%s\n", rep)
	return rep
}

// runFaulted executes sql under one variant on a fresh engine with the
// sweep's hang guard armed.
func runFaulted(db *storage.DB, v Variant, sql string, workers int) ([]storage.Row, error) {
	e := engine.New(db)
	e.Workers = workers
	e.Limits = exec.Limits{Timeout: faultHangGuard}
	if v.Configure != nil {
		v.Configure(e)
	}
	rows, _, err := e.Query(sql, v.Strategy)
	return rows, err
}
