// Command decorr parses, rewrites, explains and executes SQL against the
// built-in datasets under any decorrelation strategy.
//
// Usage:
//
//	decorr [flags] [SQL]
//	decorr fuzz [-seed N] [-n QUERIES] [-faults]
//
// Examples:
//
//	decorr -query example -strategy magic -stages     # Figures 2–4 stages
//	decorr -dataset tpcd -sf 0.1 -query q1 -compare   # one row per strategy
//	decorr -query q1 -strategy magic -trace out.json  # chrome://tracing trace
//	decorr -dataset empdept -metrics "select count(*) from emp"
//	decorr -timeout 50ms -max-rows 100000 -query q1   # governed execution
//	decorr fuzz -seed 42 -n 200                       # differential harness
//	decorr fuzz -faults -n 25                         # fault-injection sweep
//
// Exit codes: 0 success, 1 error, 2 a rewrite rule set failed to converge
// (an engine bug — the statement is a reproducer worth reporting).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"decorr"
	"decorr/internal/engine"
	"decorr/internal/qgm"
	"decorr/internal/rewrite"
	"decorr/internal/trace"
)

var namedQueries = map[string]string{
	"example": decorr.ExampleQuery,
	"q1":      decorr.Query1,
	"q1b":     decorr.Query1b,
	"q2":      decorr.Query2,
	"q3":      decorr.Query3,
}

func main() {
	fuzzMain()
	dataset := flag.String("dataset", "empdept", "dataset: empdept or tpcd")
	sf := flag.Float64("sf", 0.1, "TPC-D scale factor (dataset=tpcd)")
	seed := flag.Int64("seed", 42, "generator seed")
	strategy := flag.String("strategy", engine.NI.Name(), engine.StrategyNames(" | "))
	queryName := flag.String("query", "", "named query: example | q1 | q1b | q2 | q3")
	explain := flag.Bool("explain", false, "print the (rewritten) QGM plan")
	dot := flag.Bool("dot", false, "print the (rewritten) QGM as Graphviz DOT (paper Figure 1 style)")
	analyze := flag.Bool("analyze", false, "run with per-box profiling and print the annotated plan")
	stages := flag.Bool("stages", false, "print every rewrite stage (Figures 2-4)")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON (chrome://tracing) of the whole pipeline to this file")
	metrics := flag.Bool("metrics", false, "print the metrics-registry delta for this invocation")
	stats := flag.Bool("stats", false, "print work counters")
	compare := flag.Bool("compare", false, "run the query under every strategy")
	workers := flag.Int("workers", 0, "executor worker goroutines (0 = GOMAXPROCS, 1 = single-threaded)")
	planCache := flag.Int("plancache", 0, "prepared-plan cache capacity (0 = disabled)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none); expiry fails the query with a deadline error")
	maxRows := flag.Int64("max-rows", 0, "per-query row budget (0 = none): caps both output rows and intermediate rows")
	maxMem := flag.Int64("max-mem", 0, "per-query tracked-byte budget for hash tables and caches (0 = none)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	interactive := flag.Bool("i", false, "interactive REPL (statements end with ';')")
	script := flag.String("f", "", "execute a file of semicolon-separated statements")
	flag.Parse()

	s0, ok := engine.ParseStrategy(*strategy)
	if !ok {
		fatalf("unknown strategy %q", *strategy)
	}
	// Garbage knob values fail loudly here instead of being reinterpreted
	// deep in the executor (which clamps defensively for library callers).
	if *workers < 0 {
		fatalf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", *workers)
	}
	if *planCache < 0 {
		fatalf("-plancache must be >= 0 (0 = disabled), got %d", *planCache)
	}
	if *timeout < 0 || *maxRows < 0 || *maxMem < 0 {
		fatalf("-timeout, -max-rows, and -max-mem must be >= 0 (0 = unlimited)")
	}
	limits := decorr.Limits{
		Timeout:             *timeout,
		MaxOutputRows:       *maxRows,
		MaxIntermediateRows: *maxRows,
		MaxTrackedBytes:     *maxMem,
	}
	if *metricsAddr != "" {
		addr, stop, err := startMetricsServer(*metricsAddr)
		if err != nil {
			fatalf("%v", err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (pprof under /debug/pprof/)\n", addr)
	}
	metricsBefore := trace.Metrics.Snapshot()
	if *interactive || *script != "" {
		db := buildDB(*dataset, *sf, *seed)
		eng := decorr.NewEngine(db)
		eng.Workers = *workers
		eng.Limits = limits
		if *planCache > 0 {
			eng.EnablePlanCache(*planCache)
		}
		// The sys.* catalog rides along in every session: live queries,
		// the query log, metrics, and latency histograms become plain
		// SELECT targets (see docs/observability.md).
		eng.MountSystemCatalog()
		finishTrace := attachTracer(eng, *traceFile)
		if *script != "" {
			f, err := os.Open(*script)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			if err := runScript(eng, f, s0); err != nil {
				fatalErr(err)
			}
			finishTrace()
			reportMetrics(*metrics, metricsBefore)
			return
		}
		repl(eng, s0)
		finishTrace()
		reportMetrics(*metrics, metricsBefore)
		return
	}

	sql := strings.TrimSpace(strings.Join(flag.Args(), " "))
	if *queryName != "" {
		q, ok := namedQueries[*queryName]
		if !ok {
			fatalf("unknown named query %q (want example|q1|q1b|q2|q3)", *queryName)
		}
		sql = q
	}
	if sql == "" || sql == "-" {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatalf("reading stdin: %v", err)
		}
		sql = strings.TrimSpace(string(b))
	}
	if sql == "" {
		fatalf("no query: pass SQL as an argument, via -query, or on stdin")
	}

	db := buildDB(*dataset, *sf, *seed)
	eng := decorr.NewEngine(db)
	eng.Workers = *workers
	eng.Limits = limits
	if *planCache > 0 {
		eng.EnablePlanCache(*planCache)
	}
	eng.MountSystemCatalog()
	finishTrace := attachTracer(eng, *traceFile)

	if *compare {
		noFixpoint := false
		for _, s := range engine.Strategies {
			if err := runOne(eng, sql, s, false, false, true); errors.Is(err, rewrite.ErrNoFixpoint) {
				noFixpoint = true
			}
		}
		finishTrace()
		reportMetrics(*metrics, metricsBefore)
		if noFixpoint {
			// A strategy row already shows the error; the exit code makes
			// the engine bug visible to scripts too.
			os.Exit(2)
		}
		return
	}
	s := s0
	if *stages {
		p, err := eng.PrepareTraced(sql, s)
		if err != nil {
			fatalErr(err)
		}
		for i, st := range p.Trace.Steps {
			fmt.Printf("--- stage %d: %s ---\n%s\n", i, st.Title, st.Plan)
		}
	}
	switch {
	case *dot:
		p, err := eng.Prepare(sql, s)
		if err != nil {
			fatalErr(err)
		}
		fmt.Print(qgm.Dot(p.Graph))
	case *analyze:
		p, err := eng.Prepare(sql, s)
		if err != nil {
			fatalErr(err)
		}
		out, err := p.ExplainAnalyze()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(out)
	default:
		runOne(eng, sql, s, *explain, *stats, false)
	}
	finishTrace()
	reportMetrics(*metrics, metricsBefore)
}

// attachTracer wires a Chrome trace-event sink writing to path onto eng;
// the returned function flushes and closes it (a no-op for path == "").
func attachTracer(eng *decorr.Engine, path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	sink := trace.NewChromeSink(f)
	eng.Tracer = trace.New(sink)
	return func() {
		if err := sink.Flush(); err != nil {
			fatalf("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	}
}

// reportMetrics prints the registry delta accumulated since startup.
func reportMetrics(enabled bool, before trace.Snapshot) {
	if !enabled {
		return
	}
	fmt.Print("--- metrics ---\n" + trace.Metrics.Snapshot().Diff(before).String())
}

func runOne(eng *decorr.Engine, sql string, s decorr.Strategy, explain, stats, compact bool) error {
	p, err := eng.Prepare(sql, s)
	if err != nil {
		if compact {
			fmt.Printf("%-8s %v\n", s, err)
			return err
		}
		fatalf2(exitCode(err), "%s: %v", s, err)
	}
	if explain {
		fmt.Println(p.Explain())
	}
	rows, st, err := p.Run()
	if err != nil {
		fatalf2(exitCode(err), "%s: %v", s, err)
	}
	if compact {
		fmt.Printf("%-8s rows=%-6d %s\n", s, len(rows), st.String())
		return nil
	}
	fmt.Println(strings.Join(p.Columns, " | "))
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d rows, strategy %s)\n", len(rows), s)
	if stats {
		fmt.Println(st.String())
	}
	return nil
}

func buildDB(dataset string, sf float64, seed int64) *decorr.DB {
	switch dataset {
	case "empdept":
		return decorr.EmpDept()
	case "tpcd":
		return decorr.TPCD(sf, seed)
	}
	fatalf("unknown dataset %q (want empdept or tpcd)", dataset)
	return nil
}

func fatalf(format string, args ...any) {
	fatalf2(1, format, args...)
}

func fatalf2(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "decorr: "+format+"\n", args...)
	os.Exit(code)
}

// fatalErr exits with the code classifying err.
func fatalErr(err error) {
	fatalf2(exitCode(err), "%v", err)
}

// exitCode maps an engine error to the process exit code: a rewrite rule
// set that failed to reach a fixpoint is an engine bug, distinguished as 2
// so scripts (and CI) can tell it from an ordinary bad statement.
func exitCode(err error) int {
	if errors.Is(err, rewrite.ErrNoFixpoint) {
		return 2
	}
	return 1
}
