package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"decorr"
	"decorr/internal/engine"
	"decorr/internal/plancache"
	"decorr/internal/rewrite"
	"decorr/internal/trace"
)

// repl reads semicolon-terminated statements interactively, executing each
// under the session strategy. Meta commands: \strategy <name>, \explain,
// \analyze, \timing, \trace, \metrics, \quit.
func repl(eng *decorr.Engine, s decorr.Strategy) {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	explain, analyze, timing := false, false, false
	// \trace swaps the engine tracer for a ring buffer and prints the
	// span tree after every statement; toggling off restores the tracer
	// the session started with (e.g. a -trace file sink).
	var ring *trace.RingSink
	savedTracer := eng.Tracer
	fmt.Println("decorr — Complex Query Decorrelation (ICDE 1996) reproduction")
	fmt.Printf("strategy %s; end statements with ';', \\q quits, \\h for help\n", s)
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("decorr> ")
		} else {
			fmt.Print("   ...> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			switch {
			case trimmed == "\\q" || trimmed == "\\quit":
				return
			case trimmed == "\\h" || trimmed == "\\help":
				fmt.Println(`meta commands:
  \strategy ` + engine.StrategyNames("|") + `
  \explain   toggle plan printing
  \analyze   toggle per-box profiles
  \timing    toggle wall-clock reporting
  \workers N set executor worker goroutines (0 = GOMAXPROCS, 1 = serial)
  \limits [timeout=DUR] [rows=N] [mem=BYTES] | off   show or set per-query budgets
  \plancache [N|off]  show plan-cache stats, set capacity, or disable
  \queries   list running queries (id, elapsed, strategy, progress)
  \kill ID   cancel a running query (it fails with the canceled error)
  \trace     toggle per-statement pipeline traces
  \metrics   print the process metrics registry
  \q         quit`)
			case strings.HasPrefix(trimmed, "\\strategy"):
				name := strings.TrimSpace(strings.TrimPrefix(trimmed, "\\strategy"))
				if ns, ok := engine.ParseStrategy(name); ok {
					s = ns
					fmt.Printf("strategy = %s\n", s)
				} else {
					fmt.Printf("unknown strategy %q\n", name)
				}
			case trimmed == "\\explain":
				explain = !explain
				fmt.Printf("explain = %v\n", explain)
			case trimmed == "\\analyze":
				analyze = !analyze
				fmt.Printf("analyze = %v\n", analyze)
			case trimmed == "\\timing":
				timing = !timing
				fmt.Printf("timing = %v\n", timing)
			case strings.HasPrefix(trimmed, "\\workers"):
				arg := strings.TrimSpace(strings.TrimPrefix(trimmed, "\\workers"))
				var n int
				if _, err := fmt.Sscanf(arg, "%d", &n); err != nil || n < 0 {
					fmt.Printf("usage: \\workers N (0 = GOMAXPROCS, 1 = single-threaded)\n")
				} else {
					eng.Workers = n
					fmt.Printf("workers = %d\n", n)
				}
			case strings.HasPrefix(trimmed, "\\limits"):
				setLimits(eng, strings.TrimSpace(strings.TrimPrefix(trimmed, "\\limits")))
			case strings.HasPrefix(trimmed, "\\plancache"):
				arg := strings.TrimSpace(strings.TrimPrefix(trimmed, "\\plancache"))
				switch {
				case arg == "":
					if c := eng.PlanCache(); c == nil {
						fmt.Println("plancache = off")
					} else {
						st := plancache.StatsNow()
						fmt.Printf("plancache = on (%d plans; hits=%d misses=%d evictions=%d invalidations=%d)\n",
							c.Len(), st.Hits, st.Misses, st.Evictions, st.Invalidations)
					}
				case arg == "off":
					eng.DisablePlanCache()
					fmt.Println("plancache = off")
				default:
					var n int
					if _, err := fmt.Sscanf(arg, "%d", &n); err != nil || n < 0 {
						fmt.Printf("usage: \\plancache [N|off] (N > 0 sets capacity, 0 or off disables)\n")
					} else if n == 0 {
						eng.DisablePlanCache()
						fmt.Println("plancache = off")
					} else {
						eng.EnablePlanCache(n)
						fmt.Printf("plancache = on (capacity %d)\n", n)
					}
				}
			case trimmed == "\\queries":
				listQueries(eng)
			case strings.HasPrefix(trimmed, "\\kill"):
				fmt.Println(killQuery(eng, strings.TrimSpace(strings.TrimPrefix(trimmed, "\\kill"))))
			case trimmed == "\\trace":
				if ring == nil {
					ring = trace.NewRingSink(0)
					eng.Tracer = trace.New(ring)
				} else {
					ring = nil
					eng.Tracer = savedTracer
				}
				fmt.Printf("trace = %v\n", ring != nil)
			case trimmed == "\\metrics":
				fmt.Print(trace.Metrics.Snapshot().String())
			default:
				fmt.Printf("unknown meta command %q (\\h for help)\n", trimmed)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		for {
			stmt, rest, ok := splitStatement(buf.String())
			if !ok {
				break
			}
			buf.Reset()
			buf.WriteString(rest)
			if strings.TrimSpace(stmt) != "" {
				execStatement(eng, stmt, s, explain, analyze, timing)
				if ring != nil {
					fmt.Print(trace.FormatEvents(ring.Events(), true))
					ring.Reset()
				}
			}
		}
		if strings.TrimSpace(buf.String()) == "" {
			buf.Reset()
		}
		prompt()
	}
}

// killQuery implements \kill: parse the target ID and cancel it through
// the governor, returning the line to print. Three outcomes, each with a
// distinct message: a malformed argument (usage), a live query (killed —
// it fails with the canceled error), and an unknown or already-finished
// ID (no such query).
func killQuery(eng *decorr.Engine, arg string) string {
	var id int64
	if n, err := fmt.Sscanf(arg, "%d", &id); err != nil || n != 1 {
		return "usage: \\kill ID (ids from \\queries)"
	}
	if eng.Kill(id) {
		return fmt.Sprintf("killed query %d", id)
	}
	return fmt.Sprintf("no running query with id %d", id)
}

// listQueries implements \queries: one line per running query with live
// progress counters. The REPL executes statements synchronously, so the
// interesting use is watching another client of the same process — e.g. a
// long query issued over the engine API while this REPL observes — or
// querying sys.active_queries with SQL instead.
func listQueries(eng *decorr.Engine) {
	reg := eng.Registry()
	if reg == nil {
		fmt.Println("query registry disabled")
		return
	}
	active := reg.Active()
	if len(active) == 0 {
		fmt.Println("no running queries")
		return
	}
	fmt.Printf("%-5s %-12s %-8s %-12s %s\n", "id", "elapsed", "strategy", "rows-scanned", "query")
	for _, q := range active {
		text := strings.Join(strings.Fields(q.Text), " ")
		if len(text) > 60 {
			text = text[:57] + "..."
		}
		fmt.Printf("%-5d %-12s %-8s %-12d %s\n",
			q.ID, time.Since(q.Start).Round(time.Millisecond), q.Strategy, q.Progress.RowsScanned, text)
	}
}

// setLimits implements \limits: no argument shows the session budgets,
// "off" clears them, and key=value tokens (timeout=DUR, rows=N, mem=BYTES)
// update individual ones. rows= caps both output and intermediate rows,
// matching the -max-rows flag.
func setLimits(eng *decorr.Engine, arg string) {
	show := func() {
		l := eng.Limits
		if !l.Enabled() {
			fmt.Println("limits = off")
			return
		}
		fmt.Printf("limits: timeout=%s rows=%d mem=%d\n", l.Timeout, l.MaxIntermediateRows, l.MaxTrackedBytes)
	}
	if arg == "" {
		show()
		return
	}
	if arg == "off" {
		eng.Limits = decorr.Limits{}
		fmt.Println("limits = off")
		return
	}
	l := eng.Limits
	for _, tok := range strings.Fields(arg) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			fmt.Printf("usage: \\limits [timeout=DUR] [rows=N] [mem=BYTES] | off\n")
			return
		}
		switch key {
		case "timeout":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				fmt.Printf("bad timeout %q (want a duration like 50ms)\n", val)
				return
			}
			l.Timeout = d
		case "rows":
			var n int64
			if _, err := fmt.Sscanf(val, "%d", &n); err != nil || n < 0 {
				fmt.Printf("bad rows %q (want a non-negative integer)\n", val)
				return
			}
			l.MaxOutputRows, l.MaxIntermediateRows = n, n
		case "mem":
			var n int64
			if _, err := fmt.Sscanf(val, "%d", &n); err != nil || n < 0 {
				fmt.Printf("bad mem %q (want a non-negative byte count)\n", val)
				return
			}
			l.MaxTrackedBytes = n
		default:
			fmt.Printf("unknown limit %q (want timeout, rows, or mem)\n", key)
			return
		}
	}
	eng.Limits = l
	show()
}

// runScript executes a file of semicolon-separated statements. Statement
// errors print and continue, except a rewrite-convergence failure: that is
// an engine bug, so the script aborts and the error is returned for the
// exit code.
func runScript(eng *decorr.Engine, r io.Reader, s decorr.Strategy) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	src := string(data)
	for {
		stmt, rest, ok := splitStatement(src)
		if !ok {
			if strings.TrimSpace(src) != "" {
				return execStatement(eng, src, s, false, false, false)
			}
			return nil
		}
		if strings.TrimSpace(stmt) != "" {
			if err := execStatement(eng, stmt, s, false, false, false); errors.Is(err, rewrite.ErrNoFixpoint) {
				return err
			}
		}
		src = rest
	}
}

// reportError prints a statement failure. A fixpoint exhaustion gets a
// distinct message: no plan exists at that point (executing or printing a
// half-rewritten graph would be misleading), and the statement itself is a
// reproducer worth keeping.
func reportError(err error) error {
	if errors.Is(err, rewrite.ErrNoFixpoint) {
		fmt.Printf("engine bug: %v\nno plan was produced; please keep the statement as a reproducer\n", err)
		return err
	}
	fmt.Printf("error: %v\n", err)
	return err
}

func execStatement(eng *decorr.Engine, stmt string, s decorr.Strategy, explain, analyze, timing bool) error {
	lower := strings.ToLower(strings.TrimSpace(stmt))
	if strings.HasPrefix(lower, "create view") {
		if err := eng.CreateView(stmt); err != nil {
			return reportError(err)
		}
		fmt.Println("view created")
		return nil
	}
	// PrepareCached consults the session plan cache when one is enabled
	// (\plancache) and degrades to a plain Prepare otherwise.
	p, err := eng.PrepareCached(stmt, s)
	if err != nil {
		return reportError(err)
	}
	if explain {
		fmt.Print(p.Explain())
	}
	if analyze {
		out, err := p.ExplainAnalyze()
		if err != nil {
			return reportError(err)
		}
		fmt.Print(out)
	}
	start := time.Now()
	rows, stats, err := p.Run()
	if err != nil {
		return reportError(err)
	}
	fmt.Println(strings.Join(p.Columns, " | "))
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("(%d rows, %s)\n", len(rows), s)
	if timing {
		fmt.Printf("time: %s  %s\n", time.Since(start).Round(10*time.Microsecond), stats)
	}
	return nil
}

// splitStatement returns the first semicolon-terminated statement and the
// remainder; ok=false when no terminator is present outside quotes.
func splitStatement(src string) (stmt, rest string, ok bool) {
	inString := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if c == '\'' {
			// A doubled quote inside a string is an escape.
			if inString && i+1 < len(src) && src[i+1] == '\'' {
				i++
				continue
			}
			inString = !inString
			continue
		}
		if c == ';' && !inString {
			return src[:i], src[i+1:], true
		}
	}
	return "", src, false
}
