// Command decorrd serves the decorrelation engine over the network.
// Clients speak the wire protocol directly or, more usually, through the
// database/sql driver in decorr/driver:
//
//	decorrd -addr 127.0.0.1:7531 -dataset empdept -emp 1000000
//
//	db, _ := sql.Open("decorr", "127.0.0.1:7531?strategy=auto")
//	rows, _ := db.Query("select name from emp where building = ?", "B1")
//
// Results stream: a million-row answer crosses the wire batch by batch
// with both peers holding one batch at a time, queries remain killable
// mid-stream (from any connection, or `\kill` in a local decorr REPL
// pointed at the same engine), and the sys.* system catalog is mounted,
// so remote clients can SELECT from sys.active_queries and
// sys.query_log like any other table.
//
// Shutdown is graceful: the first SIGINT/SIGTERM begins a drain — the
// listener closes, new sessions are refused with a retryable error, and
// in-flight queries and open cursors run to completion, bounded by
// -drain. A second signal (or the -drain deadline) forces the hard
// close. The -chaos-* flags enable seeded fault injection at the wire
// layer for the chaos harness; they are test infrastructure, not
// serving options.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"decorr"
	"decorr/internal/engine"
	"decorr/internal/faultinject"
	"decorr/internal/server"
	"decorr/internal/tpcd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7531", "listen address")
	dataset := flag.String("dataset", "empdept", "dataset: empdept or tpcd")
	sf := flag.Float64("sf", 0.1, "TPC-D scale factor (dataset=tpcd)")
	seed := flag.Int64("seed", 42, "generator seed")
	emp := flag.Int("emp", 0, "dataset=empdept: generate this many emp rows (0 = the paper's default data)")
	strategy := flag.String("strategy", engine.Auto.Name(), "default strategy: "+engine.StrategyNames(" | "))
	workers := flag.Int("workers", 0, "default executor workers per query (0 = GOMAXPROCS)")
	planCache := flag.Int("plancache", 256, "prepared-plan cache capacity (0 = disabled)")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "concurrent session cap")
	fetchRows := flag.Int("fetch-rows", server.DefaultFetchRows, "default rows per fetch reply")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none)")
	maxRows := flag.Int64("max-rows", 0, "per-query row budget (0 = none)")
	maxMem := flag.Int64("max-mem", 0, "per-query tracked-byte budget (0 = none)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain bound on SIGINT/SIGTERM before hard close (0 = immediate hard close)")
	handshakeTimeout := flag.Duration("handshake-timeout", server.DefaultHandshakeTimeout, "drop peers that do not complete a handshake in time (<0 = no bound)")
	readTimeout := flag.Duration("read-timeout", 0, "drop sessions idle past this between requests (0 = no bound)")
	writeTimeout := flag.Duration("write-timeout", server.DefaultWriteTimeout, "drop peers that stall a reply write past this (<0 = no bound)")
	maxActive := flag.Int("max-active-queries", 0, "shed new work while this many queries run (0 = no cap)")
	maxHeap := flag.Int64("max-heap", 0, "shed new work while the heap exceeds this many bytes (0 = no cap)")
	retryAfter := flag.Duration("retry-after", server.DefaultRetryAfter, "backoff hint sent with retryable rejections")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault-injection seed for the -chaos-* rules")
	chaosReadErr := flag.Int("chaos-read-err-every", 0, "inject a read fault on ~1/N frame reads (0 = off)")
	chaosWriteErr := flag.Int("chaos-write-err-every", 0, "inject a torn frame on ~1/N frame writes (0 = off)")
	chaosLatencyEvery := flag.Int("chaos-latency-every", 0, "inject -chaos-latency on ~1/N frame reads and writes (0 = off)")
	chaosLatency := flag.Duration("chaos-latency", 5*time.Millisecond, "injected frame latency for -chaos-latency-every")
	flag.Parse()

	s, ok := server.ParseStrategy(*strategy)
	if !ok {
		fatalf("unknown strategy %q", *strategy)
	}
	if *workers < 0 || *planCache < 0 || *maxSessions <= 0 || *fetchRows <= 0 {
		fatalf("-workers and -plancache must be >= 0; -max-sessions and -fetch-rows must be > 0")
	}
	if *timeout < 0 || *maxRows < 0 || *maxMem < 0 {
		fatalf("-timeout, -max-rows, and -max-mem must be >= 0 (0 = unlimited)")
	}
	if *drain < 0 || *maxActive < 0 || *maxHeap < 0 || *retryAfter < 0 {
		fatalf("-drain, -max-active-queries, -max-heap, and -retry-after must be >= 0")
	}
	if *chaosReadErr < 0 || *chaosWriteErr < 0 || *chaosLatencyEvery < 0 || *chaosLatency < 0 {
		fatalf("the -chaos-* rates and latency must be >= 0")
	}

	if *chaosReadErr > 0 || *chaosWriteErr > 0 || *chaosLatencyEvery > 0 {
		faultinject.Enable(faultinject.Plan{
			Seed: *chaosSeed,
			Rules: map[faultinject.Point]faultinject.Rule{
				faultinject.WireRead: {
					ErrEvery:     *chaosReadErr,
					LatencyEvery: *chaosLatencyEvery,
					Latency:      *chaosLatency,
				},
				faultinject.WireWrite: {
					ErrEvery:     *chaosWriteErr,
					LatencyEvery: *chaosLatencyEvery,
					Latency:      *chaosLatency,
				},
			},
		})
		fmt.Fprintf(os.Stderr, "decorrd: CHAOS enabled (seed %d, read-err 1/%d, write-err 1/%d, latency 1/%d x %s)\n",
			*chaosSeed, *chaosReadErr, *chaosWriteErr, *chaosLatencyEvery, *chaosLatency)
	}

	var db *decorr.DB
	switch strings.ToLower(*dataset) {
	case "empdept":
		if *emp > 0 {
			db = tpcd.EmpDeptSized(40, *emp, 6, *seed)
		} else {
			db = decorr.EmpDept()
		}
	case "tpcd":
		db = decorr.TPCD(*sf, *seed)
	default:
		fatalf("unknown dataset %q (want empdept or tpcd)", *dataset)
	}

	eng := engine.New(db)
	eng.Workers = *workers
	eng.Limits = decorr.Limits{
		Timeout:             *timeout,
		MaxOutputRows:       *maxRows,
		MaxIntermediateRows: *maxRows,
		MaxTrackedBytes:     *maxMem,
	}
	if *planCache > 0 {
		eng.EnablePlanCache(*planCache)
	}
	eng.MountSystemCatalog()

	srv := server.New(server.Config{
		Engine:           eng,
		Strategy:         s,
		MaxSessions:      *maxSessions,
		FetchRows:        *fetchRows,
		HandshakeTimeout: *handshakeTimeout,
		ReadTimeout:      *readTimeout,
		WriteTimeout:     *writeTimeout,
		MaxActiveQueries: *maxActive,
		MaxHeapBytes:     uint64(*maxHeap),
		RetryAfter:       *retryAfter,
	})

	// First signal: graceful drain (in-flight queries finish, new work is
	// refused with a retryable error). Second signal or the -drain
	// deadline: hard close. drained resolves either way so main can exit
	// cleanly after Serve returns.
	drained := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		defer close(drained)
		<-sigs
		if *drain <= 0 {
			fmt.Fprintln(os.Stderr, "decorrd: shutting down")
			srv.Close()
			return
		}
		fmt.Fprintf(os.Stderr, "decorrd: draining (up to %s; signal again to force)\n", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		go func() {
			select {
			case <-sigs:
				fmt.Fprintln(os.Stderr, "decorrd: forcing shutdown")
				cancel()
			case <-ctx.Done():
			}
		}()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "decorrd: drain cut short: %v\n", err)
			return
		}
		fmt.Fprintln(os.Stderr, "decorrd: drained")
	}()

	// Listen before announcing, so the printed address is the bound one
	// (with -addr 127.0.0.1:0 the kernel picks the port) and a parent
	// process can scrape it from stderr once it appears.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "decorrd: serving %s on %s (strategy %s)\n", *dataset, ln.Addr(), s)
	if err := srv.Serve(ln); err != nil {
		fatalf("%v", err)
	}
	// Serve returns as soon as the listener closes; the drain itself may
	// still be completing. Wait for it so in-flight streams finish before
	// the process exits.
	<-drained
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "decorrd: "+format+"\n", args...)
	os.Exit(1)
}
