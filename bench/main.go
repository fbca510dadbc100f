// Command bench is the repository's one benchmark: a single-process load
// generator that builds and launches a real cmd/decorrd subprocess per
// workload, drives it through database/sql and decorr/driver over loopback
// in a closed loop on one connection, checks every result against a
// nested-iteration oracle, and prints every metric by name and unit. A
// separate traced run replays the same ops in-process as a staircase over
// the layers' public functions. See README.md in this directory.
//
//	go run ./bench -seed 42                      every workload, then the traces
//	go run ./bench -workload fig_magic -seed 7   one workload (the BENCHMARK.json form)
//	go run ./bench -aa                           two sets of runs; writes bench/baseline/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"decorr/internal/storage"
	"decorr/internal/tpcd"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndNames are the metrics a user of the served system sees, in
// report order. failed_share is carried by attempted/failed beside them.
var endToEndNames = []string{"setup_s", "query_p50_ms", "query_p90_ms", "first_row_p50_ms",
	"ops_per_s", "rows_per_s", "server_peak_rss_mb"}

// layerMetricNames are the traced run's metrics, in report order.
var layerMetricNames = []string{
	"parser.parse_us", "semant.bind_us", "semant.boxes", "rewrite.cleanup_us", "rewrite.boxes_after",
	"core.decorrelate_us", "core.boxes_after", "exec.estimate_us", "engine.prepare_us", "engine.prepare_sum_ratio",
	"plancache.hit_ratio", "plancache.lookup_us", "exec.run_us", "exec.first_batch_us", "exec.work",
	"exec.rows_scanned", "exec.subquery_invocations", "exec.batch_executions", "exec.allocs_per_op",
	"exec.alloc_bytes_per_op", "engine.auto_chose_rewrite", "wire.encode_ns_per_row", "wire.decode_ns_per_row",
	"wire.bytes_per_row", "wire.frames_per_op", "server.self_us", "server.roundtrips_per_op",
	"server.alloc_bytes_per_op", "driver.self_us", "driver.allocs_per_row", "op.traced_us",
	"op.layer_sum_ratio", "trace.overhead_ratio",
}

// config is one run's settings. Everything but workload, seed, seconds and
// trace is fixed by the benchmark; the smoke test alone shrinks sf.
type config struct {
	workload string
	seed     int64
	window   time.Duration // measured window (untraced) or staircase budget (traced)
	trace    bool
	sf       float64
	warm     time.Duration // untimed closed-loop warm-up before a window
	refWin   time.Duration // traced run: length of its untraced served reference window
}

func defaults() config {
	return config{window: 20 * time.Second, sf: 1, warm: 2 * time.Second, refWin: 3 * time.Second}
}

// run is one (workload, seed) run: build, oracle, then either the served
// windows (trace off) or the staircase (trace on).
type run struct {
	cfg   config
	res   result
	notes []string // report lines printed beside the metrics
}

func (cfg config) run(bin, outDir string) (*run, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sf)
	if err != nil {
		return nil, err
	}
	db := tpcd.Generate(tpcd.Config{SF: cfg.sf, Seed: cfg.seed})
	if err := fillOracle(newOracleEngine(db), w); err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, res: result{Metrics: map[string]metric{}}}
	if cfg.trace {
		return r, r.traced(w, db, bin, outDir)
	}
	// The oracle is complete; release the database copy so the harness's
	// collector has nothing to trace while it drives the load.
	db = nil
	debug.FreeOSMemory()
	return r, r.untraced(w, bin)
}

// served is what one launch-warm-measure cycle against a real decorrd saw.
type served struct {
	win        window
	setupS     float64   // decorrd launch -> first successful Ping
	rssMiB     float64   // VmHWM at the end of the window
	allocPerOp float64   // server TotalAlloc growth over the window / ops
	use, self  procUsage // server's and harness's CPU seconds and page faults over the window
}

// servedWindow launches decorrd, warms it up and measures one window.
func servedWindow(cfg config, w *workload, bin string, d time.Duration) (*served, error) {
	p, db, setupS, err := startServed(bin, w, cfg.sf, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	defer db.Close()
	cl, err := newClient(w, db)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	// Status frames travel on a second connection, outside the window.
	sc, err := dialWire(p.addr)
	if err != nil {
		return nil, err
	}
	defer sc.nc.Close()

	warm, next := cl.runWindow(0, cfg.warm)
	if warm.firstErr != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	before, err := sc.status()
	if err != nil {
		return nil, err
	}
	use0, self0 := p.usage(), selfUsage()
	s := &served{setupS: setupS}
	s.win, _ = cl.runWindow(next, d)
	s.use, s.self = p.usage().since(use0), selfUsage().since(self0)
	after, err := sc.status()
	if err != nil {
		return nil, err
	}
	if s.rssMiB, err = p.peakRSSMiB(); err != nil {
		return nil, err
	}
	s.allocPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(s.win.attempted)
	return s, nil
}

func (r *run) untraced(w *workload, bin string) error {
	s, err := servedWindow(r.cfg, w, bin, r.cfg.window)
	if err != nil {
		return err
	}
	win := s.win
	r.res.Attempted, r.res.Failed = win.attempted, win.failed
	r.res.Correct = win.failed == 0 && len(win.latMs) > 0
	if win.firstErr != nil {
		r.notes = append(r.notes, "first failure: "+win.firstErr.Error())
	}
	// query_p90_ms needs ten samples beyond it. The workloads are sized to
	// give them with room to spare; a window that did not is an error, never
	// a number.
	if tail := tailPercentile(len(win.latMs)); tail < 90 {
		return fmt.Errorf("%s: %d ops completed in the %.0f s window, which support p%g at most; p90 needs 100 (first failure: %v)",
			w.name, len(win.latMs), win.elapsed.Seconds(), tail, win.firstErr)
	}
	set := func(name string, v float64, unit string) { r.res.Metrics[name] = metric{v, unit} }
	set("setup_s", s.setupS, "s")
	set("query_p50_ms", win.p50Ms(), "ms")
	set("query_p90_ms", win.blockStat(90, true, func(lo, hi int) float64 { return percentile(sortedCopyF(win.latMs[lo:hi]), 90) }), "ms")
	set("first_row_p50_ms", win.blockStat(50, true, func(lo, hi int) float64 { return median(win.firstMs[lo:hi]) }), "ms")
	set("ops_per_s", win.blockStat(50, false, func(lo, hi int) float64 { return float64(hi-lo) / win.blockSeconds(lo, hi) }), "1/s")
	set("rows_per_s", win.blockStat(50, false, func(lo, hi int) float64 {
		var rows float64
		for _, n := range win.opRows[lo:hi] {
			rows += n
		}
		return rows / win.blockSeconds(lo, hi)
	}), "rows/s")
	set("server_peak_rss_mb", s.rssMiB, "MiB")
	r.notes = append(r.notes,
		fmt.Sprintf("samples=%d window=%.2fs", len(win.latMs), win.elapsed.Seconds()),
		// Whether the host held one speed through the window.
		fmt.Sprintf("whole window: p50 %.3f ms, %.2f ops/s; p50 by block: %.3f ms", median(win.latMs), float64(len(win.latMs))/win.elapsed.Seconds(),
			win.perBlock(50, func(lo, hi int) float64 { return median(win.latMs[lo:hi]) })),
		fmt.Sprintf("cpu in the window: server user=%.2fs sys=%.2fs minor_faults=%.0f; harness user=%.2fs sys=%.2fs minor_faults=%.0f",
			s.use.userS, s.use.sysS, s.use.minorFaults, s.self.userS, s.self.sysS, s.self.minorFaults),
		fmt.Sprintf("failed_share=%g ratio (%d of %d ops)", float64(win.failed)/float64(win.attempted), win.failed, win.attempted))
	return nil
}

func (r *run) traced(w *workload, db *storage.DB, bin, outDir string) error {
	// An untraced served window first: its p50 is the base of
	// trace.overhead_ratio and its Status frames give the server's bytes
	// allocated per op.
	ref, err := servedWindow(r.cfg, w, bin, r.cfg.refWin)
	if err != nil {
		return err
	}
	if ref.win.failed > 0 || len(ref.win.latMs) == 0 {
		return fmt.Errorf("%s: reference window failed: %v", w.name, ref.win.firstErr)
	}
	tracePath := filepath.Join(outDir, "trace-"+w.name+".json")
	rep, err := runStaircase(w, db, r.cfg.window, tracePath, ref.win.p50Ms(), ref.allocPerOp)
	if err != nil {
		return err
	}
	r.res.Metrics = rep.metrics
	r.res.Attempted = rep.ops
	r.res.Correct = len(rep.problems) == 0
	r.notes = append(r.notes,
		fmt.Sprintf("traced_ops=%d trace=%s", rep.ops, tracePath),
		fmt.Sprintf("self-time shares: %s; largest: %s (intended %s)", strings.Join(rep.shares, " "), rep.dominant, w.intended))
	if rep.chose != nil {
		r.notes = append(r.notes, fmt.Sprintf("auto chose a decorrelated plan for %d of %d: %s", len(rep.chose), len(w.texts), strings.Join(rep.chose, ", ")))
	}
	for _, p := range rep.problems {
		r.notes = append(r.notes, "CHECK FAILED: "+p)
	}
	return nil
}

// print writes the run's metrics by name and unit, in report order.
func (r *run) print() {
	names := endToEndNames
	if r.cfg.trace {
		names = layerMetricNames
	}
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Printf("%-12s %-28s %14.4f %s\n", r.cfg.workload, n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Printf("%-12s # %s\n", r.cfg.workload, n)
	}
}

// hostFingerprint records what a number's reader needs to know about the
// box it was measured on.
func hostFingerprint() map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "pinned": os.Getenv(pinnedEnv),
		"go": runtime.Version(), "gogc": gogc, "cpu": cpu,
		"connections": 1, "server_workers": "0 (GOMAXPROCS)",
	}
}

func main() {
	cfg := defaults()
	flag.StringVar(&cfg.workload, "workload", "", "run one workload and print one JSON result line (default: all, then their traces)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed for the data, the plan_cold literals and the stream_scan bounds")
	seconds := flag.Int("seconds", int(cfg.window/time.Second), "measured window per workload, whole seconds")
	traceFlag := flag.Int("trace", 0, "with -workload: 1 runs the traced staircase and reports the per-layer metrics")
	aa := flag.Bool("aa", false, "A/A mode: two sets of runs of every workload; fails on disagreement, writes bench/baseline/aa.json")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.window = time.Duration(*seconds) * time.Second

	err := pinToOneCPU()
	if err == nil {
		err = mainErr(cfg, *aa)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config, aa bool) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	bin, err := buildDecorrd(root)
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "out")
	host, _ := json.Marshal(hostFingerprint())
	fmt.Printf("# host %s\n", host)

	switch {
	case aa:
		return runAA(cfg, root, bin, outDir)
	case cfg.workload != "":
		r, err := cfg.run(bin, outDir)
		if err != nil {
			return err
		}
		r.print()
		line, err := json.Marshal(r.res)
		if err != nil {
			return err
		}
		// The result line carries the verdict; the exit code stays 0.
		fmt.Println(string(line))
		return nil
	}
	// Every workload untraced, then every workload traced.
	ok := true
	for _, traced := range []bool{false, true} {
		for _, name := range workloadNames {
			c := cfg
			c.workload, c.trace = name, traced
			r, err := c.run(bin, outDir)
			if err != nil {
				return err
			}
			r.print()
			ok = ok && r.res.Correct
		}
	}
	if !ok {
		return fmt.Errorf("a workload failed its checks")
	}
	return nil
}
