package main

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"decorr/internal/ast"
	"decorr/internal/core"
	"decorr/internal/engine"
	"decorr/internal/exec"
	"decorr/internal/parser"
	"decorr/internal/plancache"
	"decorr/internal/qgm"
	"decorr/internal/rewrite"
	"decorr/internal/semant"
	"decorr/internal/server"
	"decorr/internal/storage"
	"decorr/internal/trace"
	"decorr/internal/wire"
)

// The traced run replays ops in-process as a staircase. For every op it
// times, around calls into each layer's public functions:
//
//	step 1  parser.Parse, semant.BindWithViews, rewrite cleanup,
//	        core.Decorrelate, cleanup, exec EstimateCost   (per statement)
//	step 2  engine.Prepare whole, then engine.PrepareCached
//	step 3  Prepared.Stream drained
//	step 4  wire.Write / wire.Read of the op's actual frames over a buffer
//	step 5  a raw wire client against an in-process server.Server
//	step 6  database/sql against the same server
//
// A layer's self time is a step minus the steps below it. Spans (name,
// start, duration, parent, op id) are kept in memory and written as a
// Chrome trace when the run ends.

const (
	maxTracedOps = 64
	minTracedOps = 8
)

// opSample is one traced op's measurements; times in microseconds.
type opSample struct {
	parse, bind, cleanup, decorrelate, estimate float64
	prepareWhole                                float64 // step 2: engine.Prepare, summed over statements
	prepareCached                               float64 // step 2: engine.PrepareCached, summed over statements
	run, firstBatch                             float64 // step 3
	encode, decode                              float64 // step 4, all frames
	rowEncode, rowDecode                        float64 // step 4, Batch frames only
	wireOp, sqlOp                               float64 // steps 5 and 6

	semantBoxes, rewriteBoxes, coreBoxes int
	stats                                exec.Stats
	execMallocs, execBytes               uint64
	wireMallocs, sqlMallocs              uint64
	frames, batchBytes, roundtrips       int
	rows                                 int64
	cacheHits, cacheMisses               int64
	choseRewrite                         []int // texts whose auto plan is decorrelated
}

type staircase struct {
	w    *workload
	db   *storage.DB
	eng  *engine.Engine
	srv  *server.Server
	tr   *trace.Tracer
	sink *trace.ChromeSink
	out  *bytes.Buffer

	strategy engine.Strategy
	wc       *wireClient
	stmtIDs  []uint64 // raw-wire prepared handles, per text
	sqlDB    *sql.DB
	cl       *client

	opID int
}

// newStaircase builds the in-process serving stack exactly as cmd/decorrd
// does (plan cache 256, system catalog mounted, default workers).
func newStaircase(w *workload, db *storage.DB) (*staircase, error) {
	strategy, ok := server.ParseStrategy(w.strategy)
	if !ok {
		return nil, fmt.Errorf("unknown strategy %q", w.strategy)
	}
	eng := engine.New(db)
	eng.EnablePlanCache(256)
	eng.MountSystemCatalog()
	srv := server.New(server.Config{Engine: eng, Strategy: engine.Auto})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln) // returns when srv.Close closes the listener
	addr := ln.Addr().String()
	s := &staircase{w: w, db: db, eng: eng, srv: srv, strategy: strategy, out: &bytes.Buffer{}}
	s.sink = trace.NewChromeSink(s.out)
	s.tr = trace.New(s.sink)

	if s.wc, err = dialWire(addr, "strategy", w.strategy); err != nil {
		s.close()
		return nil, err
	}
	if w.prepared {
		for _, text := range w.texts {
			reply, err := s.wc.rpc(&wire.Prepare{SQL: text})
			if err != nil {
				s.close()
				return nil, err
			}
			s.stmtIDs = append(s.stmtIDs, reply.(*wire.PrepareOK).StmtID)
		}
	}
	if s.sqlDB, err = sql.Open("decorr", w.dsn(addr)); err != nil {
		s.close()
		return nil, err
	}
	s.sqlDB.SetMaxOpenConns(1)
	if s.cl, err = newClient(w, s.sqlDB); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *staircase) close() {
	if s.cl != nil {
		s.cl.close()
	}
	if s.sqlDB != nil {
		s.sqlDB.Close()
	}
	if s.wc != nil {
		s.wc.nc.Close()
	}
	s.srv.Close()
}

// span times f under a trace span.
func (s *staircase) span(name, parent string, f func() error) (float64, error) {
	sp := s.tr.Begin(name, s.w.name, trace.Int("op", int64(s.opID)), trace.Str("parent", parent))
	start := time.Now()
	err := f()
	d := time.Since(start)
	sp.End()
	return us(d), err
}

func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// coldCache empties the plan cache before a step of an unprepared
// workload, so the same text is a true miss at every step of the op, as it
// is on every op of the served run.
func (s *staircase) coldCache() {
	if !s.w.prepared {
		s.eng.PlanCache().Purge()
	}
}

// stages is step 1: the prepare pipeline of engine.prepareStages, stage by
// stage. Auto prepares the statement twice (as written and decorrelated).
func (s *staircase) stages(text string, o *opSample) error {
	variants := []engine.Strategy{s.strategy}
	switch s.strategy {
	case engine.Auto:
		variants = []engine.Strategy{engine.NI, engine.OptMagic}
	case engine.NIBatch:
		variants = []engine.Strategy{engine.NI}
	}
	var q ast.QueryExpr
	d, err := s.span("parser.Parse", "stages", func() error {
		var err error
		q, err = parser.Parse(text)
		return err
	})
	o.parse += d
	if err != nil {
		return err
	}
	for _, v := range variants {
		var g *qgm.Graph
		d, err := s.span("semant.BindWithViews", "stages", func() error {
			var err error
			g, err = semant.BindWithViews(q, s.db.Catalog, nil)
			return err
		})
		o.bind += d
		if err != nil {
			return err
		}
		o.semantBoxes += len(qgm.Boxes(g.Root))
		cleanup := func() error { return rewrite.NewCleanup().Run(g) }
		d, err = s.span("rewrite.Cleanup", "stages", cleanup)
		o.cleanup += d
		if err != nil {
			return err
		}
		if v == engine.OptMagic {
			opts := core.DefaultOptions()
			opts.EliminateSupplementary = true
			opts.Order = exec.New(s.db, exec.Options{}).JoinOrder
			d, err = s.span("core.Decorrelate", "stages", func() error { return core.Decorrelate(g, opts, nil) })
			o.decorrelate += d
			if err != nil {
				return err
			}
			o.coreBoxes += len(qgm.Boxes(g.Root))
		}
		d, err = s.span("rewrite.Cleanup", "stages", cleanup)
		o.cleanup += d
		if err != nil {
			return err
		}
		o.rewriteBoxes += len(qgm.Boxes(g.Root))
		d, _ = s.span("exec.EstimateCost", "stages", func() error {
			exec.New(s.db, exec.Options{}).EstimateCost(g)
			return nil
		})
		o.estimate += d
	}
	return nil
}

// frame encodes m into buf and decodes it back, timing both.
func (s *staircase) frame(buf *bytes.Buffer, m wire.Message, o *opSample) error {
	buf.Reset()
	start := time.Now()
	if err := wire.Write(buf, m); err != nil {
		return err
	}
	enc := us(time.Since(start))
	size := buf.Len()
	start = time.Now()
	if _, err := wire.Read(buf); err != nil {
		return err
	}
	dec := us(time.Since(start))
	o.encode += enc
	o.decode += dec
	o.frames++
	if _, ok := m.(*wire.Batch); ok {
		o.rowEncode += enc
		o.rowDecode += dec
		o.batchBytes += size
	}
	return nil
}

// prepareSteps is steps 1 and 2 for one statement. It returns the plan the
// serving engine holds for the text.
func (s *staircase) prepareSteps(i int, cl *call, o *opSample) (*engine.Prepared, error) {
	text := s.w.texts[cl.text]
	// Steps 1 and 2 do the same work twice; whichever runs second finds the
	// processor caches warm, so the order alternates by op and the bias
	// cancels in engine.prepare_sum_ratio.
	whole := func() error {
		d, err := s.span("engine.Prepare", "op", func() error {
			_, err := s.eng.Prepare(text, s.strategy)
			return err
		})
		o.prepareWhole += d
		return err
	}
	staged := func() error { return s.stages(text, o) }
	first, second := staged, whole
	if i%2 == 1 {
		first, second = whole, staged
	}
	if err := first(); err != nil {
		return nil, err
	}
	if err := second(); err != nil {
		return nil, err
	}

	s.coldCache()
	before := plancache.StatsNow()
	var p *engine.Prepared
	d, err := s.span("engine.PrepareCached", "op", func() error {
		var err error
		p, err = s.eng.PrepareCached(text, s.strategy)
		return err
	})
	o.prepareCached += d
	if err != nil {
		return nil, err
	}
	after := plancache.StatsNow()
	o.cacheHits += after.Hits - before.Hits
	o.cacheMisses += after.Misses - before.Misses
	if s.strategy == engine.Auto && p.Chosen == engine.OptMagic {
		o.choseRewrite = append(o.choseRewrite, cl.text)
	}
	return p, nil
}

// streamStep is step 3 for one statement: the execution the server would
// run, drained batch by batch. The batches feed step 4.
func (s *staircase) streamStep(p *engine.Prepared, cl *call, o *opSample) ([][]storage.Row, exec.Stats, error) {
	var batches [][]storage.Row
	var stats exec.Stats
	m0, b0 := mallocs()
	d, err := s.span("Prepared.Stream", "op", func() error {
		start := time.Now()
		st, err := p.StreamWithOpts(context.Background(), intValues(cl.args), engine.StreamOpts{})
		if err != nil {
			return err
		}
		defer st.Close()
		for first := true; ; first = false {
			batch, err := st.Next()
			if first {
				o.firstBatch += us(time.Since(start))
			}
			if err != nil {
				return err
			}
			if batch == nil {
				stats = st.Stats()
				return nil
			}
			batches = append(batches, batch)
		}
	})
	m1, b1 := mallocs()
	o.run += d
	o.execMallocs += m1 - m0
	o.execBytes += b1 - b0
	o.stats.Add(stats)
	return batches, stats, err
}

// framesStep is step 4 for one statement: every frame of its conversation
// (as session.handleFetch would cut the batches), encoded and decoded.
func (s *staircase) framesStep(p *engine.Prepared, cl *call, batches [][]storage.Row, stats exec.Stats, o *opSample) error {
	fetch := s.w.fetch
	if fetch == 0 {
		fetch = server.DefaultFetchRows
	}
	_, err := s.span("wire.Write+Read", "op", func() error {
		var buf bytes.Buffer
		exe := &wire.Execute{Params: intValues(cl.args)}
		if s.w.prepared {
			exe.StmtID = 1
		} else {
			exe.SQL = s.w.texts[cl.text]
		}
		frames := []wire.Message{exe, &wire.ExecuteOK{CursorID: 1, QueryID: 1, Columns: p.Columns}}
		fetchReq := &wire.Fetch{CursorID: 1, MaxRows: uint32(s.w.fetch)}
		var sent uint64
		for _, batch := range batches {
			for len(batch) > 0 {
				n := min(len(batch), fetch)
				frames = append(frames, fetchReq, &wire.Batch{Rows: batch[:n]})
				batch = batch[n:]
				sent += uint64(n)
			}
		}
		frames = append(frames, fetchReq, &wire.Done{RowsOut: sent, Stats: stats})
		for _, m := range frames {
			if err := s.frame(&buf, m, o); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// wireStatement is step 5 for one call: Execute, then Fetch until Done.
func (s *staircase) wireStatement(cl *call, obs *observed) error {
	req := &wire.Execute{Params: intValues(cl.args)}
	if s.w.prepared {
		req.StmtID = s.stmtIDs[cl.text]
	} else {
		req.SQL = s.w.texts[cl.text]
	}
	reply, err := s.wc.rpc(req)
	if err != nil {
		return err
	}
	cursor := reply.(*wire.ExecuteOK).CursorID
	keep := cl.want.rows != nil
	for {
		reply, err := s.wc.rpc(&wire.Fetch{CursorID: cursor, MaxRows: uint32(s.w.fetch)})
		if err != nil {
			return err
		}
		switch m := reply.(type) {
		case *wire.Batch:
			for _, r := range m.Rows {
				obs.fp.add(r)
			}
			if keep {
				obs.rows = append(obs.rows, m.Rows...)
			}
		case *wire.Done:
			return nil
		default:
			return fmt.Errorf("unexpected fetch reply %T", reply)
		}
	}
}

// wireOpStep is step 5: the op through a raw wire client and the real
// server, its rows checked against the oracle.
func (s *staircase) wireOpStep(calls []*call, o *opSample) error {
	s.coldCache()
	obs := make([]observed, len(calls))
	rt0 := s.wc.roundtrips
	m0, _ := mallocs()
	d, err := s.span("wire client op", "op", func() error {
		for j, cl := range calls {
			if err := s.wireStatement(cl, &obs[j]); err != nil {
				return err
			}
		}
		return nil
	})
	m1, _ := mallocs()
	if err != nil {
		return err
	}
	o.wireOp = d
	o.wireMallocs = m1 - m0
	o.roundtrips = s.wc.roundtrips - rt0
	for j, cl := range calls {
		if !cl.want.matches(&obs[j]) {
			return fmt.Errorf("oracle mismatch on statement %d", cl.text)
		}
		o.rows += int64(obs[j].fp.n)
	}
	return nil
}

// sqlOpStep is step 6: database/sql and the driver on top, through the
// same client code the served windows use.
func (s *staircase) sqlOpStep(i int, o *opSample) error {
	s.coldCache()
	t := newOpTimer(time.Now)
	m0, _ := mallocs()
	_, err := s.span("database/sql op", "op", func() error {
		_, err := s.cl.runOp(i, t)
		return err
	})
	m1, _ := mallocs()
	o.sqlOp = us(t.latency())
	o.sqlMallocs = m1 - m0
	return err
}

// tracedOp runs the whole staircase for op i.
func (s *staircase) tracedOp(i int) (*opSample, error) {
	s.opID = i
	o := &opSample{}
	calls := s.w.op(i)
	opSpan := s.tr.Begin("op", s.w.name, trace.Int("op", int64(i)))
	defer opSpan.End()
	for _, cl := range calls {
		p, err := s.prepareSteps(i, cl, o)
		if err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		batches, stats, err := s.streamStep(p, cl, o)
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		if err := s.framesStep(p, cl, batches, stats, o); err != nil {
			return nil, fmt.Errorf("frames: %w", err)
		}
	}
	if err := s.wireOpStep(calls, o); err != nil {
		return nil, fmt.Errorf("wire client: %w", err)
	}
	if err := s.sqlOpStep(i, o); err != nil {
		return nil, fmt.Errorf("database/sql: %w", err)
	}
	return o, nil
}

// layerReport is the traced run's result: every per-layer metric plus the
// checks made on them.
type layerReport struct {
	metrics  map[string]metric
	ops      int
	dominant string   // layer group with the largest self time
	shares   []string // "group=share" lines for the report
	chose    []string // fig_auto only (non-nil): statements whose plan is decorrelated
	problems []string // failed checks
}

// runStaircase traces ops for about budget (at least minTracedOps, at most
// maxTracedOps, after one untimed warm-up op) and reduces them to metrics.
// servedP50Ms and servedAllocPerOp come from an untraced served window.
func runStaircase(w *workload, db *storage.DB, budget time.Duration, tracePath string, servedP50Ms, servedAllocPerOp float64) (*layerReport, error) {
	s, err := newStaircase(w, db)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if _, err := s.tracedOp(0); err != nil {
		return nil, err
	}
	var ops []*opSample
	start := time.Now()
	for i := 1; i <= maxTracedOps; i++ {
		if i > minTracedOps && time.Since(start) > budget {
			break
		}
		o, err := s.tracedOp(i)
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	rep := reduce(w, ops, servedP50Ms, servedAllocPerOp)

	attrs := make([]trace.Attr, 0, len(rep.metrics)+1)
	for _, name := range layerMetricNames {
		attrs = append(attrs, trace.Attr{Key: name, Value: rep.metrics[name].Value})
	}
	attrs = append(attrs, trace.Str("dominant", rep.dominant))
	s.tr.Instant("layer_metrics", w.name, attrs...)
	if err := s.sink.Flush(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(tracePath, s.out.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// reduce turns per-op samples into the per-layer metrics: the first
// quartile over ops for times, per-op values for counts (which repeat
// exactly op to op on a fixed statement list).
//
// Why the first quartile and not the median: every step of every op is a
// separate execution, and on the allocation-heavy workloads roughly four in
// ten executions overlap a garbage collection of the in-process database.
// The median then sits on the edge between the two modes and moves by tens
// of percent from run to run, which swamps the differences that are the
// layers' self times. The first quartile sits inside the collection-free
// mode. What collection costs the served path shows in trace.overhead_ratio
// (traced op / served p50); what drives it shows in the alloc metrics.
func reduce(w *workload, ops []*opSample, servedP50Ms, servedAllocPerOp float64) *layerReport {
	col := func(f func(*opSample) float64) float64 {
		xs := make([]float64, len(ops))
		for i, o := range ops {
			xs[i] = f(o)
		}
		sort.Float64s(xs)
		return percentile(xs, 25)
	}
	sum := func(f func(*opSample) float64) float64 {
		var t float64
		for _, o := range ops {
			t += f(o)
		}
		return t
	}
	perOp := func(f func(*opSample) float64) float64 { return sum(f) / float64(len(ops)) }

	// What the op pays for preparation: nothing when its statements were
	// prepared once up front, the cached-prepare call (a miss) otherwise.
	prepareInOp := func(o *opSample) float64 {
		if w.prepared {
			return 0
		}
		return o.prepareCached
	}
	stageSum := func(o *opSample) float64 { return o.parse + o.bind + o.cleanup + o.decorrelate + o.estimate }
	// Self times are differences of step quartiles, floored at zero: each
	// step is its own execution, so on a noisy box a step can out-run the
	// step below it. The differences telescope, so op.layer_sum_ratio is 1
	// when the staircase is monotone and exceeds 1 by exactly the amount it
	// is not; it cannot fall below 1, and the check has an upper limit only.
	stepPrepare := col(prepareInOp)
	stepRun := col(func(o *opSample) float64 { return o.run })
	stepWire := col(func(o *opSample) float64 { return o.encode + o.decode })
	stepWireOp := col(func(o *opSample) float64 { return o.wireOp })
	stepSQLOp := col(func(o *opSample) float64 { return o.sqlOp })
	serverSelf := max(0, stepWireOp-stepPrepare-stepRun-stepWire)
	driverSelf := max(0, stepSQLOp-stepWireOp)
	// plancache.lookup_us: a hit costs the whole PrepareCached call; on a
	// miss the cache's share is the call minus the uncached Prepare of the
	// same text.
	lookup := func(o *opSample) float64 {
		if o.cacheHits > 0 && o.cacheMisses == 0 {
			return o.prepareCached
		}
		return o.prepareCached - o.prepareWhole
	}

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	set("parser.parse_us", col(func(o *opSample) float64 { return o.parse }), "us")
	set("semant.bind_us", col(func(o *opSample) float64 { return o.bind }), "us")
	set("semant.boxes", perOp(func(o *opSample) float64 { return float64(o.semantBoxes) }), "count")
	set("rewrite.cleanup_us", col(func(o *opSample) float64 { return o.cleanup }), "us")
	set("rewrite.boxes_after", perOp(func(o *opSample) float64 { return float64(o.rewriteBoxes) }), "count")
	set("core.decorrelate_us", col(func(o *opSample) float64 { return o.decorrelate }), "us")
	set("core.boxes_after", perOp(func(o *opSample) float64 { return float64(o.coreBoxes) }), "count")
	set("exec.estimate_us", col(func(o *opSample) float64 { return o.estimate }), "us")
	set("engine.prepare_us", col(func(o *opSample) float64 { return o.prepareWhole }), "us")
	set("engine.prepare_sum_ratio", col(stageSum)/col(func(o *opSample) float64 { return o.prepareWhole }), "ratio")
	hits, misses := sum(func(o *opSample) float64 { return float64(o.cacheHits) }), sum(func(o *opSample) float64 { return float64(o.cacheMisses) })
	set("plancache.hit_ratio", hits/(hits+misses), "ratio")
	set("plancache.lookup_us", col(lookup)/float64(w.perOp), "us")
	set("exec.run_us", stepRun, "us")
	set("exec.first_batch_us", col(func(o *opSample) float64 { return o.firstBatch }), "us")
	set("exec.work", perOp(func(o *opSample) float64 { return float64(o.stats.Work()) }), "count")
	set("exec.rows_scanned", perOp(func(o *opSample) float64 { return float64(o.stats.RowsScanned) }), "count")
	set("exec.subquery_invocations", perOp(func(o *opSample) float64 { return float64(o.stats.SubqueryInvocations) }), "count")
	set("exec.batch_executions", perOp(func(o *opSample) float64 { return float64(o.stats.BatchExecutions) }), "count")
	set("exec.allocs_per_op", col(func(o *opSample) float64 { return float64(o.execMallocs) }), "count")
	set("exec.alloc_bytes_per_op", col(func(o *opSample) float64 { return float64(o.execBytes) }), "B")
	set("engine.auto_chose_rewrite", perOp(func(o *opSample) float64 { return float64(len(o.choseRewrite)) }), "count")
	rows := sum(func(o *opSample) float64 { return float64(o.rows) })
	set("wire.encode_ns_per_row", 1e3*sum(func(o *opSample) float64 { return o.rowEncode })/rows, "ns")
	set("wire.decode_ns_per_row", 1e3*sum(func(o *opSample) float64 { return o.rowDecode })/rows, "ns")
	set("wire.bytes_per_row", sum(func(o *opSample) float64 { return float64(o.batchBytes) })/rows, "B")
	set("wire.frames_per_op", perOp(func(o *opSample) float64 { return float64(o.frames) }), "count")
	set("server.self_us", serverSelf, "us")
	set("server.roundtrips_per_op", perOp(func(o *opSample) float64 { return float64(o.roundtrips) }), "count")
	set("server.alloc_bytes_per_op", servedAllocPerOp, "B")
	set("driver.self_us", driverSelf, "us")
	set("driver.allocs_per_row", (sum(func(o *opSample) float64 { return float64(o.sqlMallocs) })-sum(func(o *opSample) float64 { return float64(o.wireMallocs) }))/rows, "count")
	set("op.traced_us", stepSQLOp, "us")

	groups := []struct {
		name string
		self float64
	}{
		{groupPrepare, stepPrepare},
		{groupExec, stepRun},
		{groupTransport, stepWire + serverSelf + driverSelf},
	}
	var total float64
	rep := &layerReport{metrics: m, ops: len(ops)}
	best := 0
	for i, g := range groups {
		total += g.self
		if g.self > groups[best].self {
			best = i
		}
	}
	for _, g := range groups {
		rep.shares = append(rep.shares, fmt.Sprintf("%s=%.0f%%", g.name, 100*g.self/total))
	}
	rep.dominant = groups[best].name
	set("op.layer_sum_ratio", total/stepSQLOp, "ratio")
	set("trace.overhead_ratio", stepSQLOp/1e3/servedP50Ms, "ratio")

	if w.name == "fig_auto" {
		rep.chose = []string{}
		for _, text := range ops[0].choseRewrite {
			rep.chose = append(rep.chose, figNames[text])
		}
	}
	if r := m["op.layer_sum_ratio"].Value; r > 1.1 {
		rep.problems = append(rep.problems, fmt.Sprintf("op.layer_sum_ratio %.3f above 1.1: the steps do not nest", r))
	}
	if rep.dominant != w.intended {
		rep.problems = append(rep.problems, fmt.Sprintf("largest self time is %s, not the intended %s (%s)",
			rep.dominant, w.intended, strings.Join(rep.shares, " ")))
	}
	return rep
}
