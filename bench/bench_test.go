package main

import (
	"math"
	"testing"
	"time"

	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// The percentile rule: quote the highest percentile that still has at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for p, want := range map[float64]float64{0: 10, 50: 30, 90: 46, 100: 50} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
}

// quartileSpread must agree with Python's statistics.quantiles(xs, n=4),
// which is what the acceptance driver computes: for 1..10 the quartiles
// are 2.75, 5.5 and 8.25.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}

// The closed-loop op timer: latency spans the first statement's start to
// the last one's end; first-row time sums each statement's wait for its
// first row and ignores later rows.
func TestOpTimer(t *testing.T) {
	var clock time.Time
	at := func(ms int) { clock = time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	at(1000) // a non-zero epoch, as any real clock has
	base := 1000
	timer := newOpTimer(func() time.Time { return clock })

	at(base + 0)
	timer.beginStmt()
	at(base + 3)
	timer.row()
	at(base + 5)
	timer.row() // second row: ignored
	at(base + 6)
	timer.endStmt()

	at(base + 10) // harness think time between statements counts in the op
	timer.beginStmt()
	at(base + 14)
	timer.row()
	at(base + 20)
	timer.endStmt()

	if got := timer.latency(); got != 20*time.Millisecond {
		t.Errorf("latency = %v, want 20ms", got)
	}
	if got := timer.firstRow; got != 7*time.Millisecond {
		t.Errorf("firstRow = %v, want 3ms+4ms", got)
	}
}

// The plan_cold pool: 4096 distinct texts at SF=1 cardinalities, the same
// for the same seed, different for another.
func TestColdPool(t *testing.T) {
	texts, calls := coldPool(42, 20000, 1000, poolSize)
	if len(texts) != poolSize || len(calls) != poolSize {
		t.Fatalf("pool has %d texts and %d calls, want %d", len(texts), len(calls), poolSize)
	}
	seen := map[string]bool{}
	for _, s := range texts {
		if seen[s] {
			t.Fatalf("duplicate text in pool: %s", s)
		}
		seen[s] = true
	}
	again, _ := coldPool(42, 20000, 1000, poolSize)
	other, _ := coldPool(43, 20000, 1000, poolSize)
	same, differ := true, false
	for i := range texts {
		same = same && texts[i] == again[i]
		differ = differ || texts[i] != other[i]
	}
	if !same {
		t.Error("pool is not deterministic for a seed")
	}
	if !differ {
		t.Error("pool does not depend on the seed")
	}

	// A small database yields as many texts as it has keys, still distinct.
	small, _ := coldPool(42, 200, 10, poolSize)
	if len(small) != 410 {
		t.Errorf("small pool has %d texts, want 200+200+10", len(small))
	}
}

func TestScanBoundsStratified(t *testing.T) {
	a, b := scanBoundsFor(1, 20000), scanBoundsFor(2, 20000)
	if len(a) != scanBounds {
		t.Fatalf("got %d bounds, want %d", len(a), scanBounds)
	}
	differ := false
	for i, v := range a {
		if v < scanLo || v >= scanHi+2 {
			t.Errorf("bound %d outside [%d, %d)", v, scanLo, scanHi+2)
		}
		differ = differ || v != b[i]
	}
	if !differ {
		t.Error("bounds do not depend on the seed")
	}
}

// The bag comparison: order-free, exact on the fingerprint, tolerant of
// last-bit float differences, and not fooled by a different bag.
func TestExpectedMatches(t *testing.T) {
	row := func(s string, f float64) storage.Row {
		return storage.Row{sqltypes.NewString(s), sqltypes.NewFloat(f)}
	}
	want := []storage.Row{row("a", 1.5), row("b", 1e6/3), row("b", 1e6/3)}
	var f fingerprint
	for _, r := range want {
		f.add(r)
	}
	exp := expected{n: f.n, fp: f.sum, rows: want}
	observe := func(rows ...storage.Row) *observed {
		o := &observed{rows: rows}
		for _, r := range rows {
			o.fp.add(r)
		}
		return o
	}
	if !exp.matches(observe(want[2], want[0], want[1])) {
		t.Error("a permutation of the bag must match")
	}
	if !exp.matches(observe(row("b", math.Nextafter(1e6/3, 1)), want[0], want[1])) {
		t.Error("a last-bit float difference must match")
	}
	if exp.matches(observe(want[0], want[1])) {
		t.Error("a missing duplicate must not match")
	}
	if exp.matches(observe(want[0], want[1], row("b", 1e6/3+1))) {
		t.Error("a different value must not match")
	}
	// A row as database/sql delivers it converts to the same engine row.
	got := make(storage.Row, 2)
	scannedRow([]any{"a", 1.5}, got)
	if !exp.matches(observe(got, want[1], want[2])) {
		t.Error("a scanned row must match its engine row")
	}
}

// The sum and dominance checks of the traced run, on synthetic samples.
func TestReduceChecks(t *testing.T) {
	w := &workload{name: "fig_magic", prepared: true, intended: groupExec, perOp: 4}
	sample := func(run, wire, wireOp, sqlOp float64) *opSample {
		return &opSample{prepareWhole: 1, prepareCached: 1, run: run, encode: wire / 2, decode: wire / 2,
			wireOp: wireOp, sqlOp: sqlOp, rows: 10, cacheHits: 4}
	}
	// A monotone staircase: 800 exec + 50 wire + 100 server + 50 driver.
	rep := reduce(w, []*opSample{sample(800, 50, 950, 1000), sample(800, 50, 950, 1000)}, 1, 0)
	if got := rep.metrics["op.layer_sum_ratio"].Value; math.Abs(got-1) > 1e-9 {
		t.Errorf("monotone staircase: op.layer_sum_ratio = %g, want 1", got)
	}
	if got := rep.metrics["server.self_us"].Value; got != 100 {
		t.Errorf("server.self_us = %g, want 100", got)
	}
	if got := rep.metrics["driver.self_us"].Value; got != 50 {
		t.Errorf("driver.self_us = %g, want 50", got)
	}
	if rep.dominant != groupExec || len(rep.problems) != 0 {
		t.Errorf("dominant = %s, problems = %v; want exec and none", rep.dominant, rep.problems)
	}

	// The wire-client step out-runs the exec step below it by 200 of 1000:
	// the ratio says so and the run fails its sum check.
	rep = reduce(w, []*opSample{sample(800, 50, 650, 1000)}, 1, 0)
	if got := rep.metrics["op.layer_sum_ratio"].Value; math.Abs(got-1.2) > 1e-9 {
		t.Errorf("non-monotone staircase: op.layer_sum_ratio = %g, want 1.2", got)
	}
	if len(rep.problems) == 0 {
		t.Error("a ratio of 1.2 must fail the sum check")
	}

	// Transport larger than exec on an exec workload fails dominance.
	rep = reduce(w, []*opSample{sample(300, 100, 900, 1000)}, 1, 0)
	if rep.dominant != groupTransport || len(rep.problems) == 0 {
		t.Errorf("dominant = %s, problems = %v; want transport and a failed check", rep.dominant, rep.problems)
	}
}

// The block rule: a window's ops are cut into at most five blocks, each
// large enough for the percentile it must support.
func TestBlockBounds(t *testing.T) {
	if got := samplesFor(50); got != 20 {
		t.Errorf("samplesFor(50) = %d, want 20", got)
	}
	if got := samplesFor(90); got != 100 {
		t.Errorf("samplesFor(90) = %d, want 100", got)
	}
	for _, c := range []struct {
		n, minPer int
		want      []int
	}{
		{130, 20, []int{0, 26, 52, 78, 104, 130}}, // fig_ni: five p50 blocks
		{130, 100, []int{0, 130}},                 // ... and one p90 block
		{296, 100, []int{0, 148, 296}},            // stream_scan p90: two blocks
		{5000, 100, []int{0, 1000, 2000, 3000, 4000, 5000}},
		{7, 20, []int{0, 7}}, // too few for one block: still one block
	} {
		got := blockBounds(c.n, c.minPer)
		if len(got) != len(c.want) {
			t.Errorf("blockBounds(%d, %d) = %v, want %v", c.n, c.minPer, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("blockBounds(%d, %d) = %v, want %v", c.n, c.minPer, got, c.want)
				break
			}
		}
	}
}

// A window in which the host slowed three blocks of five by 1.6x reports
// the speed of the two it left alone, on latency and on throughput.
func TestBlockStatIgnoresDisturbedBlocks(t *testing.T) {
	var w window
	var clock float64
	for i := 0; i < 200; i++ {
		lat := 10.0 + float64(i%5) // ms; median 12 within any block
		if blk := i / 40; blk == 0 || blk == 2 || blk == 3 {
			lat *= 1.6
		}
		clock += lat / 1e3
		w.latMs = append(w.latMs, lat)
		w.firstMs = append(w.firstMs, lat/2)
		w.doneS = append(w.doneS, clock)
		w.opRows = append(w.opRows, 3)
	}
	if got := w.p50Ms(); math.Abs(got-12) > 1e-9 {
		t.Errorf("p50Ms = %g, want 12 (the undisturbed blocks' median)", got)
	}
	ops := w.blockStat(50, false, func(lo, hi int) float64 { return float64(hi-lo) / w.blockSeconds(lo, hi) })
	if want := 1e3 / 12; math.Abs(ops-want) > 1e-6 {
		t.Errorf("ops/s = %g, want %g", ops, want)
	}
	// The whole window's median would have been a disturbed value.
	if m := median(w.latMs); m <= 12 {
		t.Errorf("test is not testing anything: whole-window median %g", m)
	}
	if got := betterQuartile([]float64{5, 1, 3, 2, 4}, true); got != 2 {
		t.Errorf("betterQuartile lower = %g, want 2", got)
	}
	if got := betterQuartile([]float64{5, 1, 3, 2, 4}, false); got != 4 {
		t.Errorf("betterQuartile higher = %g, want 4", got)
	}
}
