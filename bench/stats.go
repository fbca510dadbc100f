package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a latency report may quote.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a quoted percentile.
const minBeyond = 10

// tailPercentile returns the highest candidate percentile that still has
// at least minBeyond of n samples beyond it, or 0 when not even the median
// qualifies (fewer than 20 samples).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		// 1e-9: 100-99.9 is not exact in floating point.
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// samplesFor is the fewest samples that let percentile p be quoted.
func samplesFor(p float64) int { return int(math.Ceil(minBeyond*100/(100-p) - 1e-9)) }

// maxBlocks is the most blocks a measured window is cut into: five blocks
// of a 20 s window are 4 s each, long enough to hold several of the server's
// garbage collections, so what collection costs stays inside every block.
const maxBlocks = 5

// blockBounds cuts n consecutive ops into as many blocks of near-equal op
// count as leave each block at least minPer ops, at most maxBlocks and at
// least one, and returns the k+1 boundaries: block i is ops [b[i], b[i+1]).
func blockBounds(n, minPer int) []int {
	k := max(1, min(maxBlocks, n/minPer))
	b := make([]int, k+1)
	for i := range b {
		b[i] = i * n / k
	}
	return b
}

// betterQuartile reduces one statistic computed per block to the run's
// value: the quartile of the block values on the better side (the first
// for a lower-is-better metric, the third for a higher-is-better one).
//
// Why not the whole window's statistic: the reference host slows every
// time-based metric by up to 1.6x for seconds to minutes at a time while
// the program and its load are unchanged (README, "Open findings"). The
// disturbance only ever slows, so the blocks it missed are the ones that
// measure the program; the better quartile of five blocks needs two of
// them, where a median would need three and the pooled window all five.
func betterQuartile(vals []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return percentile(sortedCopyF(vals), 25)
	}
	return percentile(sortedCopyF(vals), 75)
}

// percentile returns the p-th percentile of sorted xs by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopyF(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopyF(xs), 50) }

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method): the check
// the acceptance driver applies to ten runs of one metric.
func quartileSpread(xs []float64) float64 {
	s := sortedCopyF(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		j = max(1, min(j, n-1))
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / percentile(s, 50)
}

// opTimer times one closed-loop operation made of several statements: the
// op's latency runs from the first statement's start to the last one's
// end, and the first-row time is the sum over statements of (statement
// start -> first row available).
type opTimer struct {
	now       func() time.Time
	start     time.Time
	stmtStart time.Time
	end       time.Time
	firstRow  time.Duration
	sawRow    bool
}

func newOpTimer(now func() time.Time) *opTimer { return &opTimer{now: now} }

// beginStmt marks a statement about to be sent.
func (t *opTimer) beginStmt() {
	t.stmtStart = t.now()
	if t.start.IsZero() {
		t.start = t.stmtStart
	}
	t.sawRow = false
}

// row marks the first Rows.Next of the current statement returning; later
// calls within the statement are ignored.
func (t *opTimer) row() {
	if !t.sawRow {
		t.sawRow = true
		t.firstRow += t.now().Sub(t.stmtStart)
	}
}

// endStmt marks the statement's rows drained and closed.
func (t *opTimer) endStmt() { t.end = t.now() }

func (t *opTimer) latency() time.Duration { return t.end.Sub(t.start) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
