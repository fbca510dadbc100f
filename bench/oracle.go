package main

import (
	"fmt"
	"math"
	"sort"

	"decorr/internal/engine"
	"decorr/internal/sqltypes"
	"decorr/internal/storage"
)

// keepRows is the largest result whose rows are kept for the tolerant
// comparison; larger results (stream_scan) are checked by count and exact
// fingerprint only, which is sound there because a scan does no float
// arithmetic.
const keepRows = 8192

// floatTol is the relative tolerance of the bag comparison: strategies may
// sum floats in different orders.
const floatTol = 1e-9

// expected is the oracle's answer for one call.
type expected struct {
	n    int
	fp   uint64        // order-independent exact fingerprint
	rows []storage.Row // kept when n <= keepRows
}

// fingerprint accumulates an order-independent exact hash of a bag of
// rows: the wrapping sum of a per-row word hash. It runs once per delivered
// row inside the timed op, so it mixes machine words, not encoded keys.
// Integral floats hash as integers, matching the engine's grouping
// equality (INT 3 and DOUBLE 3.0 agree).
type fingerprint struct {
	n   int
	sum uint64
	row uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (f *fingerprint) mix(x uint64) { f.row = (f.row ^ x) * fnvPrime }

func (f *fingerprint) mixInt(v int64) { f.mix(1); f.mix(uint64(v)) }

func (f *fingerprint) mixFloat(v float64) {
	if i := int64(v); float64(i) == v {
		f.mixInt(i)
		return
	}
	f.mix(2)
	f.mix(math.Float64bits(v))
}

func (f *fingerprint) mixString(s string) {
	f.mix(3)
	for i := 0; i < len(s); i++ {
		f.mix(uint64(s[i]))
	}
}

func (f *fingerprint) mixBool(b bool) {
	f.mix(4)
	if b {
		f.mix(1)
	}
}

// endRow folds the row hash into the bag. The xor-shift spreads the last
// multiply so that rows differing in one low bit do not cancel in the sum.
func (f *fingerprint) endRow() {
	f.sum += f.row ^ (f.row >> 29)
	f.row = fnvOffset
	f.n++
}

func (f *fingerprint) add(row []sqltypes.Value) {
	f.row = fnvOffset
	for _, v := range row {
		switch v.K {
		case sqltypes.KindInt:
			f.mixInt(v.I)
		case sqltypes.KindFloat:
			f.mixFloat(v.F)
		case sqltypes.KindString:
			f.mixString(v.S)
		case sqltypes.KindBool:
			f.mixBool(v.B)
		default:
			f.mix(0)
		}
	}
	f.endRow()
}

// newOracleEngine is the reference configuration: nested iteration as
// written, the row interpreter, one worker, no plan cache.
func newOracleEngine(db *storage.DB) *engine.Engine {
	e := engine.New(db)
	e.RowMode = true
	e.Workers = 1
	return e
}

// fillOracle computes want for every call of w under engine.NI. Plans are
// prepared once per distinct oracle text, so plan_cold's 4096 calls cost
// 4096 small executions, not 4096 preparations.
func fillOracle(e *engine.Engine, w *workload) error {
	plans := map[string]*engine.Prepared{}
	for i := range w.calls {
		c := &w.calls[i]
		sql, args := c.oracleSQL, c.oracleArgs
		if sql == "" {
			sql, args = w.texts[c.text], c.args
		}
		p := plans[sql]
		if p == nil {
			var err error
			if p, err = e.Prepare(sql, engine.NI); err != nil {
				return fmt.Errorf("oracle prepare: %w", err)
			}
			plans[sql] = p
		}
		rows, _, err := p.RunParams(intValues(args))
		if err != nil {
			return fmt.Errorf("oracle run: %w", err)
		}
		var f fingerprint
		for _, r := range rows {
			f.add(r)
		}
		c.want = expected{n: f.n, fp: f.sum}
		if f.n <= keepRows {
			c.want.rows = rows
		}
	}
	return nil
}

// observed is what the client saw for one call.
type observed struct {
	fp   fingerprint
	rows []storage.Row // kept when the expected result is small
}

// matches reports whether the observed bag equals the expected one: exact
// fingerprints first, then, for kept rows, a sorted pairwise comparison
// with the float tolerance.
func (w *expected) matches(got *observed) bool {
	if got.fp.n != w.n {
		return false
	}
	if got.fp.sum == w.fp {
		return true
	}
	if w.rows == nil || len(got.rows) != w.n {
		return false
	}
	a, b := sortedCopy(got.rows), sortedCopy(w.rows)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !closeEnough(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

func sortedCopy(rows []storage.Row) []storage.Row {
	out := append([]storage.Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if k >= len(out[j]) {
				return false
			}
			if c := sqltypes.OrderCompare(out[i][k], out[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

func closeEnough(a, b sqltypes.Value) bool {
	if sqltypes.Identical(a, b) {
		return true
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return false
	}
	x, y := a.AsFloat(), b.AsFloat()
	return math.Abs(x-y) <= floatTol*math.Max(math.Abs(x), math.Abs(y))
}
