package storage

import (
	"sort"

	"decorr/internal/colvec"
	"decorr/internal/sqltypes"
)

// histogramBuckets is the equi-depth bucket count; 32 gives ~3% resolution
// on range selectivities, plenty for join ordering.
const histogramBuckets = 32

// Histogram is an equi-depth histogram over one column's non-NULL values.
// It is the optimizer statistic behind range-predicate selectivity.
type Histogram struct {
	// Bounds holds bucket boundaries in non-decreasing order: bucket i
	// covers (Bounds[i], Bounds[i+1]]; len(Bounds) == buckets+1.
	Bounds []sqltypes.Value
	// Total is the table cardinality at build time, NonNull the number of
	// histogrammed values.
	Total, NonNull int
}

// Histogram returns the (lazily built, cached) histogram for the column,
// or nil for empty columns.
func (t *Table) Histogram(col int) *Histogram {
	if col < 0 || col >= len(t.Def.Columns) {
		return nil
	}
	t.statMu.Lock()
	defer t.statMu.Unlock()
	if h, ok := t.histCache[col]; ok && h.total == t.n {
		return h.h
	}
	h := buildHistogram(&t.cols[col])
	if t.histCache == nil {
		t.histCache = map[int]histEntry{}
	}
	t.histCache[col] = histEntry{total: t.n, h: h}
	return h
}

type histEntry struct {
	total int
	h     *Histogram
}

func buildHistogram(v *colvec.Vec) *Histogram {
	vals := make([]sqltypes.Value, 0, v.Len())
	for i := range v.Len() {
		if !v.IsNull(i) {
			vals = append(vals, v.Value(i))
		}
	}
	if len(vals) == 0 {
		return nil
	}
	sort.Slice(vals, func(i, j int) bool {
		return sqltypes.OrderCompare(vals[i], vals[j]) < 0
	})
	b := histogramBuckets
	if b > len(vals) {
		b = len(vals)
	}
	h := &Histogram{Total: v.Len(), NonNull: len(vals)}
	for i := 0; i <= b; i++ {
		idx := i * (len(vals) - 1) / b
		h.Bounds = append(h.Bounds, vals[idx])
	}
	return h
}

// FracBelow estimates the fraction of the table's rows whose column value
// compares less than v (or less-or-equal when inclusive). NULLs count as
// not qualifying.
func (h *Histogram) FracBelow(v sqltypes.Value, inclusive bool) float64 {
	if h == nil || h.NonNull == 0 || v.IsNull() {
		return 0
	}
	buckets := len(h.Bounds) - 1
	lo := 0
	for lo < len(h.Bounds) {
		c := sqltypes.OrderCompare(h.Bounds[lo], v)
		if c > 0 || (!inclusive && c == 0) {
			break
		}
		lo++
	}
	// lo boundaries are ≤ v (or < v when exclusive): lo-1 full buckets
	// qualify, plus an assumed half of the bucket v falls into.
	var frac float64
	switch {
	case lo == 0:
		frac = 0
	case lo >= len(h.Bounds):
		frac = 1
	default:
		frac = (float64(lo-1) + 0.5) / float64(buckets)
	}
	return frac * float64(h.NonNull) / float64(h.Total)
}
