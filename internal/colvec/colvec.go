// Package colvec implements typed column vectors: the columnar value
// representation of the vectorized executor. A Vec holds one column of a
// batch as a typed array (int64/float64/string/bool) plus a null bitmap,
// falling back to a boxed []Value only for mixed-kind columns. Vectors are
// immutable after construction; batch operators share them freely and
// express filtering through selection vectors (index lists) rather than
// copying.
package colvec

import (
	"slices"

	"decorr/internal/sqltypes"
)

// Bitmap is a dense bit set marking NULL positions of a Vec. The nil
// Bitmap means "no nulls" and answers Get(i) == false for every i, so the
// common all-valid column costs one nil check per element.
type Bitmap []uint64

// NewBitmap returns an all-clear bitmap covering n positions.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Set marks position i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether position i is marked. A nil bitmap reports false.
func (b Bitmap) Get(i int) bool {
	if b == nil {
		return false
	}
	return b[i>>6]&(1<<(uint(i)&63)) != 0
}

// Any reports whether any position is marked.
func (b Bitmap) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Vec is one column of values. Exactly one representation is active:
//
//   - Mixed != nil: boxed values, used when a column holds more than one
//     non-NULL kind (rare — generated data and expression outputs are
//     almost always uniformly typed).
//   - otherwise K selects the typed array (Ints/Floats/Strs/Bools) with
//     Nulls marking NULL positions; K == KindNull means every value is
//     NULL and no array is allocated.
//
// Elements at NULL positions of a typed array hold the zero value of the
// type; readers must consult Nulls (or use Value/IsNull).
type Vec struct {
	K      sqltypes.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Nulls  Bitmap
	Mixed  []sqltypes.Value
	n      int
}

// Len returns the number of elements.
func (v *Vec) Len() int { return v.n }

// IsNull reports whether element i is SQL NULL.
func (v *Vec) IsNull(i int) bool {
	if v.Mixed != nil {
		return v.Mixed[i].IsNull()
	}
	if v.K == sqltypes.KindNull {
		return true
	}
	return v.Nulls.Get(i)
}

// HasNulls reports whether any element is NULL.
func (v *Vec) HasNulls() bool {
	if v.Mixed != nil {
		for i := range v.Mixed {
			if v.Mixed[i].IsNull() {
				return true
			}
		}
		return false
	}
	return v.K == sqltypes.KindNull || v.Nulls.Any()
}

// Value boxes element i. The returned Value shares the string payload.
func (v *Vec) Value(i int) sqltypes.Value {
	if v.Mixed != nil {
		return v.Mixed[i]
	}
	if v.K == sqltypes.KindNull || v.Nulls.Get(i) {
		return sqltypes.Null
	}
	switch v.K {
	case sqltypes.KindInt:
		return sqltypes.NewInt(v.Ints[i])
	case sqltypes.KindFloat:
		return sqltypes.NewFloat(v.Floats[i])
	case sqltypes.KindString:
		return sqltypes.NewString(v.Strs[i])
	case sqltypes.KindBool:
		return sqltypes.NewBool(v.Bools[i])
	}
	return sqltypes.Null
}

// AppendKeyAt appends the canonical key encoding of element i to dst —
// identical bytes to sqltypes.AppendKey of the boxed value.
func (v *Vec) AppendKeyAt(dst []byte, i int) []byte {
	return sqltypes.AppendKey(dst, v.Value(i))
}

// FromColumn builds a Vec from the col'th value of each row. It detects a
// uniform kind in one pass and falls back to the boxed representation for
// mixed-kind columns. The generic signature admits any row type defined
// as []sqltypes.Value (e.g. storage.Row) without copying.
func FromColumn[R ~[]sqltypes.Value](rows []R, col int) Vec {
	n := len(rows)
	kind := sqltypes.KindNull
	mixed := false
	hasNull := false
	for i := range rows {
		k := rows[i][col].K
		if k == sqltypes.KindNull {
			hasNull = true
			continue
		}
		if kind == sqltypes.KindNull {
			kind = k
		} else if kind != k {
			mixed = true
			break
		}
	}
	if mixed {
		out := Vec{Mixed: make([]sqltypes.Value, n), n: n}
		for i := range rows {
			out.Mixed[i] = rows[i][col]
		}
		return out
	}
	out := Vec{K: kind, n: n}
	if kind == sqltypes.KindNull {
		return out
	}
	if hasNull {
		out.Nulls = NewBitmap(n)
	}
	switch kind {
	case sqltypes.KindInt:
		out.Ints = make([]int64, n)
	case sqltypes.KindFloat:
		out.Floats = make([]float64, n)
	case sqltypes.KindString:
		out.Strs = make([]string, n)
	case sqltypes.KindBool:
		out.Bools = make([]bool, n)
	}
	for i := range rows {
		x := rows[i][col]
		if x.K == sqltypes.KindNull {
			out.Nulls.Set(i)
			continue
		}
		switch kind {
		case sqltypes.KindInt:
			out.Ints[i] = x.I
		case sqltypes.KindFloat:
			out.Floats[i] = x.F
		case sqltypes.KindString:
			out.Strs[i] = x.S
		case sqltypes.KindBool:
			out.Bools[i] = x.B
		}
	}
	return out
}

// Append adds x after v's last element. Afterwards v is exactly the Vec
// FromColumn builds over all of its values: it takes the kind of its first
// non-NULL value and turns Mixed at the first non-NULL value of another
// kind. Append writes typed elements past v's length or into fresh arrays,
// so a copy of v taken before the call (Clip) never sees them; a NULL,
// though, sets its bit in place, so the bitmap's last word may be shared
// with such a copy. An appender that hands out Clip copies clones Nulls
// before it appends again.
func (v *Vec) Append(x sqltypes.Value) {
	i := v.n
	v.n++
	switch {
	case v.Mixed != nil:
		v.Mixed = append(v.Mixed, x)
		return
	case x.K == sqltypes.KindNull:
		if v.K == sqltypes.KindNull {
			return // every value so far is NULL: nothing is stored
		}
		v.appendTyped(x)
		v.Nulls.Set(i)
		return
	case v.K == sqltypes.KindNull:
		// The first non-NULL value fixes the kind; earlier values are NULLs.
		*v = Vec{K: x.K, n: i}
		switch x.K {
		case sqltypes.KindInt:
			v.Ints = make([]int64, i, i+1)
		case sqltypes.KindFloat:
			v.Floats = make([]float64, i, i+1)
		case sqltypes.KindString:
			v.Strs = make([]string, i, i+1)
		case sqltypes.KindBool:
			v.Bools = make([]bool, i, i+1)
		}
		if i > 0 {
			v.Nulls = NewBitmap(i)
			for j := range i {
				v.Nulls.Set(j)
			}
		}
		v.n++
	case x.K != v.K:
		mixed := make([]sqltypes.Value, i, i+1)
		for j := range mixed {
			mixed[j] = v.Value(j)
		}
		*v = Vec{Mixed: append(mixed, x), n: i + 1}
		return
	}
	v.appendTyped(x)
}

// appendTyped appends x's payload (the zero value for NULL) to v's typed
// array and grows the null bitmap, if v has one, to cover it.
func (v *Vec) appendTyped(x sqltypes.Value) {
	switch v.K {
	case sqltypes.KindInt:
		v.Ints = append(v.Ints, x.I)
	case sqltypes.KindFloat:
		v.Floats = append(v.Floats, x.F)
	case sqltypes.KindString:
		v.Strs = append(v.Strs, x.S)
	case sqltypes.KindBool:
		v.Bools = append(v.Bools, x.B)
	}
	if x.K == sqltypes.KindNull && v.Nulls == nil {
		v.Nulls = NewBitmap(v.n)
	}
	if v.Nulls != nil && len(v.Nulls) < (v.n+63)/64 {
		v.Nulls = append(v.Nulls, 0)
	}
}

// Clip returns v with every array capped at its length: a later Append to
// v cannot write into the copy's typed arrays (see Append for the bitmap).
func (v *Vec) Clip() Vec {
	out := *v
	out.Ints = slices.Clip(out.Ints)
	out.Floats = slices.Clip(out.Floats)
	out.Strs = slices.Clip(out.Strs)
	out.Bools = slices.Clip(out.Bools)
	out.Nulls = slices.Clip(out.Nulls)
	out.Mixed = slices.Clip(out.Mixed)
	return out
}

// FromValues builds a Vec from a dense value slice, detecting a uniform
// kind the same way FromColumn does.
func FromValues(vals []sqltypes.Value) Vec {
	n := len(vals)
	kind := sqltypes.KindNull
	for i := range vals {
		k := vals[i].K
		if k == sqltypes.KindNull {
			continue
		}
		if kind == sqltypes.KindNull {
			kind = k
		} else if kind != k {
			return Vec{Mixed: append([]sqltypes.Value(nil), vals...), n: n}
		}
	}
	out := Vec{K: kind, n: n}
	if kind == sqltypes.KindNull {
		return out
	}
	switch kind {
	case sqltypes.KindInt:
		out.Ints = make([]int64, n)
	case sqltypes.KindFloat:
		out.Floats = make([]float64, n)
	case sqltypes.KindString:
		out.Strs = make([]string, n)
	case sqltypes.KindBool:
		out.Bools = make([]bool, n)
	}
	for i := range vals {
		x := vals[i]
		if x.K == sqltypes.KindNull {
			if out.Nulls == nil {
				out.Nulls = NewBitmap(n)
			}
			out.Nulls.Set(i)
			continue
		}
		switch kind {
		case sqltypes.KindInt:
			out.Ints[i] = x.I
		case sqltypes.KindFloat:
			out.Floats[i] = x.F
		case sqltypes.KindString:
			out.Strs[i] = x.S
		case sqltypes.KindBool:
			out.Bools[i] = x.B
		}
	}
	return out
}

// Broadcast builds a Vec of n copies of v — outer (correlated) column
// references resolve to one value per batch and broadcast into the
// kernels.
func Broadcast(v sqltypes.Value, n int) Vec {
	out := Vec{K: v.K, n: n}
	switch v.K {
	case sqltypes.KindNull:
	case sqltypes.KindInt:
		out.Ints = make([]int64, n)
		for i := range out.Ints {
			out.Ints[i] = v.I
		}
	case sqltypes.KindFloat:
		out.Floats = make([]float64, n)
		for i := range out.Floats {
			out.Floats[i] = v.F
		}
	case sqltypes.KindString:
		out.Strs = make([]string, n)
		for i := range out.Strs {
			out.Strs[i] = v.S
		}
	case sqltypes.KindBool:
		out.Bools = make([]bool, n)
		for i := range out.Bools {
			out.Bools[i] = v.B
		}
	}
	return out
}

// FromInts builds an int64 Vec over the given array (no copy).
func FromInts(xs []int64) Vec { return Vec{K: sqltypes.KindInt, Ints: xs, n: len(xs)} }

// FromFloats builds a float64 Vec over the given array (no copy).
func FromFloats(xs []float64) Vec { return Vec{K: sqltypes.KindFloat, Floats: xs, n: len(xs)} }

// FromMixed builds a boxed Vec over the given values (no copy).
func FromMixed(vals []sqltypes.Value) Vec { return Vec{Mixed: vals, n: len(vals)} }

// Gather returns a dense Vec holding v's elements at the given physical
// indices, in order, preserving the typed representation. A contiguous
// ascending index range — the common case for scan-order selection
// chunks — returns a zero-copy view sharing v's arrays (vectors are
// immutable, so views are safe); the null bitmap cannot be re-based, so
// vectors with nulls always copy.
func (v *Vec) Gather(idx []int32) Vec {
	n := len(idx)
	if n > 0 && v.Nulls == nil {
		base := idx[0]
		contig := true
		for k := 1; k < n; k++ {
			if idx[k] != base+int32(k) {
				contig = false
				break
			}
		}
		if contig {
			lo, hi := int(base), int(base)+n
			out := Vec{K: v.K, n: n}
			switch {
			case v.Mixed != nil:
				out = Vec{Mixed: v.Mixed[lo:hi], n: n}
			case v.K == sqltypes.KindInt:
				out.Ints = v.Ints[lo:hi]
			case v.K == sqltypes.KindFloat:
				out.Floats = v.Floats[lo:hi]
			case v.K == sqltypes.KindString:
				out.Strs = v.Strs[lo:hi]
			case v.K == sqltypes.KindBool:
				out.Bools = v.Bools[lo:hi]
			}
			return out
		}
	}
	if v.Mixed != nil {
		out := Vec{Mixed: make([]sqltypes.Value, n), n: n}
		for k, i := range idx {
			out.Mixed[k] = v.Mixed[i]
		}
		return out
	}
	out := Vec{K: v.K, n: n}
	if v.K == sqltypes.KindNull {
		return out
	}
	if v.Nulls != nil {
		out.Nulls = NewBitmap(n)
		for k, i := range idx {
			if v.Nulls.Get(int(i)) {
				out.Nulls.Set(k)
			}
		}
	}
	switch v.K {
	case sqltypes.KindInt:
		out.Ints = make([]int64, n)
		for k, i := range idx {
			out.Ints[k] = v.Ints[i]
		}
	case sqltypes.KindFloat:
		out.Floats = make([]float64, n)
		for k, i := range idx {
			out.Floats[k] = v.Floats[i]
		}
	case sqltypes.KindString:
		out.Strs = make([]string, n)
		for k, i := range idx {
			out.Strs[k] = v.Strs[i]
		}
	case sqltypes.KindBool:
		out.Bools = make([]bool, n)
		for k, i := range idx {
			out.Bools[k] = v.Bools[i]
		}
	}
	return out
}

// GatherVia is Gather through an optional second-level index map: it
// returns the values at m[idx[k]] (a nil map is the identity) without
// materializing the composed index list. This is the read path for
// late-materialized join output, where a batch's tuple indices reach a
// quantifier's shared base vectors through a per-quantifier row map.
func (v *Vec) GatherVia(idx []int32, m []int32) Vec {
	if m == nil {
		return v.Gather(idx)
	}
	n := len(idx)
	if v.Mixed != nil {
		out := Vec{Mixed: make([]sqltypes.Value, n), n: n}
		for k, i := range idx {
			out.Mixed[k] = v.Mixed[m[i]]
		}
		return out
	}
	out := Vec{K: v.K, n: n}
	if v.K == sqltypes.KindNull {
		return out
	}
	if v.Nulls != nil {
		out.Nulls = NewBitmap(n)
		for k, i := range idx {
			if v.Nulls.Get(int(m[i])) {
				out.Nulls.Set(k)
			}
		}
	}
	switch v.K {
	case sqltypes.KindInt:
		out.Ints = make([]int64, n)
		for k, i := range idx {
			out.Ints[k] = v.Ints[m[i]]
		}
	case sqltypes.KindFloat:
		out.Floats = make([]float64, n)
		for k, i := range idx {
			out.Floats[k] = v.Floats[m[i]]
		}
	case sqltypes.KindString:
		out.Strs = make([]string, n)
		for k, i := range idx {
			out.Strs[k] = v.Strs[m[i]]
		}
	case sqltypes.KindBool:
		out.Bools = make([]bool, n)
		for k, i := range idx {
			out.Bools[k] = v.Bools[m[i]]
		}
	}
	return out
}
