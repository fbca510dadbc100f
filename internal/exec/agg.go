package exec

import (
	"decorr/internal/qgm"
	"decorr/internal/sqltypes"
)

// aggAcc accumulates one aggregate over one group.
type aggAcc interface {
	// add feeds the evaluated argument (ignored value for COUNT(*)).
	add(v sqltypes.Value)
	// result returns the aggregate value; SQL semantics over empty input
	// (COUNT 0, others NULL).
	result() sqltypes.Value
}

func newAggAcc(a *qgm.Agg) aggAcc {
	var inner aggAcc
	switch a.Op {
	case qgm.AggCountStar:
		return &countStarAcc{} // DISTINCT is meaningless for COUNT(*)
	case qgm.AggCount:
		inner = &countAcc{}
	case qgm.AggSum:
		inner = &sumAcc{}
	case qgm.AggAvg:
		inner = &avgAcc{}
	case qgm.AggMin:
		inner = &minmaxAcc{min: true}
	case qgm.AggMax:
		inner = &minmaxAcc{}
	default:
		inner = &countAcc{}
	}
	if a.Distinct {
		return &distinctAcc{inner: inner, seen: map[string]bool{}}
	}
	return inner
}

type countStarAcc struct{ n int64 }

func (a *countStarAcc) add(sqltypes.Value)     { a.n++ }
func (a *countStarAcc) result() sqltypes.Value { return sqltypes.NewInt(a.n) }

type countAcc struct{ n int64 }

func (a *countAcc) add(v sqltypes.Value) {
	if !v.IsNull() {
		a.n++
	}
}
func (a *countAcc) result() sqltypes.Value { return sqltypes.NewInt(a.n) }

type sumAcc struct {
	seen    bool
	isFloat bool
	i       int64
	f       float64
}

func (a *sumAcc) add(v sqltypes.Value) {
	if v.IsNull() {
		return
	}
	switch v.K {
	case sqltypes.KindInt:
		if a.isFloat {
			a.f += float64(v.I)
		} else {
			a.i += v.I
		}
	case sqltypes.KindFloat:
		if !a.isFloat {
			a.isFloat = true
			a.f = float64(a.i)
		}
		a.f += v.F
	default:
		return
	}
	a.seen = true
}

func (a *sumAcc) result() sqltypes.Value {
	if !a.seen {
		return sqltypes.Null
	}
	if a.isFloat {
		return sqltypes.NewFloat(a.f)
	}
	return sqltypes.NewInt(a.i)
}

type avgAcc struct {
	n   int64
	sum float64
}

func (a *avgAcc) add(v sqltypes.Value) {
	if v.IsNull() || !v.IsNumeric() {
		return
	}
	a.n++
	a.sum += v.AsFloat()
}

func (a *avgAcc) result() sqltypes.Value {
	if a.n == 0 {
		return sqltypes.Null
	}
	return sqltypes.NewFloat(a.sum / float64(a.n))
}

type minmaxAcc struct {
	min  bool
	best sqltypes.Value // zero Value is NULL == "none yet"
}

func (a *minmaxAcc) add(v sqltypes.Value) {
	if v.IsNull() {
		return
	}
	if a.best.IsNull() {
		a.best = v
		return
	}
	c, ok := sqltypes.Compare(v, a.best)
	if !ok {
		return
	}
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
}

func (a *minmaxAcc) result() sqltypes.Value { return a.best }

// distinctAcc wraps another accumulator, feeding it each distinct non-NULL
// argument once.
type distinctAcc struct {
	inner aggAcc
	seen  map[string]bool
}

func (a *distinctAcc) add(v sqltypes.Value) {
	if v.IsNull() {
		return
	}
	k := sqltypes.Key([]sqltypes.Value{v})
	if a.seen[k] {
		return
	}
	a.seen[k] = true
	a.inner.add(v)
}

func (a *distinctAcc) result() sqltypes.Value { return a.inner.result() }
