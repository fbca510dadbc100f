// Package sqltypes implements the SQL value domain used throughout the
// engine: typed datums, NULL, three-valued logic, null-aware comparison,
// arithmetic with numeric promotion, and hashable encodings for joins and
// grouping.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

const (
	// KindNull is the SQL NULL marker; it carries no payload.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float (SQL DOUBLE/DECIMAL stand-in).
	KindFloat
	// KindString is a variable-length character string.
	KindString
	// KindBool is a boolean (used for predicate results, not storage).
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single SQL datum. The zero Value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Null is the SQL NULL value.
var Null = Value{K: KindNull}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{K: KindFloat, F: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value { return Value{K: KindBool, B: b} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// IsNumeric reports whether v is an integer or float.
func (v Value) IsNumeric() bool { return v.K == KindInt || v.K == KindFloat }

// AsFloat converts a numeric value to float64. It panics on non-numerics;
// callers must check IsNumeric (or rely on expression type checking).
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	}
	panic(fmt.Sprintf("sqltypes: AsFloat on %s", v.K))
}

// String renders the value the way the CLI prints result rows.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Tri is a three-valued logic truth value.
type Tri int8

const (
	// False is definitely false.
	False Tri = -1
	// Unknown is the SQL UNKNOWN truth value (NULL comparison result).
	Unknown Tri = 0
	// True is definitely true.
	True Tri = 1
)

// String returns FALSE/UNKNOWN/TRUE.
func (t Tri) String() string {
	switch t {
	case False:
		return "FALSE"
	case True:
		return "TRUE"
	}
	return "UNKNOWN"
}

// TriOf converts a Go bool to a Tri.
func TriOf(b bool) Tri {
	if b {
		return True
	}
	return False
}

// And is three-valued conjunction.
func (t Tri) And(o Tri) Tri {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or is three-valued disjunction.
func (t Tri) Or(o Tri) Tri {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// Not is three-valued negation.
func (t Tri) Not() Tri { return -t }

// Compare returns the ordering of a and b (-1, 0, +1) and ok=false when the
// comparison is NULL-valued (either side NULL) or the values are not
// comparable. Numeric kinds compare cross-kind with promotion to float.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.K == KindInt && b.K == KindInt {
			switch {
			case a.I < b.I:
				return -1, true
			case a.I > b.I:
				return 1, true
			}
			return 0, true
		}
		// Mixed int/float: compare exactly. Promoting the integer to
		// float64 would round values beyond 2^53 and disagree with the
		// exact AppendKey encoding (Identical must match Key equality).
		if a.K == KindInt {
			c, ok := compareIntFloat(a.I, b.F)
			return c, ok
		}
		if b.K == KindInt {
			c, ok := compareIntFloat(b.I, a.F)
			return -c, ok
		}
		af, bf := a.F, b.F
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		}
		if af != bf { // NaN on either side: incomparable
			return 0, false
		}
		return 0, true
	}
	if a.K != b.K {
		return 0, false
	}
	switch a.K {
	case KindString:
		return strings.Compare(a.S, b.S), true
	case KindBool:
		ai, bi := 0, 0
		if a.B {
			ai = 1
		}
		if b.B {
			bi = 1
		}
		return ai - bi, true
	}
	return 0, false
}

// compareIntFloat orders an int64 against a float64 without converting the
// integer to float (which rounds beyond 2^53). ok=false only for NaN.
func compareIntFloat(i int64, f float64) (int, bool) {
	if math.IsNaN(f) {
		return 0, false
	}
	// Every int64 is < 2^63 ≤ f here; the negative bound -2^63 is itself
	// exactly representable, so values below it are strictly smaller.
	if f >= 9223372036854775808.0 { // 2^63
		return -1, true
	}
	if f < -9223372036854775808.0 { // < -2^63
		return 1, true
	}
	t := int64(f) // exact truncation toward zero: |f| < 2^63
	switch {
	case i < t:
		return -1, true
	case i > t:
		return 1, true
	}
	// Integer parts agree; the fraction decides.
	frac := f - float64(t)
	switch {
	case frac > 0:
		return -1, true
	case frac < 0:
		return 1, true
	}
	return 0, true
}

// Equal reports SQL equality as a Tri (Unknown when either side is NULL).
func Equal(a, b Value) Tri {
	c, ok := Compare(a, b)
	if !ok {
		return Unknown
	}
	return TriOf(c == 0)
}

// Identical reports whether two values are the same datum, treating NULL as
// identical to NULL. This is the grouping / DISTINCT notion of equality,
// not the WHERE-clause notion.
func Identical(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	c, ok := Compare(a, b)
	return ok && c == 0
}

// OrderCompare is a total order over all values for sorting and histogram
// construction: NULL sorts first, comparable values by Compare, and
// incomparable cross-kind values by kind.
func OrderCompare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if c, ok := Compare(a, b); ok {
		return c
	}
	return int(a.K) - int(b.K)
}

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

const (
	// OpAdd is addition.
	OpAdd ArithOp = iota
	// OpSub is subtraction.
	OpSub
	// OpMul is multiplication.
	OpMul
	// OpDiv is division (always float; SQL integer division is not modeled).
	OpDiv
)

// String returns the operator symbol.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// Arith applies op with SQL NULL propagation and numeric promotion.
// Non-numeric operands yield an error.
func Arith(op ArithOp, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("sqltypes: %s applied to %s and %s", op, a.K, b.K)
	}
	if a.K == KindInt && b.K == KindInt && op != OpDiv {
		switch op {
		case OpAdd:
			return NewInt(a.I + b.I), nil
		case OpSub:
			return NewInt(a.I - b.I), nil
		case OpMul:
			return NewInt(a.I * b.I), nil
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch op {
	case OpAdd:
		return NewFloat(af + bf), nil
	case OpSub:
		return NewFloat(af - bf), nil
	case OpMul:
		return NewFloat(af * bf), nil
	case OpDiv:
		if bf == 0 {
			return Null, fmt.Errorf("sqltypes: division by zero")
		}
		return NewFloat(af / bf), nil
	}
	return Null, fmt.Errorf("sqltypes: unknown arith op %d", op)
}

// Coalesce returns the first non-NULL argument, or NULL if all are NULL.
func Coalesce(vs ...Value) Value {
	for _, v := range vs {
		if !v.IsNull() {
			return v
		}
	}
	return Null
}

// AppendKey appends the canonical, injective encoding of each value to
// dst in order and returns the extended slice. Two value sequences produce
// the same encoding iff they are elementwise Identical. Numeric kinds
// normalize so that INT 3 and DOUBLE 3.0 encode identically (they compare
// equal). Reusing dst across calls is the hot-path idiom: the executor's
// join, grouping, and DISTINCT keys encode into a scratch buffer and probe
// maps via string(buf) without allocating.
func AppendKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = appendValueKey(dst, v)
	}
	return dst
}

func appendValueKey(dst []byte, v Value) []byte {
	switch v.K {
	case KindNull:
		return append(dst, 'n')
	case KindInt:
		// Encode integers through the float path only when the value is
		// exactly representable; otherwise keep full integer precision.
		f := float64(v.I)
		if int64(f) == v.I {
			return appendFloatKey(dst, f)
		}
		dst = append(dst, 'i')
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return appendFloatKey(dst, v.F)
	case KindString:
		dst = append(dst, 's')
		dst = strconv.AppendInt(dst, int64(len(v.S)), 10)
		dst = append(dst, ':')
		return append(dst, v.S...)
	case KindBool:
		if v.B {
			return append(dst, 'T')
		}
		return append(dst, 'F')
	}
	return append(dst, '?')
}

func appendFloatKey(dst []byte, f float64) []byte {
	dst = append(dst, 'f')
	bits := math.Float64bits(f)
	if f == 0 {
		bits = 0 // normalize -0.0 and +0.0
	}
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(bits>>(8*uint(i))))
	}
	return dst
}

// IntKey converts v into the integer key space: an integer is itself, and
// a float is the integer it equals exactly (-0.0 is 0; fractions, NaN, ±Inf
// and values outside int64 have none). ok=false means v can never equal an
// integer key — NULL, strings and booleans included. It agrees with
// AppendKey: for an integer k, IntKey(v) = (k, true) iff v and NewInt(k)
// encode identically.
func IntKey(v Value) (k int64, ok bool) {
	switch v.K {
	case KindInt:
		return v.I, true
	case KindFloat:
		f := v.F
		if f >= -9223372036854775808 && f < 9223372036854775808 {
			if i := int64(f); float64(i) == f {
				return i, true
			}
		}
	}
	return 0, false
}

// Key returns the canonical encoding of a tuple of values, suitable as a
// map key for hash joins, grouping, and DISTINCT.
func Key(vs []Value) string {
	return string(AppendKey(nil, vs...))
}

// Like evaluates the SQL LIKE predicate with % and _ wildcards. NULL
// operands yield Unknown.
func Like(s, pattern Value) Tri {
	if s.IsNull() || pattern.IsNull() {
		return Unknown
	}
	if s.K != KindString || pattern.K != KindString {
		return False
	}
	return TriOf(likeMatch(s.S, pattern.S))
}

func likeMatch(s, p string) bool {
	// Standard two-pointer wildcard match; % matches any run, _ one rune.
	var si, pi int
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, match = pi, si
			pi++
		case star != -1:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
