package qgm

// Batched correlation signatures. The runtime subquery-batching path
// (internal/exec) evaluates one correlated subtree set-at-a-time for a
// whole batch of outer bindings instead of once per outer tuple — the
// batched-bindings evaluation of Guravannavar & Sudarshan, applied at
// runtime rather than by rewrite. That is only sound when the correlation
// enters the subtree exclusively through root-level equality predicates:
// then the subtree can run once with those predicates stripped and be hash
// joined to the synthesized bindings relation on the stripped equalities —
// through the same build (exec.rowHash) and the same splitter (SplitEq) as
// every other join.

// BatchSignature describes how a correlated BoxSelect subtree can be
// evaluated once for many outer bindings. Outer[i] = Inner[i] are the
// stripped correlated equalities: Outer[i] is a function of the varying
// (outer) quantifiers only, Inner[i] of the subtree's own quantifiers
// (plus run-constant ancestors). Key equality is the canonical
// sqltypes.AppendKey grouping notion — the same one every hash join in
// the executor already uses for OpEq predicates — and a NULL on either
// side never matches, matching the stripped predicate's UNKNOWN.
type BatchSignature struct {
	// Outer are the probe-side key expressions, evaluated per outer
	// binding.
	Outer []Expr
	// Inner are the partition-side key expressions, evaluated per subtree
	// row.
	Inner []Expr
	// Skip identifies (by pointer identity) the root predicates the
	// batched execution must not evaluate: their filtering is re-applied
	// by the partition/probe step.
	Skip map[Expr]bool
}

// ExtractBatchSignature decides whether subtree b, correlated to the
// quantifiers in varying, fits the batchable shape, and if so returns its
// signature. The conditions, each of which otherwise changes semantics:
//
//   - b is a plain SELECT box without DISTINCT: dedup is defined over one
//     binding's rows, not over the whole batch, so DISTINCT roots decline.
//   - Every root predicate that mentions a varying quantifier is a
//     conjunct of the form outerExpr = innerExpr, with the varying
//     references confined to one side and none of the subtree's own
//     quantifiers on it; and no such predicate also ties a subquery-kind
//     quantifier of b (stripping it would detach the subquery's binding).
//   - No other expression slot anywhere in the subtree — root outputs,
//     remaining root predicates, or anything in nested boxes — mentions a
//     varying quantifier. Correlation reaching a nested box (or the
//     output row itself) cannot be stripped at the root.
//
// Callers that hold a subtree failing these conditions fall back to
// per-distinct-binding evaluation, which is always sound.
func ExtractBatchSignature(b *Box, varying map[*Quantifier]bool) (*BatchSignature, bool) {
	if b.Kind != BoxSelect || b.Distinct || len(varying) == 0 {
		return nil, false
	}
	inside := boxSet(Boxes(b))
	sig := &BatchSignature{Skip: map[Expr]bool{}}
	for _, p := range b.Preds {
		qs := QuantSet(p)
		hasVarying := false
		for q := range qs {
			if varying[q] {
				hasVarying = true
				break
			}
		}
		if !hasVarying {
			continue
		}
		for q := range qs {
			if q.Kind.IsSubquery() {
				return nil, false
			}
		}
		outer, inner, ok := splitBatchEq(p, varying, inside)
		if !ok {
			return nil, false
		}
		sig.Outer = append(sig.Outer, outer)
		sig.Inner = append(sig.Inner, inner)
		sig.Skip[p] = true
	}
	if len(sig.Outer) == 0 {
		// The correlation never surfaces in a root predicate: it lives in
		// a nested box or in the outputs, where it cannot be stripped.
		return nil, false
	}
	for _, box := range Boxes(b) {
		for _, slot := range batchCheckedSlots(box, b, sig) {
			for _, r := range Refs(slot) {
				if varying[r.Q] {
					return nil, false
				}
			}
		}
	}
	return sig, true
}

// batchCheckedSlots lists the expression slots of box that must be free of
// varying references: everything, except the root predicates the signature
// strips (matched by identity, and only in the predicate slot — a stripped
// predicate expression appearing as an output column would still disqualify
// the subtree).
func batchCheckedSlots(box, root *Box, sig *BatchSignature) []Expr {
	var slots []Expr
	for _, p := range box.Preds {
		if box == root && sig.Skip[p] {
			continue
		}
		slots = append(slots, p)
	}
	for _, c := range box.Cols {
		if c.Expr != nil {
			slots = append(slots, c.Expr)
		}
	}
	slots = append(slots, box.GroupBy...)
	return slots
}

// splitBatchEq decomposes p as outerSide = innerSide: the outer side
// references at least one varying quantifier and nothing inside the
// subtree; the inner side references no varying quantifier. References to
// run-constant ancestors (neither varying nor inside) are allowed on both
// sides — they evaluate identically under every binding. A null-safe
// equality is not split: the partition drops NULL bindings.
func splitBatchEq(p Expr, varying map[*Quantifier]bool, inside map[*Box]bool) (outer, inner Expr, ok bool) {
	side := func(e Expr) (hasVarying, hasInside bool) {
		for q := range QuantSet(e) {
			if varying[q] {
				hasVarying = true
			}
			if inside[q.Owner] {
				hasInside = true
			}
		}
		return
	}
	outer, inner, nullSafe, ok := SplitEq(p,
		func(e Expr) bool { v, in := side(e); return v && !in },
		func(e Expr) bool { v, _ := side(e); return !v })
	return outer, inner, ok && !nullSafe
}
