package parallel

import (
	"math"

	"decorr/internal/exec"
	"decorr/internal/qgm"
	"decorr/internal/storage"
)

// PlanCost estimates the shared-nothing execution cost of an arbitrary QGM
// plan — the generalization of the §6 walk-through from the example query
// to any (possibly decorrelated) plan in this repository. It tracks, per
// intermediate relation, which source column it is hash-partitioned on,
// and charges:
//
//   - repartitioning: rows × (n-1)/n shipped when join or grouping keys
//     do not match the current partitioning;
//   - broadcasts: rows × (n-1) for non-equi joins and for probing
//     materialized subqueries;
//   - correlated subqueries (nested iteration): per binding, a broadcast
//     of the binding, n local fragments, and n-1 replies — the §6.1
//     pattern;
//   - fragments: n per parallel phase, plus n per correlated invocation;
//   - work: the single-node cost model's row operations.
//
// Cardinalities come from the executor's estimator over the actual
// database, so the model's relative comparisons (NI plan vs decorrelated
// plan) reflect real data sizes.
func PlanCost(db *storage.DB, g *qgm.Graph, cfg Config) Metrics {
	cfg = cfg.normalized()
	plan := exec.NewPlan(db, g, false)
	rowOps, _ := plan.EstimateWork(exec.ReuseNone, false)
	m := &Metrics{}
	w := &planWalker{db: db, plan: plan, cfg: cfg, m: m, seen: map[*qgm.Box]relInfo{}}
	w.walk(g.Root)
	m.Work = int64(rowOps)
	return *m
}

// relInfo describes a distributed intermediate relation.
type relInfo struct {
	card float64
	// key is the canonical id of the source column the relation is
	// hash-partitioned on ("" when partitioning is arbitrary/unknown).
	key string
}

type planWalker struct {
	db   *storage.DB
	plan *exec.Plan
	cfg  Config
	m    *Metrics
	seen map[*qgm.Box]relInfo
}

func (w *planWalker) n() float64 { return float64(w.cfg.Nodes) }

func (w *planWalker) phase() {
	w.m.Fragments += int64(w.cfg.Nodes)
	w.m.Phases++
}

// ship charges moving rows between nodes during a repartition (a 1/n
// fraction stays local).
func (w *planWalker) ship(rows float64) {
	moved := rows * (w.n() - 1) / w.n()
	w.m.Messages += int64(math.Ceil(moved))
	w.m.RowsShipped += int64(math.Ceil(moved))
}

// broadcast charges replicating rows to every other node.
func (w *planWalker) broadcast(rows float64) {
	moved := rows * (w.n() - 1)
	w.m.Messages += int64(math.Ceil(moved))
	w.m.RowsShipped += int64(math.Ceil(moved))
}

// keyOf resolves an expression to the canonical id of the base column it
// carries, chasing bare column references through projections; "" when the
// expression is not a plain carried column.
func keyOf(e qgm.Expr) string {
	r, ok := e.(*qgm.ColRef)
	if !ok {
		return ""
	}
	in := r.Q.Input
	if in.Kind == qgm.BoxBase {
		return boxColID(in, r.Col)
	}
	if r.Col < len(in.Cols) && in.Cols[r.Col].Expr != nil {
		return keyOf(in.Cols[r.Col].Expr)
	}
	// Union-like boxes carry positional columns; identify by box+ordinal.
	return boxColID(in, r.Col)
}

func boxColID(b *qgm.Box, col int) string {
	return string(rune('A'+b.ID%26)) + "#" + itoa(b.ID) + "." + itoa(col)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// walk computes the distributed cost of producing box b once.
func (w *planWalker) walk(b *qgm.Box) relInfo {
	if r, ok := w.seen[b]; ok {
		// Shared box: recomputation cost is already folded into Work via
		// the single-node model; distribution costs are charged once.
		return r
	}
	var r relInfo
	switch b.Kind {
	case qgm.BoxBase:
		w.phase() // parallel scan
		col := 0
		if len(b.Table.Keys) > 0 && len(b.Table.Keys[0]) > 0 {
			col = b.Table.Keys[0][0]
		}
		r = relInfo{card: w.plan.EstimateRows(b), key: boxColID(b, col)}
	case qgm.BoxSelect:
		r = w.walkSelect(b)
	case qgm.BoxGroup:
		r = w.walkGroup(b)
	case qgm.BoxUnion, qgm.BoxIntersect, qgm.BoxExcept:
		var cards float64
		for _, q := range b.Quants {
			child := w.walk(q.Input)
			cards += child.card
		}
		w.phase()
		if b.Distinct || b.Kind != qgm.BoxUnion {
			// Global dedup/set-matching needs co-location by full row.
			w.ship(cards)
		}
		r = relInfo{card: w.plan.EstimateRows(b)}
	case qgm.BoxLeftJoin:
		l := w.walk(b.Quants[0].Input)
		rr := w.walk(b.Quants[1].Input)
		w.phase()
		lk, rk := w.lojKeys(b)
		switch {
		case lk != "" && l.key == lk && rr.key == rk:
			// co-partitioned outer join, local
		case lk != "" && l.key == lk:
			w.ship(rr.card)
		case rk != "" && rr.key == rk:
			w.ship(l.card)
		default:
			w.ship(l.card + rr.card)
		}
		r = relInfo{card: w.plan.EstimateRows(b), key: lk}
	}
	w.seen[b] = r
	return r
}

// lojKeys returns the canonical keys of the first equality the executor's
// left outer join hashes on (left side, right side); "" when it hashes on
// none and meets every pair.
func (w *planWalker) lojKeys(b *qgm.Box) (string, string) {
	left, right, _, _ := qgm.LojKeys(b)
	return firstKeys(left, right)
}

func firstKeys(a, b []qgm.Expr) (string, string) {
	if len(a) == 0 {
		return "", ""
	}
	return keyOf(a[0]), keyOf(b[0])
}

func (w *planWalker) walkGroup(b *qgm.Box) relInfo {
	child := w.walk(b.Quants[0].Input)
	w.phase()
	if len(b.GroupBy) == 0 {
		// Global aggregate: local partials, one combining message per
		// node to the coordinator, result replicated back.
		w.m.Messages += 2 * int64(w.cfg.Nodes-1)
		w.m.RowsShipped += 2 * int64(w.cfg.Nodes-1)
		return relInfo{card: 1}
	}
	// Grouping is local when the input is partitioned on a grouping
	// column (§6.2: "the aggregation can therefore be performed locally").
	local := false
	var gkey string
	for _, ge := range b.GroupBy {
		if k := keyOf(ge); k != "" {
			if gkey == "" {
				gkey = k
			}
			if k == child.key {
				local = true
				gkey = k
			}
		}
	}
	if !local {
		w.ship(child.card)
	}
	return relInfo{card: w.plan.EstimateRows(b), key: gkey}
}

// walkSelect follows the executor's own join steps for b (exec.Steps): the
// order, which quantifiers re-evaluate per tuple, the keys each join
// hashes on and its estimated growth.
func (w *planWalker) walkSelect(b *qgm.Box) relInfo {
	cur := relInfo{card: 1}
	first := true
	for _, s := range w.plan.Steps(b) {
		q := s.Q
		switch {
		case s.Correlated:
			// Nested iteration in shared-nothing form (§6.1): each
			// binding is broadcast, every node runs a fragment, and the
			// partial results come back.
			inv := math.Max(math.Min(cur.card, 1e7), 1)
			w.m.Messages += int64(inv) * 2 * int64(w.cfg.Nodes-1)
			w.m.RowsShipped += int64(inv) * 2 * int64(w.cfg.Nodes-1)
			w.m.Fragments += int64(inv) * int64(w.cfg.Nodes)
			if q.Kind == qgm.QForEach {
				cur.card *= math.Max(w.plan.EstimateRows(q.Input), 0.1)
				cur.key = ""
			}
		case q.Kind == qgm.QScalar || q.Kind.IsSubquery():
			// Materialized once; replicate the (small) result so every
			// node can probe it locally.
			child := w.walk(q.Input)
			w.broadcast(child.card)
			w.phase()
		default:
			child := w.walk(q.Input)
			w.phase()
			if first {
				cur = child
				first = false
				break
			}
			// The first equality the executor hashes on (bound side, q
			// side); none means it builds the cross product.
			bk, ck := firstKeys(s.BoundKeys, s.QKeys)
			switch {
			case ck != "" && child.key == ck && cur.key == bk:
				// co-partitioned local join (the decorrelated §6.2 case)
			case ck != "" && child.key == ck:
				w.ship(cur.card)
				cur.key = bk
			case bk != "" && cur.key == bk:
				w.ship(child.card)
			case ck != "":
				w.ship(cur.card + child.card)
				cur.key = bk
			default:
				// No equality: broadcast the smaller side.
				w.broadcast(math.Min(cur.card, child.card))
			}
			cur.card = math.Max(cur.card*s.Growth, 1)
			if bk != "" {
				cur.key = bk
			}
		}
	}
	out := relInfo{card: w.plan.EstimateRows(b)}
	// Output partitioning survives when some output column carries the
	// current partitioning key.
	for _, c := range b.Cols {
		if keyOf(c.Expr) == cur.key && cur.key != "" {
			out.key = cur.key
			break
		}
	}
	return out
}
