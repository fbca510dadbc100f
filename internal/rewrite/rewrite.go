// Package rewrite implements the rule-driven QGM rewrite engine, modeled on
// Starburst's query rewrite phase [PHH92]: rules apply at the granularity
// of one box and must leave the graph consistent after every application.
// The cleanup rules here are the "existing rewrite rules that merge query
// blocks" which the paper's §4.2/§4.3 rely on to merge CI boxes into their
// parents (turning correlated predicates into equi-joins) and to remove
// redundant DCO boxes.
package rewrite

import (
	"errors"
	"fmt"
	"slices"

	"decorr/internal/qgm"
	"decorr/internal/trace"
)

// ErrNoFixpoint is wrapped by Run when MaxPasses is exhausted before the
// rule set converges. Callers (the REPL, the CLI, Auto-strategy fallback)
// match it with errors.Is to distinguish "the rewrite engine itself is
// broken" from an unsupported query: the graph may be half-rewritten, so
// no plan derived from it should be shown or executed.
var ErrNoFixpoint = errors.New("rewrite rule set did not converge")

// Rule is one rewrite rule.
type Rule interface {
	// Name identifies the rule in traces.
	Name() string
	// Apply attempts one round of the rule over the whole graph, returning
	// whether anything changed.
	Apply(g *qgm.Graph) (bool, error)
}

// Engine runs rules to a fixpoint, validating after each change.
type Engine struct {
	Rules []Rule
	// MaxPasses bounds fixpoint iteration (safety valve; the rules are
	// strictly reducing so this should never bind).
	MaxPasses int
	// Tracer, when non-nil, receives one span per rule application
	// (rule name, pass number, whether it fired, box-count delta).
	Tracer *trace.Tracer
}

// NewCleanup returns the standard cleanup engine.
func NewCleanup() *Engine {
	return &Engine{
		Rules: []Rule{
			MergeSPJ{}, RemoveTrivial{}, PruneDuplicatePreds{},
			FoldConstants{}, DropRedundantDistinct{}, PushPredicates{},
			PruneProjections{},
		},
		MaxPasses: 64,
	}
}

// NewCleanupWithout returns the standard cleanup engine minus the named
// rules. The differential harness uses it to cross-check strategy results
// with individual cleanup rules (predicate pushdown, projection pruning)
// disabled: a rewrite whose correctness silently depends on a later
// cleanup pass is a bug this exposes.
func NewCleanupWithout(names ...string) *Engine {
	drop := map[string]bool{}
	for _, n := range names {
		drop[n] = true
	}
	e := NewCleanup()
	kept := e.Rules[:0:0]
	for _, r := range e.Rules {
		if !drop[r.Name()] {
			kept = append(kept, r)
		}
	}
	e.Rules = kept
	return e
}

// WithTracer attaches a tracer and returns e (chainable after NewCleanup).
func (e *Engine) WithTracer(t *trace.Tracer) *Engine {
	e.Tracer = t
	return e
}

// Run applies all rules to a fixpoint. It fails when MaxPasses is
// exhausted without reaching one: a rule set that never converges is a
// bug, and returning the final graph silently would hide it.
func (e *Engine) Run(g *qgm.Graph) error {
	max := e.MaxPasses
	if max <= 0 {
		max = 64
	}
	for pass := 0; pass < max; pass++ {
		changed := false
		for _, r := range e.Rules {
			c, err := e.applyRule(g, r, pass)
			if err != nil {
				return err
			}
			changed = changed || c
		}
		if !changed {
			return nil
		}
	}
	e.Tracer.Instant("fixpoint-exhausted", "rewrite", trace.Int("max_passes", int64(max)))
	return fmt.Errorf("rewrite: no fixpoint after %d passes (a rule keeps reporting changes): %w", max, ErrNoFixpoint)
}

// applyRule runs one rule over the graph, emitting its trace span.
func (e *Engine) applyRule(g *qgm.Graph, r Rule, pass int) (bool, error) {
	var sp *trace.Span
	var boxesBefore int
	if e.Tracer != nil {
		boxesBefore = len(qgm.Boxes(g.Root))
		sp = e.Tracer.Begin("rule:"+r.Name(), "rewrite",
			trace.Str("rule", r.Name()), trace.Int("pass", int64(pass)))
	}
	c, err := r.Apply(g)
	if err != nil {
		sp.End(trace.Str("error", err.Error()))
		return false, fmt.Errorf("rewrite: rule %s: %w", r.Name(), err)
	}
	if c {
		if err := qgm.Validate(g); err != nil {
			sp.End(trace.Str("error", err.Error()))
			return false, fmt.Errorf("rewrite: rule %s left inconsistent graph: %w", r.Name(), err)
		}
	}
	if sp != nil {
		sp.End(trace.Bool("fired", c),
			trace.Int("box_delta", int64(len(qgm.Boxes(g.Root))-boxesBefore)))
	}
	return c, nil
}

// MergeSPJ merges a non-shared, non-distinct SELECT child into its SELECT
// parent: the child's quantifiers move up, its predicates conjoin with the
// parent's, and references to the child's outputs are replaced by the
// defining expressions. When the child carried correlated predicates (a CI
// box), those become ordinary join predicates of the parent — exactly the
// CI-merge of §4.2.
type MergeSPJ struct{}

// Name implements Rule.
func (MergeSPJ) Name() string { return "merge-spj" }

// Apply implements Rule.
func (MergeSPJ) Apply(g *qgm.Graph) (bool, error) {
	refs := qgm.RefCounts(g.Root)
	for _, parent := range qgm.Boxes(g.Root) {
		if parent.Kind != qgm.BoxSelect {
			continue
		}
		for _, q := range parent.Quants {
			child := q.Input
			if q.Kind != qgm.QForEach || child.Kind != qgm.BoxSelect {
				continue
			}
			if child.Distinct || refs[child] > 1 {
				continue
			}
			mergeChild(parent, q)
			return true, nil
		}
	}
	return false, nil
}

// mergeChild splices child (q.Input) into parent.
func mergeChild(parent *qgm.Box, q *qgm.Quantifier) {
	child := q.Input
	// Replacement map: (q, i) -> child.Cols[i].Expr.
	mapping := map[qgm.RefKey]qgm.Expr{}
	for i, c := range child.Cols {
		mapping[qgm.RefKey{Q: q, Col: i}] = c.Expr
	}
	// Move the child's quantifiers up.
	for _, cq := range child.Quants {
		cq.Owner = parent
		parent.Quants = append(parent.Quants, cq)
	}
	parent.RemoveQuant(q)
	parent.Preds = append(parent.Preds, child.Preds...)
	// Replace references to q throughout the parent's entire subtree
	// (descendants may reference q as a correlated quantifier).
	qgm.RedirectRefs(parent, mapping)
}

// RemoveTrivial splices out SELECT boxes that are an identity projection of
// a single ForEach quantifier with no predicates and no DISTINCT — the
// shape redundant DCO and CI boxes take after decorrelation.
type RemoveTrivial struct{}

// Name implements Rule.
func (RemoveTrivial) Name() string { return "remove-trivial" }

// Apply implements Rule.
func (RemoveTrivial) Apply(g *qgm.Graph) (bool, error) {
	changed := false
	for _, b := range qgm.Boxes(g.Root) {
		for _, q := range b.Quants {
			inner := q.Input
			if isTrivial(inner) {
				q.Input = inner.Quants[0].Input
				changed = true
			}
		}
	}
	// The root's output names are client-visible: only splice it when the
	// inner box exposes the same names.
	if isTrivial(g.Root) && sameOutNames(g.Root, g.Root.Quants[0].Input) {
		g.Root = g.Root.Quants[0].Input
		changed = true
	}
	return changed, nil
}

func sameOutNames(a, b *qgm.Box) bool {
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i].Name != b.Cols[i].Name {
			return false
		}
	}
	return true
}

func isTrivial(b *qgm.Box) bool {
	if b.Kind != qgm.BoxSelect || b.Distinct || len(b.Preds) != 0 || len(b.Quants) != 1 {
		return false
	}
	q := b.Quants[0]
	if q.Kind != qgm.QForEach {
		return false
	}
	if len(b.Cols) != len(q.Input.Cols) {
		return false
	}
	for i, c := range b.Cols {
		r, ok := c.Expr.(*qgm.ColRef)
		if !ok || r.Q != q || r.Col != i {
			return false
		}
	}
	return true
}

// PruneDuplicatePreds drops structurally identical duplicate conjuncts
// within a box (rewrites can leave behind repeated equality predicates).
type PruneDuplicatePreds struct{}

// Name implements Rule.
func (PruneDuplicatePreds) Name() string { return "prune-duplicate-preds" }

// Apply implements Rule.
func (PruneDuplicatePreds) Apply(g *qgm.Graph) (bool, error) {
	changed := false
	for _, b := range qgm.Boxes(g.Root) {
		if len(b.Preds) < 2 {
			continue
		}
		kept := b.Preds[:0:0]
		for _, p := range b.Preds {
			if !slices.ContainsFunc(kept, func(k qgm.Expr) bool { return qgm.EqualExpr(k, p) }) {
				kept = append(kept, p)
			}
		}
		if len(kept) < len(b.Preds) {
			b.Preds = kept
			changed = true
		}
	}
	return changed, nil
}
