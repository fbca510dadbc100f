package archtest

import (
	"fmt"
	"path"
	"testing"
)

const (
	qgmPkg    = module + "/internal/qgm"
	execFiles = "internal/exec/*.go"
)

// rules is the table. Each group names the refactor whose "one X" it holds;
// the messages are the ones its checks have always printed.
var rules = append([]rule{
	// One strategy table: internal/engine/strategy.go feeds the CLI, the
	// REPL, decorrd and the DSN.
	{
		name:    "strategy/one-table",
		files:   []string{"..."},
		match:   str("optmagic"),
		in:      []string{"internal/engine/strategy.go"},
		min:     1,
		max:     many,
		msg:     "strategy names declared outside the strategy table:",
		fixture: "internal/server/strategies.go",
		bad:     `var names = map[string]int{"ni": 0, "optmagic": 1}`,
	},

	// One select plan: buildSelectPlan (planorder.go) classifies a box's
	// predicates once; evaluators and estimators read the memoized plan.
	// One physical plan: NewPlan (plan.go) builds it once per prepared
	// statement, and every execution and the cost model read it.
	{
		name:    "plan/one-classification",
		files:   []string{execFiles},
		match:   lit("selPred"),
		min:     1,
		max:     1,
		msg:     "select-box predicates classified in %d places, want 1:",
		fixture: "internal/exec/select.go",
		bad:     `func classify(e qgm.Expr) *selPred { return &selPred{expr: e} }`,
	},
	{
		name:    "plan/memoized-order",
		files:   []string{execFiles},
		match:   ref(".JoinOrder"),
		msg:     "internal/exec re-derives a join order instead of reading the box's selectPlan",
		fixture: "internal/exec/estimate.go",
		bad:     `func (ex *Exec) order(b *qgm.Box) { _ = ex.JoinOrder(b) }`,
	},
	{
		name:    "plan/one-walk",
		files:   []string{execFiles},
		match:   ref("findIndexPred", "splitEqui", ".newState"),
		in:      []string{"internal/exec/planorder.go"},
		max:     many,
		msg:     "a join step is decided outside planorder.go; read the plan's steps instead",
		fixture: "internal/exec/colselect.go",
		bad:     `func (ex *Exec) probe(q *qgm.Quantifier, st *selState) { ex.findIndexPred(q, st) }`,
	},
	{
		name:    "plan/no-consumption-helpers",
		files:   []string{"..."},
		match:   ident("EstimateGrowth", "EquiJoinKeys", "stateAt", "takeLocal", "takeJoinable", "takeEquiJoin"),
		msg:     "a second predicate-consumption walk grew back beside walkPlan",
		fixture: "internal/exec/select.go",
		bad:     `func (p *selectPlan) takeLocal(st *selState) {}`,
	},
	{
		name:    "plan/built-once",
		files:   []string{execFiles},
		match:   ref("buildSelectPlan", "computeVolatile", "colGroupable", "planBatchSite", "RefCounts"),
		in:      []string{"internal/exec/plan.go:NewPlan", "internal/exec/batch_subquery.go:computeVolatile"},
		min:     1,
		max:     many,
		msg:     "a plan decision is made outside NewPlan; an execution reads the Plan it was given",
		fixture: "internal/exec/stream.go",
		bad:     `func (it *RowIterator) replan(b *qgm.Box) { _ = it.ex.plan.buildSelectPlan(b) }`,
	},
	{
		name:    "deleted/exec.DisableColumnar",
		files:   []string{"..."},
		match:   ident("DisableColumnar"),
		msg:     "exec.Options.DisableColumnar grew back; the engine is NewPlan's rowMode, an input of the plan",
		fixture: "internal/exec/exec.go",
		bad:     `type Options struct{ DisableColumnar bool }`,
	},
	{
		name:    "plan/correlated-map",
		files:   []string{execFiles},
		match:   ref("subqMorsel"),
		in:      []string{"internal/exec/batch_subquery.go"},
		max:     many,
		msg:     "a second nested-iteration loop grew back beside correlatedMap; route the correlated input through it",
		fixture: "internal/exec/select.go",
		bad:     `func (ex *Exec) each(n int) { _, _ = parallelChunks(ex, n, subqMorsel, nil) }`,
	},

	// Auto is one costed race over strategy-table rows (engine.prepareAuto).
	{
		name:    "auto/one-race",
		files:   []string{"..."},
		match:   ident("autoBatchNI", "hasBatchableCorrelation", "correlatedEvalOverhead"),
		msg:     "Auto's plan choice has grown a second path beside the strategy-table race",
		fixture: "internal/engine/auto.go",
		bad:     `func (e *Engine) autoBatchNI(p *prepared) *prepared { return p }`,
	},

	// A join is built in one place: qgm.SplitEq unwraps an `=` into its
	// sides, exec.rowHash passes the hash-build gate, buildKey is declared
	// once.
	{
		name:    "join/split-eq",
		files:   []string{"..."},
		match:   neq(qgmPkg, "OpEq"),
		in:      []string{"internal/qgm/expr.go"},
		min:     1,
		max:     many,
		msg:     "an equality is decomposed outside qgm.SplitEq:",
		fixture: "internal/rewrite/pushdown.go",
		bad: `import "decorr/internal/qgm"

func isKey(b *qgm.BinExpr) bool { return b.Op != qgm.OpEq }`,
	},
	{
		name:    "join/one-hash-build",
		files:   []string{"..."},
		match:   ref("hashBuildCheck"),
		in:      []string{"internal/exec/exec.go:rowHash"},
		min:     1,
		max:     1,
		msg:     "hashBuildCheck has %d callers, want 1 (exec.rowHash):",
		fixture: "internal/exec/colselect.go",
		bad:     `func (ex *Exec) gate() { check := ex.hashBuildCheck; _ = check }`,
	},
	{
		name:    "join/one-build-key",
		files:   []string{"..."},
		match:   decl("buildKey"),
		max:     1,
		msg:     "buildKey declared %d times, want at most 1:",
		fixture: "internal/colvec/key.go",
		bad:     `type buildKey struct{ s string }`,
	},

	// Observing a run cannot change which path runs it: profile.go is the
	// box envelope's observe half, enterBox counts evaluations, ex.cse is
	// the one CSE cache.
	{
		name:    "observe/profiler",
		files:   []string{execFiles, "!internal/exec/profile.go"},
		match:   ref(".profile"),
		msg:     "internal/exec reads the profiler outside profile.go",
		fixture: "internal/exec/select.go",
		bad:     `func (ex *Exec) profiled() bool { return ex.profile != nil }`,
	},
	{
		name:    "observe/tracer",
		files:   []string{execFiles, "!internal/exec/profile.go"},
		match:   ref("opts.Tracer"),
		in:      []string{"internal/exec/exec.go:New"},
		min:     1,
		max:     1,
		msg:     "opts.Tracer read %d times outside profile.go, want 1 (exec.New's w = 1 override):",
		fixture: "internal/exec/colselect.go",
		bad:     `func (ex *Exec) fused() bool { return ex.opts.Tracer == nil }`,
	},
	{
		name:    "observe/box-evals",
		files:   []string{execFiles},
		match:   ref("Stats.BoxEvals"),
		in:      []string{"internal/exec/exec.go:enterBox"},
		min:     1,
		max:     1,
		msg:     "BoxEvals counted in %d places, want 1 (enterBox):",
		fixture: "internal/exec/select.go",
		bad:     `func (ex *Exec) evalBox() { bump(&ex.Stats.BoxEvals, 1) }`,
	},
	{
		name:    "observe/one-cse",
		files:   []string{execFiles},
		match:   ident("cseVecs"),
		msg:     "a second CSE cache grew back beside ex.cse",
		fixture: "internal/exec/cse.go",
		bad:     `type vecCache struct{ cseVecs map[*qgm.Box][]int }`,
	},

	// The cleanup fixpoint does not print expressions to compare them.
	{
		name:    "rewrite/no-printed-compare",
		files:   []string{"internal/rewrite/*.go"},
		match:   ref("FormatExpr"),
		msg:     "internal/rewrite prints expressions to compare them; report the change structurally or use qgm.EqualExpr",
		fixture: "internal/rewrite/prune.go",
		bad: `import "decorr/internal/qgm"

func same(a, b qgm.Expr) bool { return qgm.FormatExpr(a) == qgm.FormatExpr(b) }`,
	},

	// Magic decorrelation is a rule under rewrite.Engine, which validates
	// the graph after every firing; qgm.RefCounts is the one reference
	// count.
	{
		name:    "core/one-validate",
		files:   []string{"internal/core/*.go"},
		match:   sel(qgmPkg, "Validate"),
		max:     1,
		msg:     "internal/core calls qgm.Validate %d times, want at most 1 (ApplyMagicSets); rewrite.Engine validates every feed firing:",
		fixture: "internal/core/decorrelate.go",
		bad: `import q "decorr/internal/qgm"

func check(g *q.Graph) error { return q.Validate(g) }`,
	},
	{
		name:    "core/one-ref-count",
		files:   []string{"internal/core/*.go", "internal/rewrite/*.go", execFiles},
		match:   inc("refs", "refCount"),
		msg:     "a hand-rolled reference count grew back; qgm.RefCounts(root)[b] is how many quantifiers read b",
		fixture: "internal/rewrite/prune.go",
		bad: `func count(bs []*qgm.Box, refCount map[*qgm.Box]int) {
	for _, b := range bs {
		refCount[b]++
	}
}`,
	},

	// Every Go file is as gofmt writes it, test files and bench/ included.
	{
		name:      "gofmt",
		files:     []string{"..."},
		everyFile: true,
		match:     gofmt,
		msg:       "not gofmt-formatted; run gofmt -w on:",
		fixture:   "internal/exec/exec.go",
		bad:       `func f(){ return }`,
	},
}, ledger()...)

// deleted is the ledger of top-level declarations that refactors removed,
// by package directory. Each name becomes a row with bound 0.
var deleted = []struct {
	dir   string
	names []string
}{
	{"internal/exec", []string{
		"colEnabled", "colInputVecs", "cseVecEntry", "groupByPartials", "mergeableAggs",
		"identitySel", "hasIndexPath", "depsAllBound", "ownDeps", "lateQuant",
		"colPlanned", "estQuantGrowth", "ReuseMemo", "intKeyOf",
		"analyze", "planOf", "subtreeVolatile", "varyingQuants", "selectTuplesSkip",
		"dedupRefs", "EstimateCostUnder",
	}},
	{"internal/storage", []string{"LookupBuf", "add"}},
	{"internal/qgm", []string{"RewriteSubtree", "Parents", "SubqueryQuants", "equiSides"}},
	{"internal/core", []string{"decorrelator", "orderOf"}},
	{"internal/engine", []string{"NIMemo", "prepareRow", "prepareStages", "prepareStagesGuarded", "queryText", "planCost"}},
	{"internal/server", []string{"strategyNames"}},
	{".", []string{"NIMemo"}},
}

func ledger() []rule {
	var out []rule
	for _, d := range deleted {
		pkg := path.Base(d.dir)
		if d.dir == "." {
			pkg = module
		}
		for _, n := range d.names {
			out = append(out, rule{
				name:    "deleted/" + pkg + "." + n,
				files:   []string{path.Join(d.dir, "*.go")},
				match:   decl(n),
				msg:     fmt.Sprintf("%s.%s is declared again; it was deleted and stays deleted", pkg, n),
				fixture: path.Join(d.dir, "regrown.go"),
				bad:     fmt.Sprintf("func (x *T) %s() bool { return true }", n),
			})
		}
	}
	return out
}

// TestDeclForms pins what the ledger rows count as a declaration: every
// top-level form, and no local, field, parameter or use.
func TestDeclForms(t *testing.T) {
	for src, want := range map[string]int{
		"func colEnabled() {}":                               1,
		"func (ex *Exec) colEnabled() bool { return true }":  1,
		"type colEnabled struct{}":                           1,
		"var colEnabled, other = 1, 2":                       1,
		"const (\n\ta = iota\n\tcolEnabled\n)":               1,
		"func f() { colEnabled := true; _ = colEnabled }":    0,
		"type T struct{ colEnabled bool }":                   0,
		"func f(colEnabled bool) bool { return colEnabled }": 0,
		"func f(x T) bool { return x.colEnabled() }":         0,
	} {
		if got := len(decl("colEnabled")(fixtureFile(t, "internal/exec/x.go", src))); got != want {
			t.Errorf("%q: %d declarations, want %d", src, got, want)
		}
	}
}
