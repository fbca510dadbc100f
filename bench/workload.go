package main

import (
	"fmt"
	"math/rand"
	"strings"

	"decorr/internal/sqltypes"
	"decorr/internal/tpcd"
)

// A call is one statement execution a workload issues: the text, its
// bound arguments, and how the oracle derives the expected rows for it.
type call struct {
	text int     // index into workload.texts
	args []int64 // bound `?` values, in text order

	// The oracle runs oracleSQL with oracleArgs under engine.NI; an empty
	// oracleSQL means "the call's own text and args".
	oracleSQL  string
	oracleArgs []int64

	want expected // filled by the oracle
}

// A workload is a cyclic list of calls consumed perOp at a time: op i runs
// calls[(i*perOp+j) % len(calls)] for j in [0, perOp). One op is the unit
// every latency and throughput metric counts.
type workload struct {
	name     string
	strategy string // DSN strategy name
	fetch    int    // DSN fetch size (0 = server default)
	prepared bool   // server-side prepared statements vs one-shot db.Query
	// intended is the layer group the workload exists to stress; the
	// traced run fails when another group has the largest self time.
	intended string

	texts []string
	calls []call
	perOp int
}

func (w *workload) op(i int) []*call {
	out := make([]*call, w.perOp)
	for j := range out {
		out[j] = &w.calls[(i*w.perOp+j)%len(w.calls)]
	}
	return out
}

func (w *workload) dsn(addr string) string {
	s := "decorr://" + addr + "?strategy=" + w.strategy
	if w.fetch > 0 {
		s += fmt.Sprintf("&fetch=%d", w.fetch)
	}
	return s
}

// workloadNames is the fixed order every report uses.
var workloadNames = []string{"fig_magic", "fig_ni", "fig_auto", "plan_cold", "stream_scan"}

// Layer groups for the dominance check.
const (
	groupPrepare   = "prepare"
	groupExec      = "exec"
	groupTransport = "wire+driver+server"
)

// The paper's four figure statements, in op order.
var figTexts = []string{tpcd.Query1, tpcd.Query1b, tpcd.Query2, tpcd.Query3}

// figNames labels figTexts positions in reports.
var figNames = []string{"Query1", "Query1b", "Query2", "Query3"}

// poolSize is the number of distinct plan_cold texts asked for: 16x the
// server's 256-entry plan cache, visited cyclically, so no lookup hits.
const poolSize = 4096

// scanBounds is the number of distinct stream_scan parameter bindings.
const scanBounds = 16

// The stream_scan ps_partkey bound is drawn in [scanLo, scanHi) of every
// 20000 part keys, so the scan returns 85-95% of partsupp: about 72k rows
// per op at SF=1. (At half that selectivity the scan itself, which reads
// every row, took as long as shipping the rows that passed, and the
// workload's intended layer did not dominate.)
const (
	scanLo = 17000
	scanHi = 19000
)

const scanText = `select ps_partkey, ps_suppkey, ps_availqty, ps_supplycost from partsupp where ps_availqty >= ? and ps_partkey < ?`

// newWorkload builds the named workload for a seed and scale factor. The
// same (name, seed, sf) always yields the same texts and arguments.
func newWorkload(name string, seed int64, sf float64) (*workload, error) {
	fig := func(strategy string) *workload {
		w := &workload{name: name, strategy: strategy, prepared: true,
			intended: groupExec, texts: figTexts, perOp: len(figTexts)}
		for i := range figTexts {
			w.calls = append(w.calls, call{text: i})
		}
		return w
	}
	switch name {
	case "fig_magic":
		// Decorrelated plans: exec's hash join, group-by and left outer
		// join do the work.
		return fig("optmagic"), nil
	case "fig_ni":
		// The same exec layer used as correlated fan-out; a gain on the
		// decorrelated path predicts no change here.
		return fig("nibatch"), nil
	case "fig_auto":
		// What a default client gets: the plan choice of the paper's
		// section 7 is measured, not just plan speed.
		return fig("auto"), nil
	case "plan_cold":
		nParts, nSupp := scaled(sf, tpcd.BaseParts), scaled(sf, tpcd.BaseSuppliers)
		// Unique texts cycled past the 256-plan cache: every lookup misses
		// and parse..estimate dominate; execution touches a handful of rows.
		w := &workload{name: name, strategy: "auto", intended: groupPrepare, perOp: 4}
		w.texts, w.calls = coldPool(seed, nParts, nSupp, poolSize)
		return w, nil
	case "stream_scan":
		nParts := scaled(sf, tpcd.BaseParts)
		// Bulk result: row materialisation, Batch encode, socket and driver
		// decode dominate; planning and subqueries are nil.
		w := &workload{name: name, strategy: "auto", fetch: 4096, prepared: true,
			intended: groupTransport, texts: []string{scanText}, perOp: 1}
		for _, b := range scanBoundsFor(seed, nParts) {
			w.calls = append(w.calls, call{args: []int64{1, b}})
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// scaled mirrors tpcd's cardinality rule: max(1, round(sf*base)).
func scaled(sf float64, base int) int {
	n := int(sf*float64(base) + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// scanBoundsFor draws the stream_scan bounds stratified over
// [scanLo, scanHi): one per equal slice of the range, shuffled. Every seed
// therefore sees nearly the same distribution of result sizes, so the op
// latency percentiles of two seeds are comparable.
func scanBoundsFor(seed int64, nParts int) []int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca9))
	lo := float64(nParts) * scanLo / tpcd.BaseParts
	width := float64(nParts) * (scanHi - scanLo) / tpcd.BaseParts / scanBounds
	out := make([]int64, scanBounds)
	for i := range out {
		out[i] = int64(lo+width*(float64(i)+rng.Float64())) + 2 // +2: at least part key 1 qualifies at any scale
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// The plan_cold shapes: Query1, Query2 and Query3 with their selective
// filters replaced by one key literal (%d), so execution touches a handful
// of rows and each text returns at least one row. The oracle runs the same
// shape with the literal as a `?` parameter.
var coldShapes = []struct {
	sql      string
	bySupply bool // key is a supplier key, not a part key
}{
	{sql: `Select s.s_name, s.s_acctbal, s.s_address, s.s_phone, s.s_comment
From parts p, suppliers s, partsupp ps
Where p.p_partkey = %s
  and p.p_partkey = ps.ps_partkey and s.s_suppkey = ps.ps_suppkey
  and ps.ps_supplycost =
    (Select min(ps1.ps_supplycost)
     From partsupp ps1, suppliers s1
     Where p.p_partkey = ps1.ps_partkey
       and s1.s_suppkey = ps1.ps_suppkey)`},
	{sql: `Select sum(l.l_extendedprice * l.l_quantity) / 5
From lineitem l, parts p
Where p.p_partkey = l.l_partkey and p.p_partkey = %s
  and l.l_quantity <
    (Select 0.2 * avg(l1.l_quantity)
     From lineitem l1 Where l1.l_partkey = p.p_partkey)`},
	{bySupply: true, sql: `Select s.s_name, s.s_acctbal, dt.sumbal
From suppliers s,
  (Select sum(ddt.bal) From
     ((Select a.c_acctbal From customers a
       Where a.c_mktsegment = 'BUILDING' and a.c_nation = s.s_nation)
      Union All
      (Select b.c_acctbal From customers b
       Where b.c_mktsegment = 'AUTOMOBILE' and b.c_nation = s.s_nation)
     ) As ddt(bal)
  ) As dt(sumbal)
Where s.s_suppkey = %s`},
}

// coldPool builds up to want distinct one-shot texts: every key of a shape
// is used at most once, the supplier-keyed shape gets at most a quarter,
// and the part-keyed shapes split the rest. At SF=1 (20000 parts, 1000
// suppliers) that is exactly 4096 texts; a smaller database yields as many
// as its keys allow. The order is a seeded shuffle.
func coldPool(seed int64, nParts, nSupp, want int) ([]string, []call) {
	rng := rand.New(rand.NewSource(seed ^ 0xc01d))
	nSupply := min(nSupp, want/4)
	nPart := min(nParts, (want-nSupply+1)/2)
	counts := []int{nPart, min(nParts, want-nSupply-nPart), nSupply}

	type item struct {
		shape int
		key   int64
	}
	var items []item
	for shape, n := range counts {
		limit := nParts
		if coldShapes[shape].bySupply {
			limit = nSupp
		}
		for _, k := range rng.Perm(limit)[:n] {
			items = append(items, item{shape, int64(k + 1)})
		}
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	texts := make([]string, len(items))
	calls := make([]call, len(items))
	for i, it := range items {
		sh := coldShapes[it.shape]
		texts[i] = fmt.Sprintf(sh.sql, fmt.Sprint(it.key))
		calls[i] = call{text: i, oracleSQL: fmt.Sprintf(sh.sql, "?"), oracleArgs: []int64{it.key}}
	}
	return texts, calls
}

func intValues(args []int64) []sqltypes.Value {
	if len(args) == 0 {
		return nil
	}
	out := make([]sqltypes.Value, len(args))
	for i, a := range args {
		out[i] = sqltypes.NewInt(a)
	}
	return out
}

func anyArgs(args []int64) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a
	}
	return out
}
