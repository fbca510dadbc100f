// Package storage implements the in-memory row store with per-column
// indexes. It stands in for Starburst's storage layer: the execution
// engine reads tables through scans and (when present) indexes, and the
// benchmark harness drops indexes to reproduce the paper's Figure 7
// experiment ("we dropped the index ... thereby increasing the work
// performed in each correlated invocation").
//
// An index is built once from a table's rows as pointer-free CSR
// (compressed sparse row) arrays: the row ids grouped by key, and each
// key's run bounds. An integer key finds its run by direct addressing or
// binary search, any other key through one map entry per distinct key;
// a probe returns a view of the run and allocates nothing.
package storage

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"decorr/internal/colvec"
	"decorr/internal/faultinject"
	"decorr/internal/schema"
	"decorr/internal/sqltypes"
)

// Row is a tuple of values positionally matching a table's columns.
type Row []sqltypes.Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// RowSource produces the current rows of a synthetic table. It is called
// on every scan, so the rows reflect live state; implementations must
// return rows they will not mutate afterwards.
type RowSource func() []Row

// Table is the stored form of a relation: a row slice plus optional
// indexes keyed by a single column ordinal. A table created with
// CreateSynthetic has no stored rows; every scan invokes its RowSource
// instead (the engine's sys.* catalog tables are such relations).
type Table struct {
	Def     *schema.Table
	Rows    []Row
	src     RowSource
	indexes []*index // by column ordinal; nil where a column has none

	// statMu guards the lazily built optimizer statistics below. The
	// estimator runs on the execution path, so parallel query workers can
	// race to fill these caches; rows and indexes stay lock-free because
	// loads and queries never overlap.
	statMu    sync.Mutex
	ndvCache  map[int]ndvEntry
	histCache map[int]histEntry

	// colMu guards the lazily built columnar projection. Like ndvCache it
	// is keyed on the row count: inserts invalidate it by growing Rows.
	colMu    sync.RWMutex
	colCache []colvec.Vec
	colRows  int
}

// ColVecs returns the table's columns as typed vectors, built lazily and
// cached until the table grows. The vectors alias the stored rows' string
// payloads; callers must treat them as read-only. Synthetic tables are not
// cached (their rows change per scan) and return ok=false — the vectorized
// executor declines them and stays on the row path.
func (t *Table) ColVecs() ([]colvec.Vec, bool) {
	if t.src != nil {
		return nil, false
	}
	n := len(t.Rows)
	t.colMu.RLock()
	if t.colCache != nil && t.colRows == n {
		vecs := t.colCache
		t.colMu.RUnlock()
		return vecs, true
	}
	t.colMu.RUnlock()
	vecs := make([]colvec.Vec, len(t.Def.Columns))
	rows := t.Rows[:n]
	for c := range vecs {
		vecs[c] = colvec.FromColumn(rows, c)
	}
	t.colMu.Lock()
	if t.colCache == nil || t.colRows != n {
		t.colCache, t.colRows = vecs, n
	} else {
		vecs = t.colCache // a racing builder stored first
	}
	t.colMu.Unlock()
	return vecs, true
}

type ndvEntry struct {
	rows int // row count when computed
	ndv  int
}

// NDV returns the number of distinct values in the column (an optimizer
// statistic). It is computed lazily and cached until the table grows.
func (t *Table) NDV(col int) int {
	if col < 0 || col >= len(t.Def.Columns) {
		return 1
	}
	t.statMu.Lock()
	defer t.statMu.Unlock()
	if e, ok := t.ndvCache[col]; ok && e.rows == len(t.Rows) {
		return e.ndv
	}
	seen := map[string]bool{}
	for _, r := range t.Rows {
		seen[keyOf(r[col])] = true
	}
	n := len(seen)
	if n == 0 {
		n = 1
	}
	if t.ndvCache == nil {
		t.ndvCache = map[int]ndvEntry{}
	}
	t.ndvCache[col] = ndvEntry{rows: len(t.Rows), ndv: n}
	return n
}

// NewTable creates an empty stored table for a definition.
func NewTable(def *schema.Table) *Table {
	return &Table{Def: def, indexes: make([]*index, len(def.Columns))}
}

// Synthetic reports whether the table's rows come from a RowSource.
func (t *Table) Synthetic() bool { return t.src != nil }

// Insert appends a row. The row must match the table arity; values are not
// type-coerced (the generators produce correctly typed data).
func (t *Table) Insert(r Row) error {
	if t.src != nil {
		return fmt.Errorf("storage: table %q is synthetic (read-only)", t.Def.Name)
	}
	if len(r) != len(t.Def.Columns) {
		return fmt.Errorf("storage: row arity %d does not match table %q arity %d",
			len(r), t.Def.Name, len(t.Def.Columns))
	}
	if len(t.Rows) >= maxIndexRows && slices.ContainsFunc(t.indexes, func(x *index) bool { return x != nil }) {
		return fmt.Errorf("storage: indexed table %q is full (%d rows)", t.Def.Name, len(t.Rows))
	}
	t.Rows = append(t.Rows, r)
	// An index is built once from the rows, so an insert into an indexed
	// table rebuilds its indexes. Tables are loaded before they are
	// indexed, so loads never pay for this.
	for c, x := range t.indexes {
		if x != nil {
			t.indexes[c] = buildIndex(t.Rows, c)
		}
	}
	return nil
}

func keyOf(v sqltypes.Value) string {
	return string(sqltypes.AppendKey(nil, v))
}

// index is one column's index in CSR (compressed sparse row) form: the
// ids of the rows whose key falls in run r are ids[off[r]:off[r+1]],
// ascending. Both arrays are pointer-free, so the collector never scans
// them. A key resolves to its run in one of three ways, chosen when the
// index is built:
//   - dense (keys and runOf nil): every non-NULL key is an integer and
//     the key span is below twice the row count; key k is run k-base;
//   - sparse (keys set): every non-NULL key is an integer; key keys[r] is
//     run r, found by binary search;
//   - encoded (runOf set): otherwise; runOf maps a key's
//     sqltypes.AppendKey encoding to its run, one entry per distinct key.
//
// NULL keys belong to no run: SQL equality with NULL is never true.
type index struct {
	ids   []int32
	off   []int32
	base  int64
	keys  []int64
	runOf map[string]int32
}

// maxIndexRows bounds an indexed table: row ids are int32.
const maxIndexRows = math.MaxInt32

// buildIndex indexes column c of rows.
func buildIndex(rows []Row, c int) *index {
	x := &index{}
	ints, n := true, 0
	var lo, hi int64
	for _, r := range rows {
		switch v := r[c]; v.K {
		case sqltypes.KindNull:
		case sqltypes.KindInt:
			if n == 0 || v.I < lo {
				lo = v.I
			}
			if n == 0 || v.I > hi {
				hi = v.I
			}
			n++
		default:
			ints = false
		}
	}
	runs := 0
	switch {
	case !ints:
		x.runOf = map[string]int32{}
		var buf []byte
		for _, r := range rows {
			if r[c].IsNull() {
				continue
			}
			buf = sqltypes.AppendKey(buf[:0], r[c])
			if _, ok := x.runOf[string(buf)]; !ok {
				x.runOf[string(buf)] = int32(len(x.runOf))
			}
		}
		runs = len(x.runOf)
	case n == 0:
	case uint64(hi)-uint64(lo) < 2*uint64(len(rows)):
		x.base, runs = lo, int(uint64(hi)-uint64(lo))+1
	default:
		x.keys = make([]int64, 0, n)
		for _, r := range rows {
			if r[c].K == sqltypes.KindInt {
				x.keys = append(x.keys, r[c].I)
			}
		}
		slices.Sort(x.keys)
		x.keys = slices.Clip(slices.Compact(x.keys))
		runs = len(x.keys)
	}
	// Count each run into off[r+1] and prefix-sum, so off[r] is where run
	// r starts; placing ids in row order bumps off[r] to where it ends,
	// and shifting off right by one restores the starts.
	x.off = make([]int32, runs+1)
	for _, r := range rows {
		if run := x.find(r[c]); run >= 0 {
			x.off[run+1]++
		}
	}
	for r := 1; r <= runs; r++ {
		x.off[r] += x.off[r-1]
	}
	x.ids = make([]int32, x.off[runs])
	for id, r := range rows {
		if run := x.find(r[c]); run >= 0 {
			x.ids[x.off[run]] = int32(id)
			x.off[run]++
		}
	}
	copy(x.off[1:], x.off[:runs])
	x.off[0] = 0
	return x
}

// find returns the run of v, or -1 when no row's key equals v. It
// allocates nothing unless v is a string whose key encoding outgrows the
// stack buffer.
func (x *index) find(v sqltypes.Value) int {
	if x.runOf == nil {
		if k, ok := sqltypes.IntKey(v); ok {
			return x.findInt(k)
		}
		return -1
	}
	if v.IsNull() {
		return -1
	}
	var buf [64]byte
	if r, ok := x.runOf[string(sqltypes.AppendKey(buf[:0], v))]; ok {
		return int(r)
	}
	return -1
}

// findInt is find for an integer key on a dense or sparse index.
func (x *index) findInt(k int64) int {
	if x.keys != nil {
		if r, ok := slices.BinarySearch(x.keys, k); ok {
			return r
		}
		return -1
	}
	// k-base wraps for keys below base, landing far above the last run.
	if d := uint64(k - x.base); d < uint64(len(x.off)-1) {
		return int(d)
	}
	return -1
}

// run returns run r's ids (none for r < 0), capped so that a caller's
// append cannot write into the next run.
func (x *index) run(r int) []int32 {
	if r < 0 {
		return nil
	}
	lo, hi := x.off[r], x.off[r+1]
	return x.ids[lo:hi:hi]
}

// Scan returns the table's full row slice. It is the executor's only
// full-scan entry point, which makes it the natural fault-injection site
// for storage-layer read errors: an injected fault surfaces as a typed
// error attributed to the table instead of a wrong answer. Synthetic
// tables materialize from their RowSource and skip fault injection — they
// are the introspection plane, which must stay readable while faults are
// being injected into the data plane.
func (t *Table) Scan() ([]Row, error) {
	if t.src != nil {
		return t.src(), nil
	}
	if err := faultinject.Check(faultinject.StorageScan); err != nil {
		return nil, fmt.Errorf("storage: scan %s: %w", t.Def.Name, err)
	}
	return t.Rows, nil
}

// CreateIndex builds an index on the named column. Creating an index
// that already exists is a no-op. Synthetic tables cannot be indexed:
// their rows change on every scan, so a built index would silently serve
// stale row ids.
func (t *Table) CreateIndex(col string) error {
	if t.src != nil {
		return fmt.Errorf("storage: cannot index synthetic table %q", t.Def.Name)
	}
	c := t.Def.ColIndex(col)
	if c < 0 {
		return fmt.Errorf("storage: no column %q in table %q", col, t.Def.Name)
	}
	if t.indexes[c] != nil {
		return nil
	}
	if len(t.Rows) > maxIndexRows {
		return fmt.Errorf("storage: table %q has %d rows, too many to index", t.Def.Name, len(t.Rows))
	}
	t.indexes[c] = buildIndex(t.Rows, c)
	return nil
}

// DropIndex removes the index on the named column if present.
func (t *Table) DropIndex(col string) error {
	c := t.Def.ColIndex(col)
	if c < 0 {
		return fmt.Errorf("storage: no column %q in table %q", col, t.Def.Name)
	}
	if c < len(t.indexes) {
		t.indexes[c] = nil
	}
	return nil
}

// HasIndex reports whether an index exists on the column ordinal.
func (t *Table) HasIndex(col int) bool {
	return t.indexOn(col) != nil
}

func (t *Table) indexOn(col int) *index {
	if col < 0 || col >= len(t.indexes) {
		return nil
	}
	return t.indexes[col]
}

// Lookup returns the ids of the rows whose column equals v, ascending,
// using the index. It returns ok=false when no index exists on the
// column. A NULL probe returns no rows (SQL equality with NULL is never
// true); a float probe of an integer column matches the integer it equals
// exactly. The ids are a view into the index: callers may only read them.
// Lookup allocates nothing unless v is a string whose key encoding
// outgrows a small stack buffer.
func (t *Table) Lookup(col int, v sqltypes.Value) (ids []int32, ok bool) {
	x := t.indexOn(col)
	if x == nil {
		return nil, false
	}
	return x.run(x.find(v)), true
}

// IntIndex is an index whose non-NULL keys are all integers, probed by
// its integer resolver. It shares the index's arrays: callers may only
// read what Lookup returns.
type IntIndex index

// Lookup returns the ids of the rows whose key is k, ascending.
func (x *IntIndex) Lookup(k int64) []int32 {
	return (*index)(x).run((*index)(x).findInt(k))
}

// IntIndex returns the column's index when every non-NULL key in it is an
// integer, or nil when the column is unindexed or holds other keys. The
// vectorized executor probes it directly from typed int64 vectors,
// without boxing or encoding a key per row.
func (t *Table) IntIndex(col int) *IntIndex {
	x := t.indexOn(col)
	if x == nil || x.runOf != nil {
		return nil
	}
	return (*IntIndex)(x)
}

// DB is a database instance: a catalog plus stored tables.
type DB struct {
	Catalog *schema.Catalog
	tables  map[string]*Table
}

// NewDB returns an empty database with an empty catalog.
func NewDB() *DB {
	return &DB{Catalog: schema.NewCatalog(), tables: map[string]*Table{}}
}

// Create registers a table definition and allocates its storage.
func (db *DB) Create(def *schema.Table) *Table {
	db.Catalog.Add(def)
	t := NewTable(def)
	db.tables[strings.ToLower(def.Name)] = t
	return t
}

// CreateSynthetic registers a read-only synthetic relation whose rows are
// produced by src at every scan. The definition enters the catalog like
// any table, so the binder, planner, and executor treat it uniformly —
// including as a subquery input of a decorrelated plan. The engine mounts
// its sys.* introspection tables through this.
func (db *DB) CreateSynthetic(def *schema.Table, src RowSource) *Table {
	db.Catalog.Add(def)
	t := &Table{Def: def, src: src}
	db.tables[strings.ToLower(def.Name)] = t
	return t
}

// Table returns the stored table, or nil if absent.
func (db *DB) Table(name string) *Table {
	return db.tables[strings.ToLower(name)]
}

// MustTable returns the stored table or panics; used by generators and
// benchmarks that control their own schemas.
func (db *DB) MustTable(name string) *Table {
	t := db.Table(name)
	if t == nil {
		panic(fmt.Sprintf("storage: unknown table %q", name))
	}
	return t
}
