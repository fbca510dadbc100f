// Package storage implements the in-memory column store with per-column
// indexes. It stands in for Starburst's storage layer: the execution
// engine reads tables through scans and (when present) indexes, and the
// benchmark harness drops indexes to reproduce the paper's Figure 7
// experiment ("we dropped the index ... thereby increasing the work
// performed in each correlated invocation").
//
// A table is stored as one typed column vector (colvec.Vec) per column:
// an insert appends one value to each, and the vectorized executor reads
// the stored vectors themselves (ColVecs, ScanCols). The boxed rows the
// row engine reads (RowForm, Scan) are built from the vectors on first use
// and kept until the next insert, so a table the row engine never reads
// holds no boxed value at all — nothing in it for the collector to mark
// beyond string payloads.
//
// An index is built once from a column vector as pointer-free CSR
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
	"sync/atomic"

	"decorr/internal/colvec"
	"decorr/internal/faultinject"
	"decorr/internal/schema"
	"decorr/internal/sqltypes"
	"decorr/internal/trace"
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

// rowMaterializations counts builds of a table's row form (RowForm): the
// served columnar plans never build one, so it stays 0 outside the row
// engine.
var rowMaterializations = trace.Metrics.Counter("storage.row_materializations")

// Table is the stored form of a relation: one typed column vector per
// column, plus optional indexes keyed by a single column ordinal. A table
// created with CreateSynthetic has no stored rows; every scan invokes its
// RowSource instead (the engine's sys.* catalog tables are such relations).
type Table struct {
	Def     *schema.Table
	src     RowSource
	cols    []colvec.Vec // the stored form; Insert appends to each
	n       int
	indexes []*index       // by column ordinal; nil where a column has none
	gen     *atomic.Uint64 // the owning DB's index generation

	// clip is the copy of cols that readers get (ColVecs), every array
	// capped at its length, made by the first read after an Insert. Loads
	// and queries never overlap, so an Insert only has to drop it — and,
	// when one was handed out, clone the null bitmaps it shares.
	clip atomic.Pointer[[]colvec.Vec]

	// rows is the row form, the boxed rows the row engine reads, built
	// from the vectors on first use (rowMu serializes racing first users)
	// and dropped by Insert.
	rowMu sync.Mutex
	rows  atomic.Pointer[[]Row]

	// statMu guards the lazily built optimizer statistics below. The
	// estimator runs on the execution path, so parallel query workers can
	// race to fill these caches.
	statMu    sync.Mutex
	ndvCache  map[int]ndvEntry
	histCache map[int]histEntry
}

// Len returns the number of stored rows (0 for a synthetic table).
func (t *Table) Len() int { return t.n }

// ColVecs returns the table's columns as typed vectors: the stored form
// itself, each array capped at the current length so that later inserts
// leave it unchanged. The vectors share the stored arrays; callers must
// treat them as read-only. A synthetic table has none (nil) — its rows
// change per scan, so the vectorized executor declines it and stays on the
// row path.
func (t *Table) ColVecs() []colvec.Vec {
	if t.src != nil {
		return nil
	}
	if p := t.clip.Load(); p != nil {
		return *p
	}
	vecs := make([]colvec.Vec, len(t.cols))
	for c := range vecs {
		vecs[c] = t.cols[c].Clip()
	}
	t.clip.Store(&vecs) // a racing reader stores an equal copy
	return vecs
}

// RowForm returns the table's rows boxed, in insertion order: the form the
// row engine reads. It is built from the column vectors on first use —
// every build counts in storage.row_materializations — and kept until the
// next Insert. Unlike Scan it passes no fault point, so the row engine's
// index probes read single rows through it. Callers must not mutate the
// rows.
func (t *Table) RowForm() []Row {
	if t.src != nil {
		return t.src()
	}
	if p := t.rows.Load(); p != nil {
		return *p
	}
	t.rowMu.Lock()
	defer t.rowMu.Unlock()
	if p := t.rows.Load(); p != nil {
		return *p
	}
	vecs := t.ColVecs()
	rows := make([]Row, t.n)
	w := len(vecs)
	// One backing array for every row; each row is a capped window of it.
	arena := make([]sqltypes.Value, t.n*w)
	for i := range rows {
		r := Row(arena[i*w : (i+1)*w : (i+1)*w])
		for c := range vecs {
			r[c] = vecs[c].Value(i)
		}
		rows[i] = r
	}
	rowMaterializations.Inc()
	t.rows.Store(&rows)
	return rows
}

type ndvEntry struct {
	rows int // row count when computed
	ndv  int
}

// NDV returns the number of distinct values in the column, NULL counting
// as one (an optimizer statistic). It is computed lazily and cached until
// the table grows.
func (t *Table) NDV(col int) int {
	if col < 0 || col >= len(t.Def.Columns) {
		return 1
	}
	t.statMu.Lock()
	defer t.statMu.Unlock()
	if e, ok := t.ndvCache[col]; ok && e.rows == t.n {
		return e.ndv
	}
	v := &t.cols[col]
	seen := map[string]bool{}
	var buf []byte
	for i := range v.Len() {
		buf = v.AppendKeyAt(buf[:0], i)
		seen[string(buf)] = true
	}
	n := max(len(seen), 1)
	if t.ndvCache == nil {
		t.ndvCache = map[int]ndvEntry{}
	}
	t.ndvCache[col] = ndvEntry{rows: t.n, ndv: n}
	return n
}

// NewTable creates an empty stored table for a definition.
func NewTable(def *schema.Table) *Table {
	return &Table{
		Def:     def,
		cols:    make([]colvec.Vec, len(def.Columns)),
		indexes: make([]*index, len(def.Columns)),
		gen:     new(atomic.Uint64),
	}
}

// Synthetic reports whether the table's rows come from a RowSource.
func (t *Table) Synthetic() bool { return t.src != nil }

// Insert appends a row, one value to each column vector. The row must
// match the table arity; values are not type-coerced (the generators
// produce correctly typed data). The table keeps no reference to r.
func (t *Table) Insert(r Row) error {
	if t.src != nil {
		return fmt.Errorf("storage: table %q is synthetic (read-only)", t.Def.Name)
	}
	if len(r) != len(t.Def.Columns) {
		return fmt.Errorf("storage: row arity %d does not match table %q arity %d",
			len(r), t.Def.Name, len(t.Def.Columns))
	}
	if t.n >= maxIndexRows && slices.ContainsFunc(t.indexes, func(x *index) bool { return x != nil }) {
		return fmt.Errorf("storage: indexed table %q is full (%d rows)", t.Def.Name, t.n)
	}
	if t.clip.Swap(nil) != nil {
		// A reader holds capped copies that share the null bitmaps, whose
		// last word a NULL would set in place.
		for c := range t.cols {
			t.cols[c].Nulls = slices.Clone(t.cols[c].Nulls)
		}
	}
	t.rows.Store(nil)
	for c, v := range r {
		t.cols[c].Append(v)
	}
	t.n++
	// An index is built once from the vectors, so an insert into an
	// indexed table rebuilds its indexes. Tables are loaded before they
	// are indexed, so loads never pay for this.
	for c, x := range t.indexes {
		if x != nil {
			t.indexes[c] = buildIndex(&t.cols[c])
		}
	}
	return nil
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

// buildIndex indexes column vector v.
func buildIndex(v *colvec.Vec) *index {
	x := &index{}
	// Every non-NULL key is an integer exactly when v is a typed integer
	// (or all-NULL) vector: a Mixed vector holds at least two kinds.
	ints := v.Mixed == nil && (v.K == sqltypes.KindInt || v.K == sqltypes.KindNull)
	n := 0
	var lo, hi int64
	if ints {
		for i, k := range v.Ints {
			if v.IsNull(i) {
				continue
			}
			if n == 0 || k < lo {
				lo = k
			}
			if n == 0 || k > hi {
				hi = k
			}
			n++
		}
	}
	runs := 0
	switch {
	case !ints:
		x.runOf = map[string]int32{}
		var buf []byte
		for i := range v.Len() {
			if v.IsNull(i) {
				continue
			}
			buf = v.AppendKeyAt(buf[:0], i)
			if _, ok := x.runOf[string(buf)]; !ok {
				x.runOf[string(buf)] = int32(len(x.runOf))
			}
		}
		runs = len(x.runOf)
	case n == 0:
	case uint64(hi)-uint64(lo) < 2*uint64(v.Len()):
		x.base, runs = lo, int(uint64(hi)-uint64(lo))+1
	default:
		x.keys = make([]int64, 0, n)
		for i, k := range v.Ints {
			if !v.IsNull(i) {
				x.keys = append(x.keys, k)
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
	for i := range v.Len() {
		if run := x.findAt(v, i); run >= 0 {
			x.off[run+1]++
		}
	}
	for r := 1; r <= runs; r++ {
		x.off[r] += x.off[r-1]
	}
	x.ids = make([]int32, x.off[runs])
	for i := range v.Len() {
		if run := x.findAt(v, i); run >= 0 {
			x.ids[x.off[run]] = int32(i)
			x.off[run]++
		}
	}
	copy(x.off[1:], x.off[:runs])
	x.off[0] = 0
	return x
}

// findAt is find for element i of the vector x was built from.
func (x *index) findAt(v *colvec.Vec, i int) int {
	switch {
	case v.IsNull(i):
		return -1
	case x.runOf == nil:
		return x.findInt(v.Ints[i])
	}
	return x.find(v.Value(i))
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

// Scan returns the table's rows (RowForm), in insertion order. Scan and
// ScanCols are the executor's full-scan entry points and share the one
// storage fault-injection site: an injected fault surfaces as a typed
// error attributed to the table instead of a wrong answer. Synthetic
// tables materialize from their RowSource and skip fault injection — they
// are the introspection plane, which must stay readable while faults are
// being injected into the data plane.
func (t *Table) Scan() ([]Row, error) {
	if t.src != nil {
		return t.src(), nil
	}
	if err := t.scanFault(); err != nil {
		return nil, err
	}
	return t.RowForm(), nil
}

// ScanCols is Scan in the stored columnar form: the vectors ColVecs
// returns, behind the same fault point. A synthetic table has no column
// form.
func (t *Table) ScanCols() ([]colvec.Vec, error) {
	if t.src != nil {
		return nil, fmt.Errorf("storage: synthetic table %q has no column form", t.Def.Name)
	}
	if err := t.scanFault(); err != nil {
		return nil, err
	}
	return t.ColVecs(), nil
}

// scanFault is the storage-scan fault point.
func (t *Table) scanFault() error {
	if err := faultinject.Check(faultinject.StorageScan); err != nil {
		return fmt.Errorf("storage: scan %s: %w", t.Def.Name, err)
	}
	return nil
}

// CreateIndex builds an index on the named column and moves the DB's
// index generation. Creating an index that already exists is a no-op.
// Synthetic tables cannot be indexed: their rows change on every scan, so
// a built index would silently serve stale row ids.
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
	if t.n > maxIndexRows {
		return fmt.Errorf("storage: table %q has %d rows, too many to index", t.Def.Name, t.n)
	}
	t.indexes[c] = buildIndex(&t.cols[c])
	t.gen.Add(1)
	return nil
}

// DropIndex removes the index on the named column if present, moving the
// DB's index generation when it was.
func (t *Table) DropIndex(col string) error {
	c := t.Def.ColIndex(col)
	if c < 0 {
		return fmt.Errorf("storage: no column %q in table %q", col, t.Def.Name)
	}
	if c < len(t.indexes) && t.indexes[c] != nil {
		t.indexes[c] = nil
		t.gen.Add(1)
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
	// indexGen counts index DDL on the DB's tables (CreateIndex and
	// DropIndex); a cached plan records it, since a plan fixes its probes.
	indexGen atomic.Uint64
}

// IndexGen reports the index generation: it moves on every CreateIndex
// that builds an index and every DropIndex that removes one, on any of the
// DB's tables.
func (db *DB) IndexGen() uint64 { return db.indexGen.Load() }

// NewDB returns an empty database with an empty catalog.
func NewDB() *DB {
	return &DB{Catalog: schema.NewCatalog(), tables: map[string]*Table{}}
}

// Create registers a table definition and allocates its storage.
func (db *DB) Create(def *schema.Table) *Table {
	db.Catalog.Add(def)
	t := NewTable(def)
	t.gen = &db.indexGen
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
	t := NewTable(def)
	t.src = src
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
