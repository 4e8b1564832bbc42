// Package dataset implements the relational-table substrate that DataPrism
// profiles, transforms, and feeds to the systems under test.
//
// A Dataset is a columnar table over a fixed schema. Every column has a name,
// a Kind (Numeric, Categorical, or Text), a value vector, and a NULL mask,
// stored as fixed-size chunks (chunk.go). Datasets are value-semantic at the
// API level: transformations operate on copies obtained via Clone, so
// interventions never mutate the original failing dataset.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
)

// Kind identifies the type of the values stored in a column.
type Kind int

const (
	// Numeric columns store float64 values.
	Numeric Kind = iota
	// Categorical columns store string values drawn from a small domain,
	// as codes into a per-column dictionary (dict.go).
	Categorical
	// Text columns store free-form strings (reviews, license plates, ...).
	Text
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Column is a single named, typed column with a NULL mask, stored as
// fixed-size chunks (chunk.go). Cells are read through NumAt/StrAt/NullAt
// or chunk-at-a-time through NumChunks/Chunk; the non-NULL value vectors
// live on the cached statistics block (Stats).
//
// Columns and their chunks are shared between datasets after Clone
// (copy-on-write): mutate cells only through Dataset.MutableColumn plus
// MutableChunk, or the Set* methods — never through a Chunk view. See
// cow.go for the contract.
type Column struct {
	Name string
	Kind Kind

	// rows is the column length; csize the rows-per-chunk capacity, with
	// shift/mask the fast-path decomposition for power-of-two sizes
	// (mask < 0 selects the divide path). chunks holds the canonical
	// layout: every chunk has exactly csize rows except the last.
	rows   int
	csize  int
	shift  uint
	mask   int
	chunks []*chunk

	// dict is a Categorical column's dictionary (dict.go), shared
	// copy-on-write like the chunks; nil for other kinds.
	dict *dictionary

	// shared marks the column header as referenced by more than one
	// dataset; the next mutation grant copies the header (cow.go). version
	// counts chunk mutation grants; digest/digestAt cache the content
	// digest (fingerprint.go), rollup the merged ColumnRollup, and stats
	// the deprecated full-vector ColumnStats block, all keyed by version.
	shared   atomic.Bool
	version  atomic.Uint64
	digest   atomic.Uint64
	digestAt atomic.Uint64
	rollup   atomic.Pointer[ColumnRollup]
	stats    atomic.Pointer[ColumnStats]
}

// Len returns the number of rows in the column.
func (c *Column) Len() int { return c.rows }

// Dataset is a columnar relational table. The zero value is not usable;
// construct with New or NewChunked and the Add*Column methods.
type Dataset struct {
	cols   []*Column
	byName map[string]int
	rows   int
	csize  int

	// sview caches the last assembled deterministic sample view (sample.go),
	// keyed by (cap, seed) and the column pointer/version pairs it was built
	// from, so repeated sampled fits within one discovery pass reuse it.
	sview atomic.Pointer[sampleViewCache]
}

// New returns an empty dataset with no columns and no rows, using the
// default chunk size.
func New() *Dataset { return NewChunked(DefaultChunkSize) }

// NewChunked returns an empty dataset whose columns are stored in chunks of
// the given number of rows. Sizes below 1 fall back to DefaultChunkSize.
// Chunk size affects only copy-on-write and recomputation granularity:
// digests, statistics, and Equal are layout-agnostic.
func NewChunked(chunkSize int) *Dataset {
	if chunkSize < 1 {
		chunkSize = DefaultChunkSize
	}
	return &Dataset{byName: make(map[string]int), csize: chunkSize}
}

// ChunkSize returns the rows-per-chunk capacity of the dataset's columns.
func (d *Dataset) ChunkSize() int { return d.csize }

// NumRows returns the number of tuples in the dataset.
func (d *Dataset) NumRows() int { return d.rows }

// NumCols returns the number of attributes in the dataset.
func (d *Dataset) NumCols() int { return len(d.cols) }

// ColumnNames returns the attribute names in schema order.
func (d *Dataset) ColumnNames() []string {
	names := make([]string, len(d.cols))
	for i, c := range d.cols {
		names[i] = c.Name
	}
	return names
}

// Columns returns the underlying columns in schema order. Callers must not
// mutate the returned slice.
func (d *Dataset) Columns() []*Column { return d.cols }

// Column returns the column with the given name, or nil if absent.
func (d *Dataset) Column(name string) *Column {
	i, ok := d.byName[name]
	if !ok {
		return nil
	}
	return d.cols[i]
}

// HasColumn reports whether the dataset has an attribute with the given name.
func (d *Dataset) HasColumn(name string) bool {
	_, ok := d.byName[name]
	return ok
}

// addColumn registers a column, enforcing unique names and consistent length.
func (d *Dataset) addColumn(c *Column) error {
	if c.Name == "" {
		return fmt.Errorf("dataset: column name must not be empty")
	}
	if _, dup := d.byName[c.Name]; dup {
		return fmt.Errorf("dataset: duplicate column %q", c.Name)
	}
	if len(d.cols) > 0 && c.Len() != d.rows {
		return fmt.Errorf("dataset: column %q has %d rows, want %d", c.Name, c.Len(), d.rows)
	}
	if len(d.cols) == 0 {
		d.rows = c.Len()
	}
	d.byName[c.Name] = len(d.cols)
	d.cols = append(d.cols, c)
	return nil
}

// AddNumericColumn appends a numeric column. A nil null mask means no NULLs.
func (d *Dataset) AddNumericColumn(name string, vals []float64, null []bool) error {
	if null != nil && len(null) != len(vals) {
		return fmt.Errorf("dataset: column %q null mask has %d entries, want %d", name, len(null), len(vals))
	}
	return d.addColumn(newColumn(name, Numeric, vals, nil, null, d.csize))
}

// AddCategoricalColumn appends a categorical column. A nil null mask means no NULLs.
func (d *Dataset) AddCategoricalColumn(name string, vals []string, null []bool) error {
	if null != nil && len(null) != len(vals) {
		return fmt.Errorf("dataset: column %q null mask has %d entries, want %d", name, len(null), len(vals))
	}
	return d.addColumn(newColumn(name, Categorical, nil, vals, null, d.csize))
}

// AddCategoricalCodes appends a categorical column given in dictionary
// form: cell i holds dict[codes[i]]. The dictionary entries must be
// distinct and every code, NULL cells' included, must index it; the column
// adopts both slices without copying. A nil null mask means no NULLs.
func (d *Dataset) AddCategoricalCodes(name string, dict []string, codes []uint32, null []bool) error {
	if null != nil && len(null) != len(codes) {
		return fmt.Errorf("dataset: column %q null mask has %d entries, want %d", name, len(null), len(codes))
	}
	seen := make(map[string]struct{}, len(dict))
	for _, v := range dict {
		if _, dup := seen[v]; dup {
			return fmt.Errorf("dataset: column %q: duplicate dictionary entry %q", name, v)
		}
		seen[v] = struct{}{}
	}
	for i, code := range codes {
		if int(code) >= len(dict) {
			return fmt.Errorf("dataset: column %q row %d: code %d outside a dictionary of %d entries", name, i, code, len(dict))
		}
	}
	return d.addColumn(newCodedColumn(name, &dictionary{vals: dict}, codes, null, d.csize))
}

// AddTextColumn appends a free-text column. A nil null mask means no NULLs.
func (d *Dataset) AddTextColumn(name string, vals []string, null []bool) error {
	if null != nil && len(null) != len(vals) {
		return fmt.Errorf("dataset: column %q null mask has %d entries, want %d", name, len(null), len(vals))
	}
	return d.addColumn(newColumn(name, Text, nil, vals, null, d.csize))
}

// MustAddNumeric is AddNumericColumn that panics on error; for literals in
// tests and generators where the schema is known to be valid.
func (d *Dataset) MustAddNumeric(name string, vals []float64) *Dataset {
	if err := d.AddNumericColumn(name, vals, nil); err != nil {
		panic(err)
	}
	return d
}

// MustAddCategorical is AddCategoricalColumn that panics on error.
func (d *Dataset) MustAddCategorical(name string, vals []string) *Dataset {
	if err := d.AddCategoricalColumn(name, vals, nil); err != nil {
		panic(err)
	}
	return d
}

// MustAddText is AddTextColumn that panics on error.
func (d *Dataset) MustAddText(name string, vals []string) *Dataset {
	if err := d.AddTextColumn(name, vals, nil); err != nil {
		panic(err)
	}
	return d
}

// IsNull reports whether the value at (attr, row) is NULL.
func (d *Dataset) IsNull(attr string, row int) bool {
	c := d.Column(attr)
	return c != nil && c.NullAt(row)
}

// Num returns the numeric value at (attr, row). It panics if the column is
// not numeric; a NULL slot returns NaN.
func (d *Dataset) Num(attr string, row int) float64 {
	c := d.Column(attr)
	if c == nil || c.Kind != Numeric {
		panic(fmt.Sprintf("dataset: %q is not a numeric column", attr))
	}
	ci, off := c.chunkOf(row)
	ch := c.chunks[ci]
	if ch.null[off] {
		return math.NaN()
	}
	return ch.nums[off]
}

// Str returns the string value at (attr, row). It panics if the column is
// numeric; a NULL slot returns "".
func (d *Dataset) Str(attr string, row int) string {
	c := d.Column(attr)
	if c == nil || c.Kind == Numeric {
		panic(fmt.Sprintf("dataset: %q is not a string column", attr))
	}
	if c.NullAt(row) {
		return ""
	}
	return c.StrAt(row)
}

// SetNum stores a numeric value, clearing the NULL flag. The write goes
// through the copy-on-write path, copying and dirtying only the chunk
// containing the row, so it never leaks into clones.
func (d *Dataset) SetNum(attr string, row int, v float64) {
	c := d.Column(attr)
	if c == nil || c.Kind != Numeric {
		panic(fmt.Sprintf("dataset: %q is not a numeric column", attr))
	}
	c = d.MutableColumn(attr)
	ci, off := c.chunkOf(row)
	w := c.MutableChunk(ci)
	w.Nums[off] = v
	w.Null[off] = false
}

// SetStr stores a string value, clearing the NULL flag. The write goes
// through the copy-on-write path, copying and dirtying only the chunk
// containing the row, so it never leaks into clones.
func (d *Dataset) SetStr(attr string, row int, v string) {
	c := d.Column(attr)
	if c == nil || c.Kind == Numeric {
		panic(fmt.Sprintf("dataset: %q is not a string column", attr))
	}
	c = d.MutableColumn(attr)
	ci, off := c.chunkOf(row)
	w := c.MutableChunk(ci)
	w.SetStr(off, v)
	w.Null[off] = false
}

// SetNull marks the value at (attr, row) as NULL. The write goes through
// the copy-on-write path, copying and dirtying only the chunk containing
// the row, so it never leaks into clones.
func (d *Dataset) SetNull(attr string, row int) {
	c := d.MutableColumn(attr)
	if c == nil {
		panic(fmt.Sprintf("dataset: no column %q", attr))
	}
	ci, off := c.chunkOf(row)
	w := c.MutableChunk(ci)
	w.Null[off] = true
}

// Clone returns a logically independent copy of the dataset in O(#cols):
// the clone shares the underlying columns copy-on-write. The first mutation
// of a shared column copies its header (O(#chunks) pointers), and each
// mutated chunk is copied individually — a single-attribute, single-chunk
// intervention costs O(chunk size), not O(rows). Transformations always
// clone before mutating, so the source dataset is never altered.
func (d *Dataset) Clone() *Dataset {
	cp := &Dataset{
		cols:   make([]*Column, len(d.cols)),
		byName: make(map[string]int, len(d.byName)),
		rows:   d.rows,
		csize:  d.csize,
	}
	for i, c := range d.cols {
		c.shared.Store(true)
		cp.cols[i] = c
		cp.byName[c.Name] = i
	}
	return cp
}

// SelectRows returns a new dataset containing the rows at the given indices,
// in order. Indices may repeat (used by over-sampling transformations).
//
// Each output chunk is built directly in the canonical layout. An output
// chunk whose rows are exactly source chunk k at the same position (an
// aligned identity run, such as the kept prefix of an over-sample) reuses
// that chunk, marked shared as Clone marks it, so its cached digest,
// statistics and sample survive and Fingerprint re-hashes only the new
// chunks. Every other output chunk is filled by copying runs of consecutive
// source rows.
func (d *Dataset) SelectRows(idx []int) *Dataset {
	out := NewChunked(d.csize)
	if len(d.cols) == 0 {
		return out
	}
	// Every column shares one geometry (rows, chunk size), so the first
	// column's chunks plan the output chunks of all.
	geo := d.cols[0]
	n, cs := len(idx), geo.csize
	nch := (n + cs - 1) / cs
	cols := make([]*Column, len(d.cols))
	for i, c := range d.cols {
		cols[i] = &Column{Name: c.Name, Kind: c.Kind, rows: n, csize: cs, shift: c.shift, mask: c.mask,
			chunks: make([]*chunk, nch), dict: c.shareDict()}
	}
	type run struct{ dst, src, off, n int } // n rows from source chunk src at off
	var runs []run
	for k := 0; k < nch; k++ {
		s, e := k*cs, min((k+1)*cs, n)
		if k < len(geo.chunks) && geo.chunks[k].len() == e-s && identityRun(idx[s:e], s) {
			for i, c := range d.cols {
				c.chunks[k].shared.Store(true)
				cols[i].chunks[k] = c.chunks[k]
			}
			continue
		}
		runs = runs[:0]
		for j := s; j < e; {
			ci, off := geo.chunkOf(idx[j])
			l, limit := 1, min(geo.chunks[ci].len()-off, e-j)
			for l < limit && idx[j+l] == idx[j]+l {
				l++
			}
			runs = append(runs, run{dst: j - s, src: ci, off: off, n: l})
			j += l
		}
		for i, c := range d.cols {
			ch := &chunk{start: s, null: make([]bool, e-s)}
			switch c.Kind {
			case Numeric:
				ch.nums = make([]float64, e-s)
			case Categorical:
				ch.codes = make([]uint32, e-s)
			default:
				ch.strs = make([]string, e-s)
			}
			for _, r := range runs {
				sch := c.chunks[r.src]
				copy(ch.null[r.dst:], sch.null[r.off:r.off+r.n])
				switch c.Kind {
				case Numeric:
					copy(ch.nums[r.dst:], sch.nums[r.off:r.off+r.n])
				case Categorical:
					copy(ch.codes[r.dst:], sch.codes[r.off:r.off+r.n])
				default:
					copy(ch.strs[r.dst:], sch.strs[r.off:r.off+r.n])
				}
			}
			cols[i].chunks[k] = ch
		}
	}
	for _, nc := range cols {
		if err := out.addColumn(nc); err != nil {
			panic(err) // cannot happen: schema mirrors a valid dataset
		}
	}
	return out
}

// identityRun reports whether idx is the consecutive run start, start+1, …
func identityRun(idx []int, start int) bool {
	for j, r := range idx {
		if r != start+j {
			return false
		}
	}
	return true
}

// Filter returns a new dataset containing the rows for which keep returns true.
func (d *Dataset) Filter(keep func(row int) bool) *Dataset {
	idx := make([]int, 0, d.rows)
	for i := 0; i < d.rows; i++ {
		if keep(i) {
			idx = append(idx, i)
		}
	}
	return d.SelectRows(idx)
}

// Append concatenates other's rows onto d and returns the combined dataset.
// The schemas must match exactly (names, order, kinds); the chunk layouts
// need not — the result reflows other's rows into d's canonical geometry.
func (d *Dataset) Append(other *Dataset) (*Dataset, error) {
	if len(d.cols) != len(other.cols) {
		return nil, fmt.Errorf("dataset: schema mismatch: %d vs %d columns", len(d.cols), len(other.cols))
	}
	for i := range d.cols {
		oc := other.cols[i]
		if oc.Name != d.cols[i].Name || oc.Kind != d.cols[i].Kind {
			return nil, fmt.Errorf("dataset: schema mismatch at column %d: %s/%s vs %s/%s",
				i, d.cols[i].Name, d.cols[i].Kind, oc.Name, oc.Kind)
		}
	}
	out := d.Clone()
	for i := range out.cols {
		c := out.mutableAt(i)
		c.appendCells(other.cols[i])
	}
	out.rows += other.rows
	return out, nil
}

// appendCells reflows every row of src onto the end of c, keeping c's
// canonical chunk layout. The column header must be exclusively owned. A
// Categorical src's codes are remapped into c's dictionary, interning each
// entry src's cells use once.
func (c *Column) appendCells(src *Column) {
	var remap []uint32 // src code -> c code + 1; 0 = not yet interned
	if c.Kind == Categorical {
		remap = make([]uint32, len(src.dict.vals))
	}
	// The last chunk may need to grow: copy it out of sharing first.
	if n := len(c.chunks); n > 0 && c.chunks[n-1].len() < c.csize {
		last := c.chunks[n-1]
		if last.shared.Load() {
			last = last.clone()
			c.chunks[n-1] = last
		}
		last.version.Add(1)
		c.markDirty()
	}
	for _, sch := range src.chunks {
		for off := 0; off < sch.len(); off++ {
			var last *chunk
			if n := len(c.chunks); n > 0 && c.chunks[n-1].len() < c.csize {
				last = c.chunks[n-1]
			} else {
				last = &chunk{start: c.rows}
				switch c.Kind {
				case Numeric:
					last.nums = make([]float64, 0, c.csize)
				case Categorical:
					last.codes = make([]uint32, 0, c.csize)
				default:
					last.strs = make([]string, 0, c.csize)
				}
				last.null = make([]bool, 0, c.csize)
				c.chunks = append(c.chunks, last)
				c.markDirty()
			}
			// Bulk-copy as many rows as fit in the last chunk.
			n := c.csize - last.len()
			if rem := sch.len() - off; n > rem {
				n = rem
			}
			switch c.Kind {
			case Numeric:
				last.nums = append(last.nums, sch.nums[off:off+n]...)
			case Categorical:
				for _, code := range sch.codes[off : off+n] {
					if remap[code] == 0 {
						remap[code] = c.internStr(src.dict.vals[code]) + 1
					}
					last.codes = append(last.codes, remap[code]-1)
				}
			default:
				last.strs = append(last.strs, sch.strs[off:off+n]...)
			}
			last.null = append(last.null, sch.null[off:off+n]...)
			c.rows += n
			off += n - 1
		}
	}
}

// Shuffle returns a copy of the dataset with rows permuted by rng.
func (d *Dataset) Shuffle(rng *rand.Rand) *Dataset {
	idx := rng.Perm(d.rows)
	return d.SelectRows(idx)
}

// Split partitions the dataset into a head of ⌈frac·n⌉ rows and the tail.
func (d *Dataset) Split(frac float64) (head, tail *Dataset) {
	n := int(math.Ceil(frac * float64(d.rows)))
	if n > d.rows {
		n = d.rows
	}
	hi := make([]int, n)
	ti := make([]int, d.rows-n)
	for i := range hi {
		hi[i] = i
	}
	for i := range ti {
		ti[i] = n + i
	}
	return d.SelectRows(hi), d.SelectRows(ti)
}

// Sample returns a uniform random sample (without replacement) of n rows.
// If n exceeds the row count the whole dataset is returned (shuffled).
func (d *Dataset) Sample(n int, rng *rand.Rand) *Dataset {
	if n >= d.rows {
		return d.Shuffle(rng)
	}
	idx := rng.Perm(d.rows)[:n]
	return d.SelectRows(idx)
}

// NumericValues returns the non-NULL values of a numeric column, in row
// order. The slice is the cached statistics block's and must not be
// mutated by the caller.
//
// Deprecated: materializes the full-vector statistics block — O(rows) on
// first access per column version. Prefer Rollup for scalar statistics and
// SampleView for bounded-size value subsets.
func (d *Dataset) NumericValues(attr string) []float64 {
	c := d.Column(attr)
	if c == nil || c.Kind != Numeric {
		return nil
	}
	return c.Stats().Nums
}

// SortedNumericValues returns the non-NULL values of a numeric column in
// ascending order. The slice is the cached statistics block's and must not
// be mutated by the caller.
//
// Deprecated: materializes and sorts the full value vector — O(rows·log
// rows) on first access per column version. Prefer Rollup's quantile sketch
// or SampleView for approximate order statistics.
func (d *Dataset) SortedNumericValues(attr string) []float64 {
	c := d.Column(attr)
	if c == nil || c.Kind != Numeric {
		return nil
	}
	return c.Stats().SortedNums
}

// StringValues returns the non-NULL values of a categorical or text column,
// in row order. The slice is the cached statistics block's and must not be
// mutated by the caller.
//
// Deprecated: materializes the full-vector statistics block — O(rows) on
// first access per column version. Prefer Rollup's domain counts or
// SampleView for bounded-size value subsets.
func (d *Dataset) StringValues(attr string) []string {
	c := d.Column(attr)
	if c == nil || c.Kind == Numeric {
		return nil
	}
	return c.Stats().Strs
}

// DistinctStrings returns the sorted distinct non-NULL values of a string
// column. The slice is the cached roll-up's and must not be mutated by the
// caller. Served from the per-chunk domain counts in O(#chunks) merges — no
// full vector is materialized. A Text column builds its domain counts on
// the first call per column version; to gate on domain size, DistinctCapped
// is cheaper.
func (d *Dataset) DistinctStrings(attr string) []string {
	c := d.Column(attr)
	if c == nil || c.Kind == Numeric {
		return []string{}
	}
	return c.Rollup().Distinct
}

// NullCount returns the number of NULL slots in the column, summed from
// the per-chunk statistics blocks in O(#chunks); it never builds a Text
// column's domain counts.
func (d *Dataset) NullCount(attr string) int {
	c := d.Column(attr)
	if c == nil {
		return 0
	}
	return c.nullCount()
}

// SchemaEqual reports whether two datasets share names, order, and kinds.
// Chunk layout is not part of the schema.
func (d *Dataset) SchemaEqual(other *Dataset) bool {
	if len(d.cols) != len(other.cols) {
		return false
	}
	for i, c := range d.cols {
		if other.cols[i].Name != c.Name || other.cols[i].Kind != c.Kind {
			return false
		}
	}
	return true
}

// Equal reports whether two datasets have identical schema and cell values.
// NaN numeric cells compare equal to NaN. The comparison is chunk-layout-
// agnostic: datasets with different chunk sizes but identical contents
// compare equal.
func (d *Dataset) Equal(other *Dataset) bool {
	if !d.SchemaEqual(other) || d.rows != other.rows {
		return false
	}
	for i, c := range d.cols {
		if !c.contentEqual(other.cols[i]) {
			return false
		}
	}
	return true
}

// contentEqual compares cell values across two columns of equal length with
// a dual chunk cursor, so the chunk boundaries of the two sides need not
// align. CoW-shared chunks compare pointer-equal and skip the cell walk.
// Categorical cells compare as codes when both columns use one dictionary
// and as strings otherwise.
func (c *Column) contentEqual(o *Column) bool {
	if c == o {
		return true
	}
	sameDict := c.dict == o.dict
	var ci, co, offC, offO int
	for done := 0; done < c.rows; {
		chc, cho := c.chunks[ci], o.chunks[co]
		if chc == cho && offC == 0 && offO == 0 {
			done += chc.len()
			ci, co = ci+1, co+1
			continue
		}
		n := chc.len() - offC
		if m := cho.len() - offO; m < n {
			n = m
		}
		for k := 0; k < n; k++ {
			if chc.null[offC+k] != cho.null[offO+k] {
				return false
			}
			if chc.null[offC+k] {
				continue
			}
			switch {
			case c.Kind == Numeric:
				a, b := chc.nums[offC+k], cho.nums[offO+k]
				if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
					return false
				}
			case c.Kind == Categorical && sameDict:
				if chc.codes[offC+k] != cho.codes[offO+k] {
					return false
				}
			case c.Kind == Categorical:
				if c.dict.vals[chc.codes[offC+k]] != o.dict.vals[cho.codes[offO+k]] {
					return false
				}
			default:
				if chc.strs[offC+k] != cho.strs[offO+k] {
					return false
				}
			}
		}
		done += n
		offC += n
		offO += n
		if offC == chc.len() {
			ci, offC = ci+1, 0
		}
		if offO == cho.len() {
			co, offO = co+1, 0
		}
	}
	return true
}

// String renders a short human-readable preview (schema plus up to 5 rows).
func (d *Dataset) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dataset(%d rows, %d cols)\n", d.rows, d.NumCols())
	for _, c := range d.cols {
		fmt.Fprintf(&b, "  %s %s", c.Name, c.Kind)
		n := c.Len()
		if n > 5 {
			n = 5
		}
		b.WriteString(" [")
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			if c.NullAt(i) {
				b.WriteString("NULL")
			} else if c.Kind == Numeric {
				fmt.Fprintf(&b, "%g", c.NumAt(i))
			} else {
				fmt.Fprintf(&b, "%q", c.StrAt(i))
			}
		}
		if c.Len() > 5 {
			b.WriteString(", …")
		}
		b.WriteString("]\n")
	}
	return b.String()
}
