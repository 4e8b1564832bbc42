// Copy-on-write column sharing, column versioning, and the shared per-column
// statistics, all at chunk granularity.
//
// Dataset.Clone is an O(#cols) header copy: the clone references the same
// *Column values as the source, and both sides mark the columns shared. The
// first write to a shared column — via MutableColumn or the Set* methods —
// copies just the column header (O(#chunks) pointers), marking the chunks
// shared; each chunk is then deep-copied individually on its first write
// (MutableChunk), so a single-attribute, single-chunk intervention costs
// O(chunk size), not O(rows).
//
// Every column carries a version counter bumped on each chunk mutation
// grant, and every chunk carries its own. The cached content digest
// (fingerprint.go), the ColumnRollup, and the legacy ColumnStats block are
// keyed by the column counter; the per-chunk digest partials, statistics
// blocks, and reservoir samples (sample.go) are keyed by the chunk counters.
// After a mutation only the dirty chunks rescan — the column-level values
// are cheap merges of the per-chunk blocks.
//
// Two column-level statistics surfaces exist:
//
//   - ColumnRollup (Rollup) is the primary one: constant-size scalars,
//     domain counts, and a quantile sketch merged from the per-chunk blocks
//     in O(#chunks) — never materializing row-length vectors. Profile
//     discovery and transform fitting read this.
//   - ColumnStats (Stats) is the deprecated full-vector block: it keeps the
//     historical Nums/SortedNums/Strs fields but now materializes them
//     lazily at O(rows) cost on first access. Only callers that genuinely
//     need every value should use it.
//
// Contract for writers: never mutate slices obtained from Chunk views or
// either statistics block — request MutableColumn, then MutableChunk for
// each chunk written, and do all raw writes before the column is next
// observed (Digest, Stats, Rollup, Fingerprint). The Set* methods follow
// this protocol internally and are always safe. The cowmutate analyzer
// (internal/lint) flags violations statically.
package dataset

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// MutableColumn returns the named column prepared for in-place mutation: if
// the column is shared with another dataset (after a Clone), its header is
// copied first — an O(#chunks) pointer copy that marks every chunk shared —
// and the copy replaces it in d, so writes never leak into other datasets.
// Cell writes then go through MutableChunk, which copies and dirties only
// the touched chunk (or PrivatizeChunks for dense writes). Returns nil if
// the column does not exist.
func (d *Dataset) MutableColumn(name string) *Column {
	i, ok := d.byName[name]
	if !ok {
		return nil
	}
	return d.mutableAt(i)
}

// mutableAt is MutableColumn by schema index.
func (d *Dataset) mutableAt(i int) *Column {
	c := d.cols[i]
	if c.shared.Load() {
		c = c.cloneHeader()
		d.cols[i] = c
	}
	return c
}

// markDirty invalidates the column's cached digest and statistics. Chunk
// caches are invalidated by the per-chunk version bump in MutableChunk.
func (c *Column) markDirty() { c.version.Add(1) }

// chunkStats is the per-chunk statistics block: NULL count plus a mergeable
// summary of the chunk's non-NULL cells — moments and a quantile sketch for
// numeric chunks, per-code counts for categorical chunks. The block holds
// no row-length vectors, and column-level statistics are merges of these,
// so after a sparse write only the dirty chunks rescan. A Text chunk's
// domain counts live apart, in textDomain, computed only when a roll-up
// asks for them.
type chunkStats struct {
	version uint64 // chunk version the block was computed at

	nulls   int
	moments stats.Moments
	sketch  *stats.QuantileSketch
	counts  []int // Categorical: non-NULL cells per code, up to the largest code used
}

// statsBlock returns the chunk's statistics block, computing and caching it
// on first use, keyed by the chunk version.
func (ch *chunk) statsBlock(kind Kind) *chunkStats {
	v := ch.version.Load()
	if s := ch.stats.Load(); s != nil && s.version == v {
		return s
	}
	s := &chunkStats{version: v}
	for _, isNull := range ch.null {
		if isNull {
			s.nulls++
		}
	}
	if kind == Numeric {
		// Scratch vector of the chunk's non-NULL values: summarized into the
		// constant-size block and released — the chunk never retains O(rows)
		// derived state.
		vals := make([]float64, 0, len(ch.nums)-s.nulls)
		for i, val := range ch.nums {
			if !ch.null[i] {
				vals = append(vals, val)
			}
		}
		s.moments = stats.MomentsOf(vals)
		sort.Float64s(vals)
		s.sketch = stats.SketchSorted(vals, stats.SketchSize)
	} else if kind == Categorical {
		top := -1
		for i, code := range ch.codes {
			if !ch.null[i] && int(code) > top {
				top = int(code)
			}
		}
		s.counts = make([]int, top+1)
		for i, code := range ch.codes {
			if !ch.null[i] {
				s.counts[code]++
			}
		}
	}
	ch.stats.Store(s)
	return s
}

// textDomain is a Text chunk's domain counts, keyed by the chunk version
// they were computed at.
type textDomain struct {
	version uint64
	counts  map[string]int
}

// textCounts returns the Text chunk's per-value counts of non-NULL cells,
// computing and caching them on first use.
func (ch *chunk) textCounts() map[string]int {
	v := ch.version.Load()
	if t := ch.domain.Load(); t != nil && t.version == v {
		return t.counts
	}
	t := &textDomain{version: v, counts: make(map[string]int)}
	for i, val := range ch.strs {
		if !ch.null[i] {
			t.counts[val]++
		}
	}
	ch.domain.Store(t)
	return t.counts
}

// ColumnRollup is the column-level merge of the per-chunk statistics blocks:
// row/NULL counts, moments and extrema with a mergeable quantile sketch for
// numeric columns, and domain counts with the sorted distinct values for
// string columns. It is the primary statistics surface — computing it costs
// O(#chunks) merges over cached chunk blocks (only dirty chunks rescan) and
// it never materializes row-length value vectors; use the deprecated Stats
// block only when the full vectors are genuinely required. All fields are
// read-only for callers; the slices are shared, never mutate them.
type ColumnRollup struct {
	version uint64 // column version the roll-up was computed at

	// Rows is the column length; Nulls the number of NULL slots.
	Rows, Nulls int

	// Numeric columns: Moments summarizes the non-NULL values (count, sum,
	// mean, M2, NaN-skipping extrema) and Sketch answers approximate
	// quantiles within Sketch.RankError() of exact.
	Moments stats.Moments
	Sketch  *stats.QuantileSketch

	// String columns: Distinct holds the sorted distinct non-NULL values
	// and Counts their multiplicities, Counts[i] for Distinct[i].
	Counts   []int
	Distinct []string
}

// Mean returns the mean of the non-NULL numeric values (NaN when none).
// Multi-chunk columns report the merged value, equal to the flat computation
// up to floating-point association error.
func (r *ColumnRollup) Mean() float64 {
	if r.Moments.Count == 0 {
		return math.NaN()
	}
	return r.Moments.Mean
}

// StdDev returns the population standard deviation of the non-NULL numeric
// values (NaN when none), merged like Mean.
func (r *ColumnRollup) StdDev() float64 {
	if r.Moments.Count == 0 {
		return math.NaN()
	}
	return r.Moments.StdDev()
}

// Min returns the smallest non-NULL, non-NaN numeric value (NaN when none).
func (r *ColumnRollup) Min() float64 {
	if r.Moments.Count == 0 {
		return math.NaN()
	}
	return r.Moments.Min
}

// Max returns the largest non-NULL, non-NaN numeric value (NaN when none).
func (r *ColumnRollup) Max() float64 {
	if r.Moments.Count == 0 {
		return math.NaN()
	}
	return r.Moments.Max
}

// Quantile returns an approximate q-quantile of the non-NULL numeric values
// from the merged sketch, within Sketch.RankError() ranks of exact.
func (r *ColumnRollup) Quantile(q float64) float64 { return r.Sketch.Quantile(q) }

// Rollup returns the column's statistics roll-up, computing and caching it
// on first use. The cache is invalidated by chunk mutation grants and shared
// by every dataset referencing the column; recomputation merges the cached
// per-chunk blocks, so it rescans only chunks mutated since the last
// observation.
func (c *Column) Rollup() *ColumnRollup {
	v := c.version.Load()
	if r := c.rollup.Load(); r != nil && r.version == v {
		return r
	}
	r := c.computeRollup(v)
	c.rollup.Store(r)
	return r
}

// computeRollup merges the per-chunk statistics blocks. Categorical counts
// merge by code, and only the dictionary entries in use are sorted.
func (c *Column) computeRollup(version uint64) *ColumnRollup {
	r := &ColumnRollup{version: version, Rows: c.rows, Nulls: c.nullCount()}
	switch c.Kind {
	case Numeric:
		for _, ch := range c.chunks {
			p := ch.statsBlock(Numeric)
			r.Moments = r.Moments.Merge(p.moments)
			r.Sketch = r.Sketch.Merge(p.sketch)
		}
	case Categorical:
		dict := c.dict.vals
		total := make([]int, len(dict))
		for _, ch := range c.chunks {
			for code, n := range ch.statsBlock(Categorical).counts {
				total[code] += n
			}
		}
		var used []uint32
		for code, n := range total {
			if n > 0 {
				used = append(used, uint32(code))
			}
		}
		sort.Slice(used, func(i, j int) bool { return dict[used[i]] < dict[used[j]] })
		r.Distinct = make([]string, len(used))
		r.Counts = make([]int, len(used))
		for i, code := range used {
			r.Distinct[i], r.Counts[i] = dict[code], total[code]
		}
	default:
		merged := make(map[string]int)
		for _, ch := range c.chunks {
			for val, n := range ch.textCounts() {
				merged[val] += n
			}
		}
		r.Distinct = make([]string, 0, len(merged))
		for val := range merged {
			r.Distinct = append(r.Distinct, val)
		}
		sort.Strings(r.Distinct)
		r.Counts = make([]int, len(r.Distinct))
		for i, val := range r.Distinct {
			r.Counts[i] = merged[val]
		}
	}
	return r
}

// nullCount sums the per-chunk NULL counts.
func (c *Column) nullCount() int {
	n := 0
	for _, ch := range c.chunks {
		n += ch.statsBlock(c.Kind).nulls
	}
	return n
}

// DistinctCapped returns the number of distinct non-NULL values of the
// named string column, or cap+1 if there are more than cap — the probe
// domain-size gates use. A Text column whose roll-up is not cached is
// scanned only until the (cap+1)-th distinct value, without building or
// sorting its domain counts. Numeric and missing columns report 0.
func (d *Dataset) DistinctCapped(attr string, cap int) int {
	c := d.Column(attr)
	if c == nil || c.Kind == Numeric {
		return 0
	}
	if r := c.rollup.Load(); c.Kind == Categorical || (r != nil && r.version == c.version.Load()) {
		return min(len(c.Rollup().Distinct), cap+1)
	}
	seen := make(map[string]struct{})
	for _, ch := range c.chunks {
		for i, val := range ch.strs {
			if ch.null[i] {
				continue
			}
			if _, ok := seen[val]; !ok {
				if len(seen) == cap {
					return cap + 1
				}
				seen[val] = struct{}{}
			}
		}
	}
	return len(seen)
}

// ColumnStats is the deprecated full-vector statistics block: NULL counts,
// the non-NULL value vectors in row order, a sorted numeric copy, moments,
// extrema, and domain counts. The vectors are materialized lazily at O(rows)
// cost on first access — every scalar here is served in O(#chunks) by
// Rollup, which new code should prefer. The block remains cached per column
// version and shared across clones so existing callers keep their
// amortization. All fields are read-only for callers; the slices are shared,
// never mutate them.
type ColumnStats struct {
	version uint64 // column version the block was computed at

	// Rows is the column length; Nulls the number of NULL slots.
	Rows, Nulls int

	// Numeric columns: Nums holds the non-NULL values in row order,
	// SortedNums an ascending copy, and Mean/StdDev/Min/Max the usual
	// moments and extrema (NaN for an empty column). The scalars equal the
	// Rollup values (merged across chunks).
	Nums       []float64
	SortedNums []float64
	Mean       float64
	StdDev     float64
	Min, Max   float64

	// String columns: Strs holds the non-NULL values in row order. For
	// Categorical columns Distinct and Counts are the roll-up's (sorted
	// distinct values and their multiplicities); for Text columns they are
	// nil — the domain counts are built only on demand, through Rollup or
	// Dataset.DistinctStrings.
	Strs     []string
	Counts   []int
	Distinct []string
}

// Stats returns the column's full-vector statistics block, computing and
// caching it on first use.
//
// Deprecated: materializing the block costs O(rows) — it concatenates the
// non-NULL values and sorts a copy. Use Rollup for scalars, domain counts,
// and approximate quantiles (O(#chunks) over cached per-chunk blocks), and
// Dataset.SampleView for fitting on bounded row subsets; reach for Stats
// only when every value is genuinely required.
func (c *Column) Stats() *ColumnStats {
	v := c.version.Load()
	if s := c.stats.Load(); s != nil && s.version == v {
		return s
	}
	s := c.computeStats(v)
	c.stats.Store(s)
	return s
}

// computeStats materializes the full-vector block: row-order concatenation
// of the non-NULL cells (layout-agnostic by construction) plus a sorted copy
// via sort.Float64s, with the scalar fields shared with the roll-up. A Text
// column's block leaves its roll-up unbuilt.
func (c *Column) computeStats(version uint64) *ColumnStats {
	s := &ColumnStats{version: version, Rows: c.rows, Nulls: c.nullCount()}
	if c.Kind == Numeric {
		r := c.Rollup()
		s.Nums = make([]float64, 0, c.rows-r.Nulls)
		for _, ch := range c.chunks {
			for i, val := range ch.nums {
				if !ch.null[i] {
					s.Nums = append(s.Nums, val)
				}
			}
		}
		s.SortedNums = append([]float64(nil), s.Nums...)
		sort.Float64s(s.SortedNums)
		s.Mean = r.Mean()
		s.StdDev = r.StdDev()
		s.Min = r.Min()
		s.Max = r.Max()
		return s
	}
	s.Strs = make([]string, 0, c.rows-s.Nulls)
	for _, ch := range c.chunks {
		v := ch.view(c.dict)
		for i, null := range v.Null {
			if !null {
				s.Strs = append(s.Strs, v.Str(i))
			}
		}
	}
	if c.Kind == Categorical {
		r := c.Rollup()
		s.Counts = r.Counts
		s.Distinct = r.Distinct
	}
	return s
}

// Stats returns the full-vector statistics block of the named column, or nil
// if the column does not exist.
//
// Deprecated: O(rows) on first access per column version; prefer
// Dataset.Rollup. See Column.Stats.
func (d *Dataset) Stats(attr string) *ColumnStats {
	c := d.Column(attr)
	if c == nil {
		return nil
	}
	return c.Stats()
}

// Rollup returns the statistics roll-up of the named column, or nil if the
// column does not exist.
func (d *Dataset) Rollup(attr string) *ColumnRollup {
	c := d.Column(attr)
	if c == nil {
		return nil
	}
	return c.Rollup()
}
