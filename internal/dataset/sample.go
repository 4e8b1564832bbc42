// Deterministic stratified reservoir sampling, cached per chunk.
//
// A sample view is a row-subset Dataset drawn without replacement, stratified
// across chunks: the sample budget is apportioned over chunks proportionally
// to their row counts, and each chunk draws its quota of row offsets with a
// generator seeded by (seed, chunk start) — a pure function of (rows, chunk
// size, cap, seed), never of wall-clock or global math/rand state. Because
// the drawn offsets depend only on the chunk geometry, every column samples
// the same rows: cross-column profile fits (independence, functional
// dependencies, selectivity masks) see paired cells, exactly as if the rows
// had been SelectRows'd from the full dataset.
//
// Each chunk caches its extracted sample keyed by (chunk version, seed,
// quota). Chunks are shared across clones, so after a sparse write only the
// dirty chunks re-extract — re-profiling an intervention costs O(dirty
// chunks + cap), not O(rows).
package dataset

import "repro/internal/stats"

// chunkSample is the cached reservoir of one chunk: the cells (and NULL
// flags) at the chunk's sampled row offsets, keyed by the chunk version it
// was extracted at and the (seed, quota) pair that drew it.
type chunkSample struct {
	version uint64
	seed    int64
	quota   int

	nums  []float64
	strs  []string
	codes []uint32
	null  []bool
}

// sampleSlots draws the chunk's sampled row offsets: quota ascending
// distinct offsets, seeded per chunk so strata draw decorrelated index sets
// while remaining identical across columns (the chunk start and length are
// column-independent geometry).
func (ch *chunk) sampleSlots(quota int, seed int64) []int {
	return stats.SampleIndices(ch.len(), quota, stats.MixSeed(seed, uint64(ch.start)))
}

// sampleBlock returns the chunk's reservoir for (quota, seed), extracting
// and caching it on first use.
func (ch *chunk) sampleBlock(kind Kind, quota int, seed int64) *chunkSample {
	v := ch.version.Load()
	if s := ch.sample.Load(); s != nil && s.version == v && s.seed == seed && s.quota == quota {
		return s
	}
	idx := ch.sampleSlots(quota, seed)
	s := &chunkSample{version: v, seed: seed, quota: quota, null: make([]bool, len(idx))}
	switch kind {
	case Numeric:
		s.nums = make([]float64, len(idx))
		for j, i := range idx {
			s.nums[j] = ch.nums[i]
		}
	case Categorical:
		s.codes = make([]uint32, len(idx))
		for j, i := range idx {
			s.codes[j] = ch.codes[i]
		}
	default:
		s.strs = make([]string, len(idx))
		for j, i := range idx {
			s.strs[j] = ch.strs[i]
		}
	}
	for j, i := range idx {
		s.null[j] = ch.null[i]
	}
	ch.sample.Store(s)
	return s
}

// WarmChunkSample extracts and caches chunk i's reservoir for (quota, seed)
// if it is cold. Like WarmChunk, warming is idempotent and safe to fan out
// in parallel across (column, chunk) pairs; profile discovery warms samples
// alongside the statistics blocks so SampleView assembles from cache.
func (c *Column) WarmChunkSample(i, quota int, seed int64) {
	c.chunks[i].sampleBlock(c.Kind, quota, seed)
}

// SampleQuotas apportions a sample budget of cap rows across the dataset's
// chunks proportionally to their row counts (largest-remainder rounding).
// The result is a pure function of (rows, chunk size, cap) — identical for
// every column, since all columns share the canonical chunk geometry.
func (d *Dataset) SampleQuotas(cap int) []int {
	if len(d.cols) == 0 {
		return nil
	}
	c := d.cols[0]
	sizes := make([]int, len(c.chunks))
	for i, ch := range c.chunks {
		sizes[i] = ch.len()
	}
	return stats.ApportionSample(sizes, cap)
}

// sampleViewCache keys the dataset's assembled sample view by the sampling
// parameters and the exact column pointer/version pairs it was built from.
type sampleViewCache struct {
	cap  int
	seed int64
	cols []*Column
	vers []uint64
	view *Dataset
}

func (sc *sampleViewCache) valid(d *Dataset, cap int, seed int64) bool {
	if sc == nil || sc.cap != cap || sc.seed != seed || len(sc.cols) != len(d.cols) {
		return false
	}
	for i, c := range d.cols {
		if sc.cols[i] != c || sc.vers[i] != c.version.Load() {
			return false
		}
	}
	return true
}

// SampleView returns a deterministic stratified sample of the dataset with
// at most cap rows, drawn without replacement using the given seed. When cap
// is zero or negative, or the dataset already fits the budget (rows ≤ cap),
// the receiver itself is returned — the natural exact fallback, so
// small-dataset callers see byte-identical behavior.
//
// The view is assembled from per-chunk cached reservoirs (re-extracting only
// chunks mutated since the last draw) and is itself cached on the dataset,
// keyed by (cap, seed) and the column versions. The view is shared and
// read-only: Clone it before mutating, exactly like any dataset obtained
// from another.
func (d *Dataset) SampleView(cap int, seed int64) *Dataset {
	if cap <= 0 || d.rows <= cap || len(d.cols) == 0 {
		return d
	}
	if sc := d.sview.Load(); sc.valid(d, cap, seed) {
		return sc.view
	}
	quotas := d.SampleQuotas(cap)
	out := NewChunked(d.csize)
	sc := &sampleViewCache{
		cap:  cap,
		seed: seed,
		cols: make([]*Column, len(d.cols)),
		vers: make([]uint64, len(d.cols)),
		view: out,
	}
	for i, c := range d.cols {
		sc.cols[i] = c
		sc.vers[i] = c.version.Load()
		null := make([]bool, 0, cap)
		var nums []float64
		var strs []string
		var codes []uint32
		switch c.Kind {
		case Numeric:
			nums = make([]float64, 0, cap)
		case Categorical:
			codes = make([]uint32, 0, cap)
		default:
			strs = make([]string, 0, cap)
		}
		for k, ch := range c.chunks {
			if quotas[k] == 0 {
				continue
			}
			s := ch.sampleBlock(c.Kind, quotas[k], seed)
			nums = append(nums, s.nums...)
			strs = append(strs, s.strs...)
			codes = append(codes, s.codes...)
			null = append(null, s.null...)
		}
		nc := &Column{Name: c.Name, Kind: c.Kind, rows: len(null), dict: c.shareDict()}
		if err := out.addColumn(layoutColumn(nc, nums, strs, codes, null, d.csize)); err != nil {
			panic(err) // cannot happen: schema mirrors a valid dataset
		}
	}
	d.sview.Store(sc)
	return out
}
