// Chunked columnar storage: every Column stores its cells as a sequence of
// fixed-size chunks rather than one flat slice. The chunk — not the column —
// is the unit of copy-on-write, digesting, and statistics:
//
//   - Clone shares chunks between datasets; the first write to a shared
//     chunk (MutableChunk, Set*) copies just that chunk, so a single-cell
//     intervention on a 10M-row column costs O(chunk), not O(column).
//   - Each chunk caches a mergeable digest partial (fingerprint.go) and a
//     statistics roll-up (cow.go), both keyed by a per-chunk version
//     counter; after a mutation only the dirty chunks recompute.
//   - All chunks of a column hold exactly the column's chunk size rows
//     except the last (the canonical layout), so a column's geometry is a
//     pure function of (rows, chunk size). Digests, statistics, Equal, and
//     the CSV round trip are chunk-layout-agnostic: datasets with identical
//     contents but different chunk sizes compare equal and fingerprint
//     equal.
//
// Categorical cells are stored as uint32 codes into a per-column dictionary
// (dict.go); Text cells as strings.
//
// Readers iterate chunk-at-a-time via NumChunks/Chunk, or cell-at-a-time
// via NumAt/StrAt/NullAt. Writers follow the CoW contract (cow.go): obtain
// the column from Dataset.MutableColumn, then request MutableChunk for each
// chunk they write — writing through a Chunk view corrupts every dataset
// sharing the chunk, and the cowmutate analyzer flags it.
package dataset

import (
	"sync/atomic"

	"repro/internal/stats"
)

// DefaultChunkSize is the number of rows per chunk used by New and ReadCSV
// unless overridden (NewChunked, InferOptions.ChunkSize). 64Ki rows keeps a
// numeric chunk at 512 KiB — large enough to amortize per-chunk overhead,
// small enough that a single-cell write dirties a sliver of a big column.
const DefaultChunkSize = 1 << 16

// chunk is one fixed-size window of a column: value cells (nums for
// Numeric, codes into the column dictionary for Categorical, strs for
// Text), the NULL mask, and the per-chunk caches. Chunks are shared
// between datasets after Clone; the shared flag makes the next mutation
// grant copy the chunk first. version counts mutation grants and keys the
// digest and stats caches.
type chunk struct {
	start int // global row index of the chunk's first row
	nums  []float64
	strs  []string
	codes []uint32
	null  []bool

	shared   atomic.Bool
	version  atomic.Uint64
	digest   atomic.Uint64 // cached mergeable digest partial (fingerprint.go)
	digestAt atomic.Uint64 // version+1 at which digest was computed; 0 = none
	stats    atomic.Pointer[chunkStats]
	domain   atomic.Pointer[textDomain]  // cached Text domain counts (cow.go)
	sample   atomic.Pointer[chunkSample] // cached reservoir sample (sample.go)
}

// len returns the number of rows in the chunk.
func (ch *chunk) len() int { return len(ch.null) }

// clone returns a deep copy of the chunk's cells with cold caches. It is
// called only from mutation grants, where the caches would be invalidated
// immediately anyway.
func (ch *chunk) clone() *chunk {
	cp := &chunk{start: ch.start}
	if ch.nums != nil {
		cp.nums = append([]float64(nil), ch.nums...)
	}
	if ch.strs != nil {
		cp.strs = append([]string(nil), ch.strs...)
	}
	if ch.codes != nil {
		cp.codes = append([]uint32(nil), ch.codes...)
	}
	cp.null = append([]bool(nil), ch.null...)
	return cp
}

// ChunkView is a read-only window over one chunk of a column. Start is the
// global row index of the view's first row; the slices are the chunk's
// backing storage. Views returned by Chunk alias state shared across
// datasets and must never be written through; views returned by
// MutableChunk are the sanctioned write path.
//
// A Categorical view carries Codes and the column's dictionary Dict
// (cell i holds Dict[Codes[i]]) and a nil Strs; a Text view carries Strs.
// Str reads a cell of either; SetStr writes one through a mutable view.
type ChunkView struct {
	Start int
	Nums  []float64 // populated for Numeric columns
	Strs  []string  // populated for Text columns
	Codes []uint32  // populated for Categorical columns: codes into Dict
	Dict  []string  // Categorical columns: the dictionary when the view was taken
	Null  []bool

	col *Column // the owning column, on views from MutableChunk only
}

// Len returns the number of rows in the view.
func (v ChunkView) Len() int { return len(v.Null) }

// Str returns the string cell i of a Categorical or Text view, ignoring
// the NULL mask.
func (v ChunkView) Str(i int) string {
	if v.Codes != nil {
		return v.Dict[v.Codes[i]]
	}
	return v.Strs[i]
}

// SetStr stores s in cell i of a view returned by MutableChunk, leaving the
// NULL flag as it is. On a Categorical view it interns s into the column's
// dictionary and refreshes the view's Dict. It panics on a
// read-only view from Chunk.
func (v *ChunkView) SetStr(i int, s string) {
	if v.col == nil {
		panic("dataset: SetStr on a read-only chunk view; obtain the view via MutableChunk")
	}
	if v.Codes == nil {
		v.Strs[i] = s
		return
	}
	v.Codes[i] = v.col.internStr(s)
	v.Dict = v.col.dict.vals
}

// NumChunks returns the number of chunks the column's rows occupy.
func (c *Column) NumChunks() int { return len(c.chunks) }

// ChunkSize returns the column's rows-per-chunk capacity.
func (c *Column) ChunkSize() int { return c.csize }

// Chunk returns a read-only view of chunk i. Callers must not mutate the
// view's slices — they are shared across every dataset referencing the
// chunk; use MutableChunk to write.
func (c *Column) Chunk(i int) ChunkView { return c.chunks[i].view(c.dict) }

func (ch *chunk) view(dc *dictionary) ChunkView {
	v := ChunkView{Start: ch.start, Nums: ch.nums, Strs: ch.strs, Codes: ch.codes, Null: ch.null}
	if dc != nil {
		v.Dict = dc.vals
	}
	return v
}

// MutableChunk returns a writable view of chunk i, copying the chunk first
// if it is shared with another dataset and bumping the chunk and column
// versions so the digest and statistics caches recompute. The column itself
// must be exclusively owned — obtained from Dataset.MutableColumn (or never
// cloned); calling MutableChunk on a column header shared between datasets
// panics, because the write would leak into every clone.
func (c *Column) MutableChunk(i int) ChunkView {
	if c.shared.Load() {
		panic("dataset: MutableChunk on a column shared between datasets; obtain the column via Dataset.MutableColumn first")
	}
	ch := c.chunks[i]
	if ch.shared.Load() {
		ch = ch.clone()
		c.chunks[i] = ch
	}
	ch.version.Add(1)
	c.markDirty()
	v := ch.view(c.dict)
	v.col = c
	return v
}

// chunkOf maps a global row index to (chunk index, offset inside the
// chunk). Power-of-two chunk sizes (the default) resolve with shift/mask.
func (c *Column) chunkOf(row int) (ci, off int) {
	if c.mask >= 0 {
		return row >> c.shift, row & c.mask
	}
	return row / c.csize, row % c.csize
}

// NumAt returns the raw numeric cell at the global row index, ignoring the
// NULL mask (a NULL slot returns whatever stale value it holds — check
// NullAt first, or use Dataset.Num for the NaN-on-NULL convention).
func (c *Column) NumAt(row int) float64 {
	ci, off := c.chunkOf(row)
	return c.chunks[ci].nums[off]
}

// StrAt returns the raw string cell at the global row index, ignoring the
// NULL mask.
func (c *Column) StrAt(row int) string {
	ci, off := c.chunkOf(row)
	if c.dict != nil {
		return c.dict.vals[c.chunks[ci].codes[off]]
	}
	return c.chunks[ci].strs[off]
}

// NullAt reports whether the cell at the global row index is NULL.
func (c *Column) NullAt(row int) bool {
	ci, off := c.chunkOf(row)
	return c.chunks[ci].null[off]
}

// WarmChunk computes and caches chunk i's statistics block and digest
// partial if they are cold. Warming is idempotent and safe to fan out in
// parallel across (column, chunk) pairs — profile discovery uses this to
// parallelize the per-chunk scans ahead of the cheap merge.
//
// A Text chunk's domain counts are not warmed: they cost a map insert per
// cell and only DistinctStrings/Rollup on the column read them, on demand.
func (c *Column) WarmChunk(i int) {
	ch := c.chunks[i]
	ch.statsBlock(c.Kind)
	ch.digestPartial(c.Kind, c.Dict())
}

// ChunkMoments returns the mergeable moment summary of chunk i's non-NULL
// numeric cells (count, sum, mean, M2, NaN-skipping extrema), computing and
// caching the chunk's statistics block if cold. Transforms use the per-chunk
// extrema to skip chunks a clamp provably leaves untouched. The zero Moments
// is returned for non-numeric columns.
func (c *Column) ChunkMoments(i int) stats.Moments {
	if c.Kind != Numeric {
		return stats.Moments{}
	}
	return c.chunks[i].statsBlock(Numeric).moments
}

// PrivatizeChunks prepares every chunk of the column for in-place writes in
// one allocation sweep: all chunks still shared with other datasets are
// deep-copied into freshly allocated contiguous backing slabs (one values
// slab, one NULL-mask slab, one chunk-struct slab) instead of one
// allocation trio per chunk. Cell contents and all per-chunk caches (stats,
// digest, sample) carry over, so chunks the caller ends up not writing keep
// their warm caches.
//
// Use this before a dense write — a transform that touches most chunks —
// then request MutableChunk per written chunk as usual: the grants find the
// chunks unshared and only bump versions, so a dense transform performs
// O(1) allocations instead of O(#chunks). Like MutableChunk, the column
// header must be exclusively owned (Dataset.MutableColumn) or the call
// panics.
func (c *Column) PrivatizeChunks() {
	if c.shared.Load() {
		panic("dataset: PrivatizeChunks on a column shared between datasets; obtain the column via Dataset.MutableColumn first")
	}
	nShared, cells := 0, 0
	for _, ch := range c.chunks {
		if ch.shared.Load() {
			nShared++
			cells += ch.len()
		}
	}
	if nShared == 0 {
		return
	}
	structs := make([]chunk, nShared)
	nullSlab := make([]bool, cells)
	var numsSlab []float64
	var strsSlab []string
	var codesSlab []uint32
	switch c.Kind {
	case Numeric:
		numsSlab = make([]float64, cells)
	case Categorical:
		codesSlab = make([]uint32, cells)
	default:
		strsSlab = make([]string, cells)
	}
	si, off := 0, 0
	for i, ch := range c.chunks {
		if !ch.shared.Load() {
			continue
		}
		cp := &structs[si]
		si++
		n := ch.len()
		end := off + n
		cp.start = ch.start
		switch c.Kind {
		case Numeric:
			cp.nums = numsSlab[off:end:end]
			copy(cp.nums, ch.nums)
		case Categorical:
			cp.codes = codesSlab[off:end:end]
			copy(cp.codes, ch.codes)
		default:
			cp.strs = strsSlab[off:end:end]
			copy(cp.strs, ch.strs)
		}
		cp.null = nullSlab[off:end:end]
		copy(cp.null, ch.null)
		off = end
		// Content is identical, so the source chunk's caches stay valid on
		// the copy: replay its version and carry the cache entries over.
		cp.version.Store(ch.version.Load())
		cp.digest.Store(ch.digest.Load())
		cp.digestAt.Store(ch.digestAt.Load())
		cp.stats.Store(ch.stats.Load())
		cp.domain.Store(ch.domain.Load())
		cp.sample.Store(ch.sample.Load())
		c.chunks[i] = cp
	}
}

// newColumn chunks the given cell slices into the canonical layout for the
// chunk size: the slices are windowed in place (no copy) with full-capacity
// bounds so later growth of one chunk cannot bleed into the next. A nil
// null mask allocates an all-false mask per chunk. A Categorical column's
// strings are dictionary-encoded first (newCodedColumn takes codes).
func newColumn(name string, kind Kind, nums []float64, strs []string, null []bool, csize int) *Column {
	if kind == Categorical {
		dc, codes := encodeStrings(strs)
		return newCodedColumn(name, dc, codes, null, csize)
	}
	n := len(nums)
	if kind != Numeric {
		n = len(strs)
	}
	return layoutColumn(&Column{Name: name, Kind: kind, rows: n}, nums, strs, nil, null, csize)
}

// newCodedColumn builds a Categorical column over codes into dc; see
// newColumn.
func newCodedColumn(name string, dc *dictionary, codes []uint32, null []bool, csize int) *Column {
	return layoutColumn(&Column{Name: name, Kind: Categorical, rows: len(codes), dict: dc}, nil, nil, codes, null, csize)
}

// layoutColumn windows the cell slice of c's kind into c's chunks.
func layoutColumn(c *Column, nums []float64, strs []string, codes []uint32, null []bool, csize int) *Column {
	if csize < 1 {
		csize = DefaultChunkSize
	}
	n, kind := c.rows, c.Kind
	c.csize = csize
	c.shift, c.mask = chunkShiftMask(csize)
	c.chunks = make([]*chunk, 0, (n+csize-1)/csize)
	for start := 0; start < n; start += csize {
		end := start + csize
		if end > n {
			end = n
		}
		ch := &chunk{start: start}
		switch kind {
		case Numeric:
			ch.nums = nums[start:end:end]
		case Categorical:
			ch.codes = codes[start:end:end]
		default:
			ch.strs = strs[start:end:end]
		}
		if null != nil {
			ch.null = null[start:end:end]
		} else {
			ch.null = make([]bool, end-start)
		}
		c.chunks = append(c.chunks, ch)
	}
	return c
}

// chunkShiftMask returns the shift/mask pair for power-of-two chunk sizes,
// or (0, -1) when the size needs the general divide path.
func chunkShiftMask(csize int) (uint, int) {
	if csize&(csize-1) != 0 {
		return 0, -1
	}
	shift := uint(0)
	for 1<<shift != csize {
		shift++
	}
	return shift, csize - 1
}

// cloneHeader returns a new column header referencing the same chunks,
// marking every chunk shared. Cell content is untouched; subsequent writes
// copy individual chunks. Caches start cold — the caller is about to
// mutate, which would invalidate them anyway.
func (c *Column) cloneHeader() *Column {
	cp := &Column{Name: c.Name, Kind: c.Kind, rows: c.rows, csize: c.csize, shift: c.shift, mask: c.mask, dict: c.shareDict()}
	cp.chunks = make([]*chunk, len(c.chunks))
	for i, ch := range c.chunks {
		ch.shared.Store(true)
		cp.chunks[i] = ch
	}
	return cp
}

// Rechunk returns a content-identical copy of the dataset laid out with the
// given chunk size. Digests, statistics, and Equal are layout-agnostic, so
// the result fingerprints and compares equal to the receiver; only the
// granularity of copy-on-write and incremental recomputation changes.
func (d *Dataset) Rechunk(size int) *Dataset {
	if size < 1 {
		size = DefaultChunkSize
	}
	out := NewChunked(size)
	for _, c := range d.cols {
		var nums []float64
		var strs []string
		var codes []uint32
		null := make([]bool, 0, c.rows)
		switch c.Kind {
		case Numeric:
			nums = make([]float64, 0, c.rows)
		case Categorical:
			codes = make([]uint32, 0, c.rows)
		default:
			strs = make([]string, 0, c.rows)
		}
		for _, ch := range c.chunks {
			nums = append(nums, ch.nums...)
			strs = append(strs, ch.strs...)
			codes = append(codes, ch.codes...)
			null = append(null, ch.null...)
		}
		nc := &Column{Name: c.Name, Kind: c.Kind, rows: c.rows, dict: c.shareDict()}
		if err := out.addColumn(layoutColumn(nc, nums, strs, codes, null, size)); err != nil {
			panic(err) // cannot happen: schema mirrors a valid dataset
		}
	}
	return out
}
