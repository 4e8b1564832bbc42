// Package cowmutate is the golden fixture for the cowmutate analyzer:
// every flagged line mutates CoW-shared dataset state obtained from a read
// accessor; the good* functions prove the MutableColumn/MutableChunk route
// and defensive-copy idioms are not flagged.
package cowmutate

import (
	"sort"

	"repro/internal/dataset"
)

func badChunkWrite(d *dataset.Dataset) {
	v := d.Column("x").Chunk(0)
	v.Nums[0] = 1 // want `obtained from dataset\.Column\.Chunk mutates CoW-shared state`
}

func badChunkDirectWrite(d *dataset.Dataset) {
	d.Column("x").Chunk(0).Null[0] = true // want `dataset\.Column\.Chunk`
}

func badMutableColumnChunkWrite(d *dataset.Dataset) {
	// MutableColumn privatizes the column header only; Chunk still hands out
	// a read-only view of chunk storage shared with other datasets.
	c := d.MutableColumn("x")
	v := c.Chunk(0)
	v.Strs[0] = "z" // want `dataset\.Column\.Chunk`
}

func badStatsWrite(d *dataset.Dataset) {
	st := d.Stats("x")
	st.Nums[0] = 3 // want `dataset\.Stats`
}

func badColumnStatsWrite(d *dataset.Dataset) {
	st := d.Column("x").Stats()
	st.SortedNums[0] = 3 // want `dataset\.Column\.Stats`
}

func badRollupWrite(d *dataset.Dataset) {
	r := d.Rollup("x")
	r.Distinct[0] = "z" // want `dataset\.Rollup`
}

func badColumnRollupSort(d *dataset.Dataset) {
	sort.Strings(d.Column("x").Rollup().Distinct) // want `sorts a slice obtained from dataset\.Column\.Rollup in place`
}

func badValuesWrite(d *dataset.Dataset) {
	nums := d.NumericValues("x")
	nums[0] = 2 // want `dataset\.NumericValues`
}

func badSortedInPlaceSort(d *dataset.Dataset) {
	sort.Float64s(d.SortedNumericValues("x")) // want `sorts a slice obtained from dataset\.SortedNumericValues in place`
}

func badChunkSort(d *dataset.Dataset) {
	sort.Float64s(d.Column("x").Chunk(0).Nums) // want `sorts a slice obtained from dataset\.Column\.Chunk in place`
}

func badPropagatedSort(d *dataset.Dataset) {
	vals := d.StringValues("x")
	alias := vals
	sort.Strings(alias) // want `dataset\.StringValues`
}

func badRangeColumns(d *dataset.Dataset) {
	for _, col := range d.Columns() {
		col.Chunk(0).Strs[0] = "z" // want `dataset\.Column\.Chunk`
	}
}

func badCopyInto(d *dataset.Dataset, src []float64) {
	copy(d.NumericValues("x"), src) // want `copy into .* dataset\.NumericValues`
}

func badCopyIntoChunk(d *dataset.Dataset, src []float64) {
	copy(d.Column("x").Chunk(0).Nums, src) // want `copy into .* dataset\.Column\.Chunk`
}

func badAppendTo(d *dataset.Dataset) []float64 {
	return append(d.NumericValues("x"), 3) // want `append to .* dataset\.NumericValues`
}

func badReslice(d *dataset.Dataset) {
	head := d.SortedNumericValues("x")[:2]
	head[0] = 0 // want `dataset\.SortedNumericValues`
}

func badChunkReslice(d *dataset.Dataset) {
	head := d.Column("x").Chunk(0).Nums[:1]
	head[0] = 0 // want `dataset\.Column\.Chunk`
}

func badIncrement(d *dataset.Dataset) {
	d.Column("x").Chunk(0).Nums[0]++ // want `dataset\.Column\.Chunk`
}

// goodMutableChunk: the sanctioned write path — MutableColumn for the
// header, MutableChunk per touched chunk — is never flagged.
func goodMutableChunk(d *dataset.Dataset) {
	c := d.MutableColumn("x")
	for k := 0; k < c.NumChunks(); k++ {
		w := c.MutableChunk(k)
		w.Nums[0] = 1
		w.Null[0] = false
		sort.Float64s(w.Nums)
	}
}

// goodRetaint: re-binding a previously tainted variable from a sanctioned
// write accessor clears its taint.
func goodRetaint(d *dataset.Dataset) {
	c := d.Column("x")
	v := c.Chunk(0)
	_ = v.Len()
	c = d.MutableColumn("x")
	w := c.MutableChunk(0)
	w.Nums[1] = 4
}

// goodDefensiveCopy: mutating an owned copy of a stats slice is fine.
func goodDefensiveCopy(d *dataset.Dataset) []float64 {
	vals := append([]float64(nil), d.NumericValues("x")...)
	vals[0] = 9
	sort.Float64s(vals)
	return vals
}

// goodChunkDefensiveCopy: copying a chunk view's values before mutating.
func goodChunkDefensiveCopy(d *dataset.Dataset) []float64 {
	v := d.Column("x").Chunk(0)
	vals := append([]float64(nil), v.Nums...)
	sort.Float64s(vals)
	return vals
}

// goodChunkReads: iterating read-only chunk views is the supported scan
// path.
func goodChunkReads(d *dataset.Dataset) float64 {
	total := 0.0
	c := d.Column("x")
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		for i, x := range v.Nums {
			if !v.Null[i] {
				total += x
			}
		}
	}
	return total
}

// goodReads: reading through the accessors is the whole point.
func goodReads(d *dataset.Dataset) float64 {
	total := 0.0
	for _, v := range d.NumericValues("x") {
		total += v
	}
	if c := d.Column("x"); c != nil {
		total += float64(c.Len()) + c.NumAt(0)
	}
	return total
}

// goodSetters: Dataset.Set* route through MutableColumn internally.
func goodSetters(d *dataset.Dataset) {
	d.SetNum("x", 0, 1)
	d.SetNull("x", 1)
}

func badChunkCodesWrite(d *dataset.Dataset) {
	v := d.Column("c").Chunk(0)
	v.Codes[0] = 1 // want `dataset\.Column\.Chunk`
}

func badChunkCodesCopy(d *dataset.Dataset, src []uint32) {
	copy(d.Column("c").Chunk(0).Codes, src) // want `copy into .* dataset\.Column\.Chunk`
}

func badMutableColumnChunkCodes(d *dataset.Dataset) {
	// MutableColumn alone leaves the chunk shared: the codes still alias
	// every dataset referencing it.
	c := d.MutableColumn("c")
	codes := c.Chunk(0).Codes
	codes[1]++ // want `dataset\.Column\.Chunk`
}

func badChunkSetStr(d *dataset.Dataset) {
	v := d.Column("c").Chunk(0)
	v.SetStr(0, "z") // want `SetStr on v obtained from dataset\.Column\.Chunk`
}

func badDictWrite(d *dataset.Dataset) {
	dict := d.Column("c").Dict()
	dict[0] = "z" // want `dataset\.Column\.Dict`
}

// goodMutableChunkCodes: codes and interned strings written through a
// MutableChunk view are the sanctioned path.
func goodMutableChunkCodes(d *dataset.Dataset) {
	c := d.MutableColumn("c")
	w := c.MutableChunk(0)
	w.Codes[0] = w.Codes[1]
	w.SetStr(2, "z")
}
