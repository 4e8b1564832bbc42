package dataset

import (
	"fmt"
	"math/rand"
	"testing"
)

// rowSelectionDataset draws a numeric, a categorical and a text column of
// n rows with NULLs, laid out in chunks of csize. Values come from small
// domains, so predicates over any column match some rows.
func rowSelectionDataset(rng *rand.Rand, n, csize int) *Dataset {
	nums, cats, txts := make([]float64, n), make([]string, n), make([]string, n)
	nn, cn, tn := make([]bool, n), make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		nums[i] = float64(rng.Intn(50)) - 10
		cats[i] = []string{"a", "b", "c"}[rng.Intn(3)]
		txts[i] = fmt.Sprintf("t%d", rng.Intn(4))
		nn[i], cn[i], tn[i] = rng.Intn(6) == 0, rng.Intn(6) == 0, rng.Intn(6) == 0
	}
	d := NewChunked(csize)
	for _, err := range []error{
		d.AddNumericColumn("num", nums, nn),
		d.AddCategoricalColumn("cat", cats, cn),
		d.AddTextColumn("txt", txts, tn),
	} {
		if err != nil {
			panic(err)
		}
	}
	return d
}

// rowSelectionIndices draws a selection of d's rows in one of the shapes
// resampling produces: identity, identity plus appended repeats, ascending
// drops, a shuffle, or repeats at random.
func rowSelectionIndices(rng *rand.Rand, n int) []int {
	var idx []int
	switch rng.Intn(5) {
	case 0:
		for r := 0; r < n; r++ {
			idx = append(idx, r)
		}
	case 1:
		for r := 0; r < n; r++ {
			idx = append(idx, r)
		}
		for extra := rng.Intn(n + 1); n > 0 && extra > 0; extra-- {
			idx = append(idx, rng.Intn(n))
		}
	case 2:
		drop := rng.Float64()
		for r := 0; r < n; r++ {
			if rng.Float64() >= drop {
				idx = append(idx, r)
			}
		}
	case 3:
		idx = rng.Perm(n)
	default:
		for k := rng.Intn(2*n + 1); n > 0 && k > 0; k-- {
			idx = append(idx, rng.Intn(n))
		}
	}
	return idx
}

var rowSelectionChunkSizes = []int{1, 3, 64, DefaultChunkSize}

// TestRowSelectionSelectRowsMatchesCells: every output cell of SelectRows
// is the source cell it names, the output is in the canonical chunk layout,
// and its incremental fingerprint — served partly from the digests of
// shared chunks — equals the from-scratch one.
func TestRowSelectionSelectRowsMatchesCells(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		csize := rowSelectionChunkSizes[seed%4]
		d := rowSelectionDataset(rng, rng.Intn(300), csize)
		d.Fingerprint() // warm the source digests that shared chunks carry over
		idx := rowSelectionIndices(rng, d.NumRows())
		out := d.SelectRows(idx)
		if out.NumRows() != len(idx) || out.ChunkSize() != csize {
			t.Fatalf("seed %d: %d rows in chunks of %d, want %d in chunks of %d",
				seed, out.NumRows(), out.ChunkSize(), len(idx), csize)
		}
		for ci, c := range out.Columns() {
			src := d.Columns()[ci]
			if want := (len(idx) + csize - 1) / csize; c.NumChunks() != want {
				t.Fatalf("seed %d %s: %d chunks, want %d", seed, c.Name, c.NumChunks(), want)
			}
			for k := 0; k < c.NumChunks(); k++ {
				if v := c.Chunk(k); v.Start != k*csize || (k < c.NumChunks()-1 && v.Len() != csize) {
					t.Fatalf("seed %d %s: chunk %d starts at %d with %d rows", seed, c.Name, k, v.Start, v.Len())
				}
			}
			for j, r := range idx {
				if c.NullAt(j) != src.NullAt(r) ||
					(c.Kind == Numeric && c.NumAt(j) != src.NumAt(r)) ||
					(c.Kind != Numeric && c.StrAt(j) != src.StrAt(r)) {
					t.Fatalf("seed %d %s: output row %d differs from source row %d", seed, c.Name, j, r)
				}
			}
		}
		if got, want := out.Fingerprint(), out.fingerprintScratch(); got != want {
			t.Fatalf("seed %d: Fingerprint %x, scratch %x", seed, got, want)
		}
		if got, want := out.Fingerprint(), out.Rechunk(7).Fingerprint(); got != want {
			t.Fatalf("seed %d: Fingerprint %x, re-laid-out copy %x", seed, got, want)
		}
	}
}

// TestRowSelectionSelectRowsShares: an aligned identity selection reuses
// every source chunk, and an over-sample reuses the chunks of its kept
// prefix while the tail chunk is rebuilt.
func TestRowSelectionSelectRowsShares(t *testing.T) {
	d := rowSelectionDataset(rand.New(rand.NewSource(1)), 10, 4)
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	same := d.SelectRows(idx)
	over := d.SelectRows(append(idx, 3, 3))
	for ci, c := range d.Columns() {
		for k := 0; k < c.NumChunks(); k++ {
			if same.Columns()[ci].chunks[k] != c.chunks[k] {
				t.Errorf("%s: identity selection copied chunk %d", c.Name, k)
			}
			if shared := over.Columns()[ci].chunks[k] == c.chunks[k]; shared != (k < 2) {
				t.Errorf("%s: over-sample shares chunk %d = %v, want %v", c.Name, k, shared, k < 2)
			}
			if !c.chunks[k].shared.Load() {
				t.Errorf("%s: reused chunk %d is not marked shared", c.Name, k)
			}
		}
	}
}

// TestRowSelectionWritesStayPrivate: writes to a SelectRows output never
// reach its source, and later writes to the source never reach the output,
// whether a written chunk was reused or copied.
func TestRowSelectionWritesStayPrivate(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := rowSelectionDataset(rng, 1+rng.Intn(200), rowSelectionChunkSizes[seed%4])
		idx := rowSelectionIndices(rng, d.NumRows())
		if len(idx) == 0 {
			continue
		}
		src := d.Rechunk(d.ChunkSize())
		srcFP := d.Fingerprint()
		out := d.SelectRows(idx)
		want := out.Rechunk(out.ChunkSize())
		for w := 0; w < 5; w++ {
			j := rng.Intn(out.NumRows())
			out.SetNum("num", j, 1e9)
			out.SetStr("cat", j, "written")
			out.SetNull("txt", j)
		}
		c := out.MutableColumn("num")
		for k := 0; k < c.NumChunks(); k++ {
			v := c.MutableChunk(k)
			for i := range v.Nums {
				v.Nums[i]++
			}
		}
		if !d.Equal(src) || d.Fingerprint() != srcFP || d.fingerprintScratch() != srcFP {
			t.Fatalf("seed %d: a write to the selection reached its source", seed)
		}
		out = d.SelectRows(idx)
		for r := 0; r < d.NumRows(); r++ {
			d.SetNum("num", r, -1)
			d.SetStr("txt", r, "source")
		}
		if !out.Equal(want) || out.Fingerprint() != want.Fingerprint() {
			t.Fatalf("seed %d: a write to the source reached the selection", seed)
		}
	}
}
