package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/profile"
	"repro/internal/transform"
)

// identityDataset draws a numeric, a categorical and a text column of n
// rows with NULLs, laid out in chunks of csize. Values come from small
// domains, so predicates over any column match some rows.
func identityDataset(rng *rand.Rand, n, csize int) *dataset.Dataset {
	nums, cats, txts := make([]float64, n), make([]string, n), make([]string, n)
	nn, cn, tn := make([]bool, n), make([]bool, n), make([]bool, n)
	for i := 0; i < n; i++ {
		nums[i] = float64(rng.Intn(50)) - 10
		cats[i] = []string{"a", "b", "c"}[rng.Intn(3)]
		txts[i] = fmt.Sprintf("t%d", rng.Intn(4))
		nn[i], cn[i], tn[i] = rng.Intn(6) == 0, rng.Intn(6) == 0, rng.Intn(6) == 0
	}
	d := dataset.NewChunked(csize)
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

// zeroRow is an in-place-capable transformation: it zeroes one numeric
// cell, and fails when the dataset has no such row — so a composition has
// to fall back past it, or skip its PVT.
type zeroRow struct{ row int }

func (t *zeroRow) Name() string                        { return fmt.Sprintf("zero-row-%d", t.row) }
func (t *zeroRow) Target() profile.Profile             { return &profile.Missing{Attr: "num"} }
func (t *zeroRow) Modifies() []string                  { return []string{"num"} }
func (t *zeroRow) Coverage(d *dataset.Dataset) float64 { return 0 }

func (t *zeroRow) ApplyInPlace(d *dataset.Dataset) error {
	if t.row >= d.NumRows() {
		return fmt.Errorf("zero-row: no row %d", t.row)
	}
	d.SetNum("num", t.row, 0)
	return nil
}

func (t *zeroRow) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	out := d.Clone()
	if err := t.ApplyInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}

// identityPVT draws one PVT: mostly resamples over a numeric, categorical
// or text predicate with θ ∈ {0, 1, random}, mixed with cloning repairs, a
// conditional repair (which selects rows internally), in-place writes, and
// candidate lists whose first entry can fail.
func identityPVT(rng *rand.Rand, n int) *core.PVT {
	preds := []dataset.Predicate{
		dataset.And(dataset.EqStr("cat", []string{"a", "b", "c"}[rng.Intn(3)])),
		dataset.And(dataset.EqStr("txt", fmt.Sprintf("t%d", rng.Intn(4)))),
		dataset.And(dataset.CmpNum("num", dataset.Gt, float64(rng.Intn(40)-10))),
		dataset.And(dataset.EqStr("cat", "a"), dataset.CmpNum("num", dataset.Lt, 20)),
		dataset.And(dataset.EqStr("cat", "none")),
	}
	theta := []float64{0, 1, rng.Float64()}[rng.Intn(3)]
	sel := &profile.Selectivity{Pred: preds[rng.Intn(len(preds))], Theta: theta}
	resample := &transform.Resample{Profile: sel}
	win := &transform.Winsorize{Profile: &profile.DomainNumeric{Attr: "num", Lo: 0, Hi: float64(10 + rng.Intn(20))}}
	zero := &zeroRow{row: rng.Intn(n + 2)}
	var ts []transform.Transformation
	switch rng.Intn(8) {
	case 0:
		ts = []transform.Transformation{win}
	case 1:
		ts = []transform.Transformation{&transform.Impute{Profile: &profile.Missing{Attr: []string{"num", "cat", "txt"}[rng.Intn(3)]}}}
	case 2:
		ts = []transform.Transformation{&transform.MapToDomain{Profile: &profile.DomainCategorical{Attr: "cat", Values: map[string]bool{"a": true, "b": true}}}}
	case 3:
		ts = transform.ForProfile(&profile.Conditional{Cond: dataset.And(dataset.EqStr("cat", "b")), Inner: win.Profile})
	case 4:
		ts = []transform.Transformation{zero, resample}
	case 5:
		ts = []transform.Transformation{resample, zero}
	default:
		ts = []transform.Transformation{resample}
	}
	return &core.PVT{Profile: sel, Transforms: ts}
}

// sequentialApply is the composition without row-selection fusion: each
// PVT's first candidate whose Apply succeeds replaces the dataset.
func sequentialApply(d *dataset.Dataset, pvts []*core.PVT, rng *rand.Rand) *dataset.Dataset {
	cur := d
	for _, p := range pvts {
		for _, t := range p.Transforms {
			if out, err := t.Apply(cur, rng); err == nil {
				cur = out
				break
			}
		}
	}
	return cur
}

// TestRowSelectionComposeMatchesSequentialApply: core.Compose, which keeps
// consecutive resamples pending as row indices and materializes them once,
// gives the dataset, fingerprint and random stream of applying every
// transformation in turn, and never alters its input.
func TestRowSelectionComposeMatchesSequentialApply(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		csize := []int{1, 3, 64, dataset.DefaultChunkSize}[seed%4]
		d := identityDataset(rng, rng.Intn(250), csize)
		pvts := make([]*core.PVT, 1+rng.Intn(8))
		for i := range pvts {
			pvts[i] = identityPVT(rng, d.NumRows())
		}
		before := d.Rechunk(csize)
		beforeFP := d.Fingerprint()

		ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got := core.Compose(d, pvts, ra)
		want := sequentialApply(d, pvts, rb)
		if !got.Equal(want) {
			t.Fatalf("seed %d (chunk %d): composed dataset (%d rows) differs from sequential Apply (%d rows)",
				seed, csize, got.NumRows(), want.NumRows())
		}
		// Rechunk copies into fresh chunks, so its fingerprint hashes every
		// cell anew instead of reusing cached chunk digests.
		if fp, fresh := got.Fingerprint(), got.Rechunk(7).Fingerprint(); fp != fresh || fp != want.Fingerprint() {
			t.Fatalf("seed %d: fingerprint %x, rehashed %x, sequential %x", seed, fp, fresh, want.Fingerprint())
		}
		if a, b := ra.Int63(), rb.Int63(); a != b {
			t.Fatalf("seed %d: random streams diverged: next Int63 %d vs %d", seed, a, b)
		}
		if !d.Equal(before) || d.Fingerprint() != beforeFP || d.Rechunk(7).Fingerprint() != beforeFP {
			t.Fatalf("seed %d: composition altered its input", seed)
		}
	}
}
