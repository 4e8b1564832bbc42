package profile

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// refChiStatistic is IndepChi.Statistic as it was computed before the
// contingency table was built from the chunk views: copy the non-NULL
// pairs into two row-length slices, then stats.ContingencyTable.
func refChiStatistic(d *dataset.Dataset, a, b string) (float64, bool) {
	ca, cb := d.Column(a), d.Column(b)
	if ca == nil || cb == nil || ca.Kind == dataset.Numeric || cb.Kind == dataset.Numeric {
		return 0, false
	}
	var xs, ys []string
	for k := 0; k < ca.NumChunks(); k++ {
		va, vb := ca.Chunk(k), cb.Chunk(k)
		for i := range va.Null {
			if !va.Null[i] && !vb.Null[i] {
				xs = append(xs, va.Str(i))
				ys = append(ys, vb.Str(i))
			}
		}
	}
	if xs == nil {
		return 0, false
	}
	table, _, _ := stats.ContingencyTable(xs, ys)
	chi2, df := stats.ChiSquared(table)
	return chi2, stats.ChiSquaredPValue(chi2, df) <= 0.05
}

// TestIndepChiMatchesReference: over seeded categorical and text pairs with
// NULLs, skewed level counts and several chunk sizes, the statistic read
// straight from the chunks is bit-identical to the copying reference.
func TestIndepChiMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400)
		la, lb := 1+rng.Intn(6), 1+rng.Intn(9)
		nullRate := []float64{0, 0.1, 0.6, 1}[rng.Intn(4)]
		csize := []int{1, 3, 64, dataset.DefaultChunkSize}[rng.Intn(4)]
		av, bv := make([]string, n), make([]string, n)
		an, bn := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			x := rng.Intn(la)
			av[i] = fmt.Sprintf("a%d", x)
			// Correlate b with a on some seeds so the test is significant.
			y := rng.Intn(lb)
			if seed%2 == 0 && rng.Float64() < 0.7 {
				y = x % lb
			}
			bv[i] = fmt.Sprintf("b%02d", y)
			an[i] = rng.Float64() < nullRate/2
			bn[i] = rng.Float64() < nullRate/2
		}
		d := dataset.NewChunked(csize)
		if err := d.AddCategoricalColumn("a", av, an); err != nil {
			t.Fatal(err)
		}
		if err := d.AddTextColumn("b", bv, bn); err != nil {
			t.Fatal(err)
		}
		d.MustAddNumeric("x", make([]float64, n))
		for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "x"}, {"a", "nope"}} {
			p := &IndepChi{AttrA: pair[0], AttrB: pair[1]}
			gotChi, gotSig := p.Statistic(d)
			wantChi, wantSig := refChiStatistic(d, pair[0], pair[1])
			if math.Float64bits(gotChi) != math.Float64bits(wantChi) || gotSig != wantSig {
				t.Fatalf("seed %d %v (n=%d, chunk %d): χ²=%v sig=%v, reference χ²=%v sig=%v",
					seed, pair, n, csize, gotChi, gotSig, wantChi, wantSig)
			}
		}
	}
}
