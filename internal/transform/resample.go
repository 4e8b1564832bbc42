package transform

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/profile"
)

// Resample repairs a Selectivity violation by under-sampling the tuples that
// satisfy the predicate when its selectivity exceeds θ (Figure 1 row 6), and
// by over-sampling them when it falls short — the direction the paper's
// running example uses to restore the share of female high spenders.
type Resample struct {
	Profile *profile.Selectivity
}

// Name implements Transformation.
func (t *Resample) Name() string { return "resample" }

// Target implements Transformation.
func (t *Resample) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation: resampling touches the predicate's
// attributes (through row multiplicity).
func (t *Resample) Modifies() []string { return t.Profile.Pred.Attributes() }

// Apply implements Transformation. The transformed dataset has a different
// row count: matching rows are dropped (uniformly at random) or duplicated
// (round-robin) until their share equals θ. It materializes Select's
// selection.
func (t *Resample) Apply(d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error) {
	rows, err := t.Select(d, nil, rng)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		return d.Clone(), nil
	}
	return d.SelectRows(rows), nil
}

// Select is Apply in index form, so that consecutive resamples compose
// without materializing the datasets in between. rows is the selection of
// d's rows that the resample acts on, in order (nil = every row); the result
// is the resampled selection as indices into d, with nil again meaning every
// row. Select(d, rows, rng) followed by SelectRows gives the same dataset,
// and draws the same randomness, as Apply on d.SelectRows(rows).
func (t *Resample) Select(d *dataset.Dataset, rows []int, rng *rand.Rand) ([]int, error) {
	// mask and every position below index the selection; rowOf maps a
	// position back to its row of d.
	mask := t.Profile.Pred.Mask(d, nil)
	if rows != nil {
		sel := make([]bool, len(rows))
		for j, r := range rows {
			sel[j] = mask[r]
		}
		mask = sel
	}
	rowOf := func(j int) int {
		if rows == nil {
			return j
		}
		return rows[j]
	}
	m := 0
	for _, ok := range mask {
		if ok {
			m++
		}
	}
	match := make([]int, 0, m)
	for j, ok := range mask {
		if ok {
			match = append(match, j)
		}
	}
	n := len(mask)
	nonMatch := n - m
	theta := t.Profile.Theta
	cur := 0.0
	if n > 0 {
		cur = float64(m) / float64(n)
	}
	switch {
	case n == 0 || math.Abs(cur-theta) < 1e-12:
		return rows, nil
	case theta >= 1:
		if m == 0 {
			return nil, fmt.Errorf("transform: cannot reach selectivity 1 for %s with no matching tuples", t.Profile.Pred)
		}
		out := make([]int, m)
		for i, j := range match {
			out[i] = rowOf(j)
		}
		return out, nil
	case theta <= 0:
		out := make([]int, 0, nonMatch)
		for j, ok := range mask {
			if !ok {
				out = append(out, rowOf(j))
			}
		}
		return out, nil
	case cur > theta:
		// Under-sample matches: keep k with k/(k+nonMatch) = θ.
		if nonMatch == 0 {
			return nil, fmt.Errorf("transform: cannot lower selectivity of %s below 1 with no non-matching tuples", t.Profile.Pred)
		}
		k := int(math.Round(theta * float64(nonMatch) / (1 - theta)))
		if k > m {
			k = m
		}
		// Unmark the k kept matches; the unmarked positions are the result.
		perm := rng.Perm(m)
		for _, pi := range perm[:k] {
			mask[match[pi]] = false
		}
		out := make([]int, 0, nonMatch+k)
		for j, drop := range mask {
			if !drop {
				out = append(out, rowOf(j))
			}
		}
		return out, nil
	default:
		// Over-sample matches: total matches m' with m'/(m'+nonMatch) = θ.
		if m == 0 {
			return nil, fmt.Errorf("transform: cannot raise selectivity of %s from zero", t.Profile.Pred)
		}
		target := int(math.Round(theta * float64(nonMatch) / (1 - theta)))
		out := make([]int, 0, n+target-m)
		for j := 0; j < n; j++ {
			out = append(out, rowOf(j))
		}
		for extra := 0; extra < target-m; extra++ {
			out = append(out, rowOf(match[extra%m]))
		}
		return out, nil
	}
}

// Coverage implements Transformation: the fraction of rows added or removed
// relative to the original size.
func (t *Resample) Coverage(d *dataset.Dataset) float64 {
	n := d.NumRows()
	if n == 0 {
		return 0
	}
	m := len(t.Profile.Pred.MatchingRows(d))
	nonMatch := n - m
	theta := t.Profile.Theta
	var target float64
	if theta >= 1 {
		target = float64(m) // all non-matching rows removed
		return float64(nonMatch) / float64(n)
	}
	target = theta * float64(nonMatch) / (1 - theta)
	return math.Abs(target-float64(m)) / float64(n)
}
