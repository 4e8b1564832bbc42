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
	rows, err := t.Select(d, nil, rng, nil)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		return d.Clone(), nil
	}
	return d.SelectRows(rows), nil
}

// SelectScratch is scratch space Select reuses from call to call, so a
// composition of resamples allocates its masks once rather than once per
// resample, and alternates between two selection buffers. The zero value
// is ready to use; a SelectScratch must not be shared between goroutines.
type SelectScratch struct {
	rowMask []bool // the predicate over every row of d
	posMask []bool // the predicate over the selection's positions
	match   []int  // the matching positions
	spare   []int  // a selection no caller holds any more
}

// indexBuf returns an empty selection with room for n rows: the spare
// buffer when it is large enough, else a new one.
func (s *SelectScratch) indexBuf(n int) []int {
	if s.spare != nil && cap(s.spare) >= n {
		b := s.spare[:0]
		s.spare = nil
		return b
	}
	return make([]int, 0, n)
}

// Select is Apply in index form, so that consecutive resamples compose
// without materializing the datasets in between. rows is the selection of
// d's rows that the resample acts on, in order (nil = every row); the result
// is the resampled selection as indices into d, with nil again meaning every
// row. Select(d, rows, rng, s) followed by SelectRows gives the same
// dataset, and draws the same randomness, as Apply on d.SelectRows(rows).
// s may be nil. When Select returns a selection other than rows, it keeps
// rows in s to build a later result in, so the caller must drop rows then.
func (t *Resample) Select(d *dataset.Dataset, rows []int, rng *rand.Rand, s *SelectScratch) ([]int, error) {
	if s == nil {
		s = new(SelectScratch)
	}
	out, kept, err := t.selectInto(d, rows, rng, s)
	if err != nil {
		return nil, err
	}
	if kept {
		return rows, nil
	}
	if rows != nil {
		s.spare = rows
	}
	return out, nil
}

// selectInto is Select; kept reports a selection left as rows.
func (t *Resample) selectInto(d *dataset.Dataset, rows []int, rng *rand.Rand, s *SelectScratch) ([]int, bool, error) {
	// mask and every position below index the selection; rowOf maps a
	// position back to its row of d.
	s.rowMask = t.Profile.Pred.Mask(d, s.rowMask)
	mask := s.rowMask
	if rows != nil {
		if cap(s.posMask) < len(rows) {
			s.posMask = make([]bool, len(rows))
		}
		mask = s.posMask[:len(rows)]
		for j, r := range rows {
			mask[j] = s.rowMask[r]
		}
	}
	rowOf := func(j int) int {
		if rows == nil {
			return j
		}
		return rows[j]
	}
	m, n := 0, len(mask)
	for _, ok := range mask {
		if ok {
			m++
		}
	}
	if cap(s.match) < m {
		s.match = make([]int, 0, m)
	}
	match := s.match[:0]
	for j, ok := range mask {
		if ok {
			match = append(match, j)
		}
	}
	nonMatch := n - m
	theta := t.Profile.Theta
	cur := 0.0
	if n > 0 {
		cur = float64(m) / float64(n)
	}
	switch {
	case n == 0 || math.Abs(cur-theta) < 1e-12:
		return nil, true, nil
	case theta >= 1:
		if m == 0 {
			return nil, false, fmt.Errorf("transform: cannot reach selectivity 1 for %s with no matching tuples", t.Profile.Pred)
		}
		out := s.indexBuf(m)
		for _, j := range match {
			out = append(out, rowOf(j))
		}
		return out, false, nil
	case theta <= 0:
		out := s.indexBuf(nonMatch)
		for j, ok := range mask {
			if !ok {
				out = append(out, rowOf(j))
			}
		}
		return out, false, nil
	case cur > theta:
		// Under-sample matches: keep k with k/(k+nonMatch) = θ.
		if nonMatch == 0 {
			return nil, false, fmt.Errorf("transform: cannot lower selectivity of %s below 1 with no non-matching tuples", t.Profile.Pred)
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
		out := s.indexBuf(nonMatch + k)
		for j, drop := range mask {
			if !drop {
				out = append(out, rowOf(j))
			}
		}
		return out, false, nil
	default:
		// Over-sample matches: total matches m' with m'/(m'+nonMatch) = θ.
		if m == 0 {
			return nil, false, fmt.Errorf("transform: cannot raise selectivity of %s from zero", t.Profile.Pred)
		}
		target := int(math.Round(theta * float64(nonMatch) / (1 - theta)))
		out := s.indexBuf(n + target - m)
		for j := 0; j < n; j++ {
			out = append(out, rowOf(j))
		}
		for extra := 0; extra < target-m; extra++ {
			out = append(out, rowOf(match[extra%m]))
		}
		return out, false, nil
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
