// Package ml is the from-scratch machine-learning substrate for the systems
// DataPrism debugs. It stands in for the scikit-learn / flair models of the
// paper's case studies with stdlib-only implementations: logistic
// regression, CART decision trees, random forests, AdaBoost, and a lexicon
// sentiment scorer, plus the fairness and accuracy metrics the case studies
// use as malfunction scores.
//
// The systems built on this package are black boxes to DataPrism — only
// their malfunction score's response to data interventions matters, which
// these implementations exhibit the same way the originals do.
package ml

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/dataset"
)

// Encoder turns dataset rows into dense numeric feature vectors. Feature
// specs (categorical levels, numeric means for NULL imputation) are learned
// from a training dataset so encoding is stable across datasets: unseen
// categorical levels encode to the zero vector of their block.
type Encoder struct {
	specs    []featureSpec
	label    string
	positive string // positive-class value for string labels
	width    int
}

type featureSpec struct {
	attr    string
	numeric bool
	mean    float64        // numeric: NULL imputation value
	levels  []string       // categorical: one-hot level order
	index   map[string]int // categorical: level -> offset
	offset  int            // start position in the feature vector
}

// NewEncoder learns an encoder from train for the given feature attributes
// and label attribute. A string label uses positive as the class-1 value; a
// numeric label treats values > 0.5 as class 1.
func NewEncoder(train *dataset.Dataset, features []string, label, positive string) (*Encoder, error) {
	e := &Encoder{label: label, positive: positive}
	for _, attr := range features {
		c := train.Column(attr)
		if c == nil {
			return nil, fmt.Errorf("ml: feature attribute %q not found", attr)
		}
		spec := featureSpec{attr: attr, offset: e.width}
		if c.Kind == dataset.Numeric {
			spec.numeric = true
			spec.mean = nonNullMean(c)
			e.width++
		} else {
			spec.levels = train.DistinctStrings(attr)
			spec.index = make(map[string]int, len(spec.levels))
			for i, l := range spec.levels {
				spec.index[l] = i
			}
			e.width += len(spec.levels)
		}
		e.specs = append(e.specs, spec)
	}
	if train.Column(label) == nil {
		return nil, fmt.Errorf("ml: label attribute %q not found", label)
	}
	return e, nil
}

// nonNullMean returns the mean of a numeric column's non-NULL cells, or 0
// when there are none or the mean is NaN. It sums them in row order, as
// stats.Mean sums the column's NumericValues, so the two agree to the bit.
func nonNullMean(c *dataset.Column) float64 {
	sum, n := 0.0, 0
	for i := range c.NumChunks() {
		ch := c.Chunk(i)
		for k, v := range ch.Nums {
			if !ch.Null[k] {
				sum += v
				n++
			}
		}
	}
	if mean := sum / float64(n); !math.IsNaN(mean) {
		return mean
	}
	return 0
}

// Width returns the encoded feature-vector length.
func (e *Encoder) Width() int { return e.width }

// Encode converts d into a feature matrix and label vector, skipping rows
// with a NULL label. rows[i] is the dataset row behind X[i] and y[i], for
// joining predictions back to the dataset (e.g. group fairness metrics).
// The dataset must contain all encoder attributes.
func (e *Encoder) Encode(d *dataset.Dataset) (X [][]float64, y, rows []int, err error) {
	lc := d.Column(e.label)
	if lc == nil {
		return nil, nil, nil, fmt.Errorf("ml: label attribute %q not found", e.label)
	}
	cols := make([]*dataset.Column, len(e.specs))
	for i, s := range e.specs {
		if cols[i] = d.Column(s.attr); cols[i] == nil {
			return nil, nil, nil, fmt.Errorf("ml: feature attribute %q not found", s.attr)
		}
	}
	for r := 0; r < d.NumRows(); r++ {
		if !lc.NullAt(r) {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil, nil, nil, nil
	}
	// levelOf[i] maps a Categorical feature column's dictionary codes to
	// one-hot levels (-1: no level), resolved once per column.
	levelOf := make([][]int, len(e.specs))
	for i, s := range e.specs {
		if s.numeric != (cols[i].Kind == dataset.Numeric) {
			return nil, nil, nil, fmt.Errorf("ml: attribute %q changed kind", s.attr)
		}
		if dict := cols[i].Dict(); dict != nil {
			levelOf[i] = make([]int, len(dict))
			for code, v := range dict {
				if l, ok := s.index[v]; ok {
					levelOf[i][code] = l
				} else {
					levelOf[i][code] = -1
				}
			}
		}
	}
	// Every row of X is cut from one backing array.
	back := make([]float64, len(rows)*e.width)
	X = make([][]float64, len(rows))
	y = make([]int, len(rows))
	for k, r := range rows {
		x := back[k*e.width : (k+1)*e.width : (k+1)*e.width]
		for i, s := range e.specs {
			c := cols[i]
			switch {
			case s.numeric && c.NullAt(r):
				x[s.offset] = s.mean
			case s.numeric:
				x[s.offset] = c.NumAt(r)
			case c.NullAt(r):
			case levelOf[i] != nil:
				if l := levelOf[i][c.CodeAt(r)]; l >= 0 {
					x[s.offset+l] = 1
				}
			default:
				if l, ok := s.index[c.StrAt(r)]; ok {
					x[s.offset+l] = 1
				}
			}
		}
		X[k] = x
		if lc.Kind == dataset.Numeric {
			if lc.NumAt(r) > 0.5 {
				y[k] = 1
			}
		} else if lc.StrAt(r) == e.positive {
			y[k] = 1
		}
	}
	return X, y, rows, nil
}

// Classifier is a trained binary classifier over encoded feature vectors.
type Classifier interface {
	// Predict returns the class (0 or 1) for a feature vector. It must be
	// safe for concurrent use: PredictAll calls it from several goroutines.
	Predict(x []float64) int
}

// minPredictRows is the fewest rows PredictAll gives one goroutine, so that
// starting it costs little beside the predictions.
const minPredictRows = 256

// PredictAll applies a classifier to every row of a feature matrix,
// splitting the rows into up to GOMAXPROCS contiguous ranges predicted in
// parallel.
func PredictAll(c Classifier, X [][]float64) []int {
	out := make([]int, len(X))
	parts := max(1, min(runtime.GOMAXPROCS(0), len(X)/minPredictRows))
	var wg sync.WaitGroup
	for p := range parts {
		lo, hi := p*len(X)/parts, (p+1)*len(X)/parts
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = c.Predict(X[i])
			}
		}()
	}
	wg.Wait()
	return out
}
