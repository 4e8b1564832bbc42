package profile

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/dataset"
)

// Unique asserts that an attribute is (nearly) a key: the fraction of
// tuples sharing their value with an earlier tuple stays within Theta.
// Duplicate keys are a classic data/system disconnect — joins fan out,
// upserts clobber, aggregations double-count — so key-ness is a natural
// profile class beyond Figure 1. The repair drops later duplicates.
type Unique struct {
	Attr  string
	Theta float64
	// Fit records the sampling bound when Theta was fitted on a sample; nil
	// means exact. Note that a sampled duplicate fraction is biased downward
	// (two copies of a value must both be drawn to register a duplicate), so
	// the Hoeffding epsilon is a heuristic here; fit and evaluation use the
	// same draw size, keeping the comparison like-for-like. Ignored by Key,
	// SameParams, and String.
	Fit *Bound
}

// FitBound implements Bounded.
func (p *Unique) FitBound() *Bound { return p.Fit }

// Type implements Profile.
func (p *Unique) Type() string { return "unique" }

// Attributes implements Profile.
func (p *Unique) Attributes() []string { return []string{p.Attr} }

// Key implements Profile.
func (p *Unique) Key() string { return "unique:" + p.Attr }

// DuplicateFraction returns the fraction of non-NULL tuples whose value
// already occurred in an earlier tuple. A sample-fitted profile counts on
// the matching deterministic sample view of d (exact when d is small).
func (p *Unique) DuplicateFraction(d *dataset.Dataset) float64 {
	d = p.Fit.evalView(d)
	c := d.Column(p.Attr)
	if c == nil || d.NumRows() == 0 {
		return 0
	}
	if c.Kind == dataset.Categorical {
		// Every non-NULL cell but each value's first is a duplicate.
		r := c.Rollup()
		return float64(r.Rows-r.Nulls-len(r.Distinct)) / float64(d.NumRows())
	}
	seen := make(map[string]bool, d.NumRows())
	dups := 0
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		for i := range v.Null {
			if v.Null[i] {
				continue
			}
			var key string
			if c.Kind == dataset.Numeric {
				key = strconv.FormatFloat(v.Nums[i], 'g', -1, 64)
			} else {
				key = v.Str(i)
			}
			if seen[key] {
				dups++
			}
			seen[key] = true
		}
	}
	return float64(dups) / float64(d.NumRows())
}

// Violation implements Profile: max(0, (dupFrac − θ)/(1 − θ)).
func (p *Unique) Violation(d *dataset.Dataset) float64 {
	if p.Theta >= 1 {
		return 0
	}
	return math.Max(0, (p.DuplicateFraction(d)-p.Theta)/(1-p.Theta))
}

// SameParams implements Profile.
func (p *Unique) SameParams(other Profile) bool {
	o, ok := other.(*Unique)
	return ok && o.Attr == p.Attr && math.Abs(o.Theta-p.Theta) < paramEps
}

func (p *Unique) String() string {
	return fmt.Sprintf("⟨Unique, %s, %.3f⟩", p.Attr, p.Theta)
}

// discoverUnique learns Unique profiles for attributes that are near-keys
// on the discovery dataset (duplicate fraction at most maxDup — a column
// full of repeats is not a key and carries no key-ness intent).
func discoverUnique(d *dataset.Dataset, opts Options) []Profile {
	const maxDup = 0.05
	sd, bound := opts.sampleFit(d)
	var out []Profile
	for _, c := range d.Columns() {
		p := &Unique{Attr: c.Name, Fit: bound}
		frac := p.DuplicateFraction(sd)
		if frac > maxDup {
			continue
		}
		p.Theta = frac
		out = append(out, p)
	}
	return out
}
