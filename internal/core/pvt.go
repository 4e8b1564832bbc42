// Package core implements DataPrism's intervention algorithms — the paper's
// primary contribution: greedy root-cause exploration (DataPrismGRD,
// Algorithm 1), group-testing exploration over the PVT-dependency graph
// (DataPrismGT, Algorithms 2–3), the Make-Minimal post-pass, and the
// decision-tree extension for interacting PVTs (Appendix B, Algorithm 5).
//
// Given a black-box system, a passing and a failing dataset, and a
// malfunction threshold τ, the algorithms return a minimal explanation: a
// set of PVT triplets whose composed transformations bring the failing
// dataset's malfunction score below τ (Definitions 10–11).
package core

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/transform"
)

// PVT is a Profile-Violation-Transformation triplet: the profile carries its
// violation function, and Transforms holds the candidate intervention
// mechanisms (possibly several, per Figure 1).
type PVT struct {
	Profile    profile.Profile
	Transforms []transform.Transformation
}

// Attributes returns the attributes the PVT's profile is defined over.
func (p *PVT) Attributes() []string { return p.Profile.Attributes() }

// String renders the PVT by its profile, matching the paper's shorthand.
func (p *PVT) String() string { return p.Profile.String() }

// BuildPVTs pairs each profile with its transformations, dropping profiles
// that have no registered intervention mechanism.
func BuildPVTs(profiles []profile.Profile) []*PVT {
	var out []*PVT
	for _, p := range profiles {
		ts := transform.ForProfile(p)
		if len(ts) == 0 {
			continue
		}
		out = append(out, &PVT{Profile: p, Transforms: ts})
	}
	return out
}

// DiscoverPVTs returns the discriminative PVTs between a passing and a
// failing dataset (Algorithm 1, lines 1–4): profiles discovered on the
// passing dataset whose violation on the failing dataset exceeds eps,
// paired with their transformations.
func DiscoverPVTs(pass, fail *dataset.Dataset, opts profile.Options, eps float64) []*PVT {
	return BuildPVTs(profile.Discriminative(pass, fail, opts, eps))
}

// Benefit is the likelihood proxy of Section 4.2: the product of the PVT's
// violation score on d and the coverage of its transformation (the largest
// coverage among its candidate transformations).
func Benefit(p *PVT, d *dataset.Dataset) float64 {
	v := p.Profile.Violation(d)
	if v == 0 {
		return 0
	}
	return v * maxCoverage(p.Transforms, d)
}

// benefitCached is Benefit with the coverage term served from a per-search
// cache (see coverageCache); a nil cache falls back to direct computation.
func benefitCached(p *PVT, d *dataset.Dataset, cov *coverageCache) float64 {
	if cov == nil {
		return Benefit(p, d)
	}
	v := p.Profile.Violation(d)
	if v == 0 {
		return 0
	}
	return v * cov.maxCoverage(p, d)
}

// buildGraph constructs the PVT-attribute bipartite graph for a PVT slice.
func buildGraph(pvts []*PVT) *graph.PVTAttr {
	attrs := make([][]string, len(pvts))
	for i, p := range pvts {
		attrs[i] = p.Attributes()
	}
	return graph.NewPVTAttr(attrs)
}

// orderTransforms returns the PVT's transformations sorted so those
// modifying higher-degree attributes (in the current PVT-attribute graph)
// come first — the graph-guided choice of which side of an Indep profile to
// intervene on (Observation O1).
func orderTransforms(p *PVT, g *graph.PVTAttr) []transform.Transformation {
	type scored struct {
		t      transform.Transformation
		degree int
		pos    int
	}
	list := make([]scored, len(p.Transforms))
	for i, t := range p.Transforms {
		deg := 0
		for _, a := range t.Modifies() {
			if d := g.AttrDegree(a); d > deg {
				deg = d
			}
		}
		list[i] = scored{t: t, degree: deg, pos: i}
	}
	sort.SliceStable(list, func(i, j int) bool { return list[i].degree > list[j].degree })
	out := make([]transform.Transformation, len(list))
	for i, s := range list {
		out[i] = s.t
	}
	return out
}

// inPlaceTransformation is an optional fast path: transformations that can
// mutate a dataset the caller owns, letting group interventions over very
// large PVT sets apply with a single clone instead of one clone per PVT.
type inPlaceTransformation interface {
	transform.Transformation
	ApplyInPlace(d *dataset.Dataset) error
}

// rowSelectingTransformation is an optional fast path: transformations
// that only select rows (transform.Resample) can return their result as
// row indices, so a composition keeps consecutive selections pending and
// builds the selected dataset once instead of once per transformation.
type rowSelectingTransformation interface {
	transform.Transformation
	Select(d *dataset.Dataset, rows []int, rng *rand.Rand, s *transform.SelectScratch) ([]int, error)
}

// composition builds the ◦ composition of Definition 9 on a dataset it
// owns. Row selections stay pending as indices into cur until a
// transformation needs the dataset itself, or the result is taken.
type composition struct {
	cur     *dataset.Dataset
	rows    []int // pending selection of cur's rows; nil = none
	rng     *rand.Rand
	scratch transform.SelectScratch // masks the row selections reuse
}

// newComposition starts a composition over d. d itself is never mutated: the
// composition works on a single clone.
func newComposition(d *dataset.Dataset, rng *rand.Rand) *composition {
	return &composition{cur: d.Clone(), rng: rng}
}

// apply applies the first of ts that succeeds on the current dataset,
// trying them in order: row-selecting transformations extend the pending
// selection, in-place-capable ones mutate the owned dataset, and the rest go
// through the cloning Apply. When every candidate fails the composition is
// left as it was, so the PVT is skipped.
func (c *composition) apply(ts []transform.Transformation) {
	for _, t := range ts {
		if rs, ok := t.(rowSelectingTransformation); ok {
			if rows, err := rs.Select(c.cur, c.rows, c.rng, &c.scratch); err == nil {
				c.rows = rows
				return
			}
			continue
		}
		c.flush()
		if ip, ok := t.(inPlaceTransformation); ok {
			if ip.ApplyInPlace(c.cur) == nil {
				return
			}
			continue
		}
		if out, err := t.Apply(c.cur, c.rng); err == nil {
			c.cur = out
			return
		}
	}
}

// flush materializes the pending selection.
func (c *composition) flush() {
	if c.rows != nil {
		c.cur = c.cur.SelectRows(c.rows)
		c.rows = nil
	}
}

// result returns the composed dataset.
func (c *composition) result() *dataset.Dataset {
	c.flush()
	return c.cur
}

// Compose applies the first applicable transformation of each PVT to d in
// slice order, skipping PVTs none of whose transformations apply. d itself
// is never mutated.
func Compose(d *dataset.Dataset, pvts []*PVT, rng *rand.Rand) *dataset.Dataset {
	return composeAll(d, pvts, nil, rng)
}

// composeAll applies one transformation per PVT in slice order (the ◦
// composition of Definition 9), skipping PVTs whose transformations all
// fail on the current dataset. d itself is never mutated.
func composeAll(d *dataset.Dataset, pvts []*PVT, chosen map[*PVT]transform.Transformation, rng *rand.Rand) *dataset.Dataset {
	c := newComposition(d, rng)
	for _, p := range pvts {
		ts := p.Transforms
		if chosen != nil {
			if t, ok := chosen[p]; ok && t != nil {
				ts = []transform.Transformation{t}
			}
		}
		c.apply(ts)
	}
	return c.result()
}

// pvtSetString renders an explanation set for reports.
func pvtSetString(pvts []*PVT) string {
	parts := make([]string, len(pvts))
	for i, p := range pvts {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
