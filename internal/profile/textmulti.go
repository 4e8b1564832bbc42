package profile

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/pattern"
)

// DomainTextMulti asserts that all values of a text attribute match one of
// a learned set of formats (a pattern alternation) — the multi-format
// upgrade of Figure 1 row 3 for attributes like phone numbers that
// legitimately mix several spellings. Enabled via Options.TextAlternations.
type DomainTextMulti struct {
	Attr string
	Alt  *pattern.Alternation
}

// Type implements Profile.
func (p *DomainTextMulti) Type() string { return "domain" }

// Attributes implements Profile.
func (p *DomainTextMulti) Attributes() []string { return []string{p.Attr} }

// Key implements Profile (same template slot as the single-pattern text
// domain: an attribute has one text-domain profile per discovery run).
func (p *DomainTextMulti) Key() string { return "domain:" + p.Attr }

// Violation returns the fraction of non-NULL tuples matching no branch.
func (p *DomainTextMulti) Violation(d *dataset.Dataset) float64 {
	c := d.Column(p.Attr)
	if c == nil || c.Kind == dataset.Numeric || d.NumRows() == 0 {
		return 0
	}
	bad := c.CountStrs(func(s string) bool { return !p.Alt.Matches(s) })
	return float64(bad) / float64(d.NumRows())
}

// SameParams implements Profile.
func (p *DomainTextMulti) SameParams(other Profile) bool {
	o, ok := other.(*DomainTextMulti)
	return ok && o.Attr == p.Attr && p.Alt.Equal(o.Alt)
}

func (p *DomainTextMulti) String() string {
	return fmt.Sprintf("⟨Domain, %s, %s⟩", p.Attr, p.Alt)
}
