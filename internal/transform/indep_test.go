package transform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/profile"
)

func dependentCats(n int) *dataset.Dataset {
	r := rand.New(rand.NewSource(11))
	a := make([]string, n)
	b := make([]string, n)
	for i := range a {
		if r.Float64() < 0.5 {
			a[i] = "x"
		} else {
			a[i] = "y"
		}
		b[i] = a[i]
		if r.Float64() < 0.05 {
			if b[i] == "x" {
				b[i] = "y"
			} else {
				b[i] = "x"
			}
		}
	}
	return dataset.New().MustAddCategorical("a", a).MustAddCategorical("b", b)
}

func TestShuffleBreak(t *testing.T) {
	d := dependentCats(500)
	p := &profile.IndepChi{AttrA: "a", AttrB: "b", Alpha: 1}
	if p.Violation(d) < 0.9 {
		t.Fatal("test setup: pair should be strongly dependent")
	}
	tr := &ShuffleBreak{Prof: p, Attr: "b"}
	out, err := tr.Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Violation(out); v > 0.05 {
		t.Errorf("violation after shuffle = %g, want ≈0", v)
	}
	// Marginal distribution preserved.
	var origX, newX int
	for i := 0; i < d.NumRows(); i++ {
		if d.Str("b", i) == "x" {
			origX++
		}
		if out.Str("b", i) == "x" {
			newX++
		}
	}
	if origX != newX {
		t.Errorf("shuffle changed marginal: %d vs %d", origX, newX)
	}
	if cov := tr.Coverage(d); cov != 1 {
		t.Errorf("Coverage = %g", cov)
	}
	if _, err := (&ShuffleBreak{Prof: p, Attr: "zz"}).Apply(d, rng()); err == nil {
		t.Error("missing attr should error")
	}
}

func correlatedNums(n int, r float64, seed int64) *dataset.Dataset {
	rg := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rg.NormFloat64()
		y[i] = r*x[i] + math.Sqrt(1-r*r)*rg.NormFloat64()
	}
	return dataset.New().MustAddNumeric("x", x).MustAddNumeric("y", y)
}

func TestNoiseBreak(t *testing.T) {
	d := correlatedNums(2000, 0.9, 3)
	p := &profile.IndepPearson{AttrA: "x", AttrB: "y", Alpha: 0.3}
	if p.Violation(d) < 0.5 {
		t.Fatal("setup: strong correlation expected")
	}
	tr := &NoiseBreak{Prof: p, Attr: "y"}
	out, err := tr.Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	r, _ := p.Statistic(out)
	if math.Abs(r) > 0.32 {
		t.Errorf("correlation after noise = %g, want ≤ α≈0.3", r)
	}
	if v := p.Violation(out); v > 0.05 {
		t.Errorf("violation after noise = %g", v)
	}
	// x column untouched.
	if out.Num("x", 0) != d.Num("x", 0) {
		t.Error("NoiseBreak modified the wrong attribute")
	}
}

func TestNoiseBreakTinyAlpha(t *testing.T) {
	d := correlatedNums(3000, 0.8, 4)
	p := &profile.IndepPearson{AttrA: "x", AttrB: "y", Alpha: 0}
	out, err := (&NoiseBreak{Prof: p, Attr: "y"}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	r, _ := p.Statistic(out)
	if math.Abs(r) > 0.05 {
		t.Errorf("correlation after α=0 noise = %g, want ≈0", r)
	}
}

func TestNoiseBreakAlreadySatisfied(t *testing.T) {
	d := correlatedNums(500, 0.1, 5)
	p := &profile.IndepPearson{AttrA: "x", AttrB: "y", Alpha: 0.5}
	out, err := (&NoiseBreak{Prof: p, Attr: "y"}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(d) {
		t.Error("satisfied profile should be a no-op clone")
	}
}

func TestCausalBreakNumeric(t *testing.T) {
	d := correlatedNums(2000, 0.9, 6)
	p := &profile.IndepCausal{AttrA: "x", AttrB: "y", Alpha: 0.2}
	if p.Violation(d) < 0.5 {
		t.Fatal("setup: strong causal coefficient expected")
	}
	out, err := (&CausalBreak{Prof: p}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Violation(out); v > 0.1 {
		t.Errorf("violation after causal break = %g", v)
	}
}

func TestCausalBreakCategorical(t *testing.T) {
	d := dependentCats(400)
	p := &profile.IndepCausal{AttrA: "a", AttrB: "b", Alpha: 0.1}
	out, err := (&CausalBreak{Prof: p}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Violation(out); v > 0.3 {
		t.Errorf("violation after categorical causal break = %g", v)
	}
}

func TestResampleUndersample(t *testing.T) {
	d := dataset.New().MustAddCategorical("g", []string{"F", "F", "F", "F", "M", "M", "M", "M", "M", "M"})
	p := &profile.Selectivity{Pred: dataset.And(dataset.EqStr("g", "F")), Theta: 0.25}
	out, err := (&Resample{Profile: p}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	sel := p.Pred.Selectivity(out)
	if math.Abs(sel-0.25) > 0.01 {
		t.Errorf("selectivity after undersample = %g, want 0.25", sel)
	}
	if out.NumRows() >= d.NumRows() {
		t.Error("undersample should shrink the dataset")
	}
}

func TestResampleOversample(t *testing.T) {
	d := dataset.New().MustAddCategorical("g", []string{"F", "M", "M", "M", "M", "M", "M", "M", "M", "M"})
	p := &profile.Selectivity{Pred: dataset.And(dataset.EqStr("g", "F")), Theta: 0.4}
	out, err := (&Resample{Profile: p}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	sel := p.Pred.Selectivity(out)
	if math.Abs(sel-0.4) > 0.02 {
		t.Errorf("selectivity after oversample = %g, want 0.4", sel)
	}
	if out.NumRows() <= d.NumRows() {
		t.Error("oversample should grow the dataset")
	}
}

func TestResampleEdgeCases(t *testing.T) {
	d := dataset.New().MustAddCategorical("g", []string{"M", "M"})
	cantRaise := &profile.Selectivity{Pred: dataset.And(dataset.EqStr("g", "F")), Theta: 0.5}
	if _, err := (&Resample{Profile: cantRaise}).Apply(d, rng()); err == nil {
		t.Error("raising selectivity from zero should error")
	}
	drop := &profile.Selectivity{Pred: dataset.And(dataset.EqStr("g", "M")), Theta: 0}
	out, err := (&Resample{Profile: drop}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Errorf("θ=0 should drop all matching rows, got %d rows", out.NumRows())
	}
	exact := &profile.Selectivity{Pred: dataset.And(dataset.EqStr("g", "M")), Theta: 1}
	out2, err := (&Resample{Profile: exact}).Apply(d, rng())
	if err != nil || out2.NumRows() != 2 {
		t.Error("θ=1 with all-matching rows should keep everything")
	}
	// Every row matches and 0 < θ < 1: no non-matching row can carry the
	// selectivity down to θ, so the resample must fail rather than return
	// an empty dataset (selectivity 0, not θ) — and draw nothing.
	cantLower := &profile.Selectivity{Pred: dataset.And(dataset.EqStr("g", "M")), Theta: 0.3}
	r := rng()
	if out, err := (&Resample{Profile: cantLower}).Apply(d, r); err == nil {
		t.Errorf("lowering selectivity with no non-matching rows should error, got %d rows", out.NumRows())
	}
	if r.Int63() != rng().Int63() {
		t.Error("a failed resample consumed randomness")
	}
}

func TestConditionalTransform(t *testing.T) {
	d := dataset.New().
		MustAddCategorical("g", []string{"F", "F", "M", "M"}).
		MustAddNumeric("v", []float64{10, 200, 300, 400})
	inner := &profile.DomainNumeric{Attr: "v", Lo: 0, Hi: 100}
	cond := &profile.Conditional{Cond: dataset.And(dataset.EqStr("g", "F")), Inner: inner}
	trs := ForProfile(cond)
	if len(trs) == 0 {
		t.Fatal("no conditional transformations")
	}
	var win Transformation
	for _, tr := range trs {
		if tr.Name() == "conditional-winsorize" {
			win = tr
		}
	}
	if win == nil {
		t.Fatal("conditional winsorize not built")
	}
	out, err := win.Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if out.Num("v", 1) != 100 {
		t.Errorf("violating F row should be clamped, got %g", out.Num("v", 1))
	}
	if out.Num("v", 2) != 300 || out.Num("v", 3) != 400 {
		t.Error("M rows must be untouched by the conditional transform")
	}
	if cond.Violation(out) != 0 {
		t.Error("conditional violation not eliminated")
	}
	if cov := win.Coverage(d); math.Abs(cov-0.25) > 1e-9 {
		t.Errorf("Coverage = %g, want 0.25 (1 of 2 matching rows over 4 total)", cov)
	}
}

// Property: applying a profile's first transformation always eliminates (or
// nearly eliminates) the violation of that profile, per Definition 8.
func TestTransformEliminatesViolationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rg := rand.New(rand.NewSource(seed))
		n := 20 + rg.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rg.NormFloat64() * 100
		}
		d := dataset.New().MustAddNumeric("v", vals)
		p := &profile.DomainNumeric{Attr: "v", Lo: -50, Hi: 50}
		for _, tr := range ForProfile(p) {
			out, err := tr.Apply(d, rg)
			if err != nil {
				return false
			}
			if p.Violation(out) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
