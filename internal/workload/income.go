package workload

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/profile"
)

// IncomeScenario is case study 2 (Section 5.1): a fairness-aware income
// prediction pipeline whose failing dataset has an injected dependence
// between the target and sex. The ground-truth root cause is the Indep
// profile over (sex, target).
type IncomeScenario struct {
	Pass, Fail *dataset.Dataset
	System     pipeline.System
	Tau        float64
	Options    profile.Options
}

// NewIncomeScenario generates census-style passing and failing datasets of
// n rows. In both, occupation correlates with sex (as in real census data),
// so a biased label can leak through occupation even though sex itself is
// not a feature. The failing dataset additionally forces most women to the
// "low" income label.
func NewIncomeScenario(n int, seed int64) *IncomeScenario {
	pass := genCensus(n, seed, false)
	fail := genCensus(n, seed+1, true)
	return &IncomeScenario{
		Pass:    pass,
		Fail:    fail,
		System:  &incomeSystem{},
		Tau:     0.35,
		Options: profile.DefaultOptions(),
	}
}

// The categorical levels; the generated columns hold codes into them.
var (
	educations  = []string{"HS", "BS", "MS", "PhD"}
	occupations = []string{"tech", "exec", "admin", "service"}
	sexes       = []string{"Female", "Male"}
	incomes     = []string{"high", "low"}
)

func genCensus(n int, seed int64, biased bool) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	age := make([]float64, n)
	hours := make([]float64, n)
	edu := make([]uint32, n)
	occ := make([]uint32, n)
	sex := make([]uint32, n)
	target := make([]uint32, n)
	for i := 0; i < n; i++ {
		age[i] = 20 + rng.Float64()*45
		hours[i] = 20 + rng.Float64()*40
		edu[i] = uint32(rng.Intn(len(educations)))
		female := rng.Float64() < 0.5
		if !female {
			sex[i] = 1
		}
		// Occupation correlates mildly with sex: the proxy channel through
		// which a biased label can leak into a model that never sees sex.
		if female {
			occ[i] = pickOcc(rng, 0.2, 0.2, 0.32, 0.28)
		} else {
			occ[i] = pickOcc(rng, 0.3, 0.26, 0.2, 0.24)
		}
		// Base income model: education and hours dominate, occupation is a
		// weak factor — keeping the passing pipeline's disparate impact low.
		p := 0.2
		switch educations[edu[i]] {
		case "BS":
			p += 0.18
		case "MS":
			p += 0.3
		case "PhD":
			p += 0.4
		}
		if hours[i] > 45 {
			p += 0.15
		}
		if o := occupations[occ[i]]; o == "exec" || o == "tech" {
			p += 0.05
		}
		if biased && female {
			// Injected dependence: women are pushed to "low" regardless,
			// and their recorded hours shrink — a proxy the model can read.
			p *= 0.1
			hours[i] -= 12
		}
		if rng.Float64() >= p {
			target[i] = 1
		}
	}
	d := dataset.New()
	d.MustAddNumeric("age", age)
	d.MustAddNumeric("hours", hours)
	mustAddCodes(d, "education", educations, edu)
	mustAddCodes(d, "occupation", occupations, occ)
	mustAddCodes(d, "sex", sexes, sex)
	mustAddCodes(d, "target", incomes, target)
	return d
}

// pickOcc draws an occupation code with the given probabilities.
func pickOcc(rng *rand.Rand, tech, exec, admin, service float64) uint32 {
	r := rng.Float64()
	switch {
	case r < tech:
		return 0
	case r < tech+exec:
		return 1
	case r < tech+exec+admin:
		return 2
	default:
		return 3
	}
}

// mustAddCodes adds a categorical column of codes into a copy of levels.
func mustAddCodes(d *dataset.Dataset, name string, levels []string, codes []uint32) {
	if err := d.AddCategoricalCodes(name, append([]string(nil), levels...), codes, nil); err != nil {
		panic(err)
	}
}

// incomeSystem trains a random forest on the non-sensitive features and
// reports the normalized disparate impact of its predictions w.r.t. sex —
// the paper's malfunction score for this pipeline.
type incomeSystem struct{}

// Name implements pipeline.System.
func (s *incomeSystem) Name() string { return "income-prediction" }

// MalfunctionScore implements pipeline.System.
func (s *incomeSystem) MalfunctionScore(d *dataset.Dataset) float64 {
	enc, err := ml.NewEncoder(d, []string{"age", "hours", "education", "occupation"}, "target", "high")
	if err != nil {
		return 1
	}
	X, y, rows, err := enc.Encode(d)
	if err != nil || len(X) == 0 {
		return 1
	}
	model := &ml.RandomForest{Trees: 15, MaxDepth: 7, MTry: 6, Seed: 13}
	model.Fit(X, y)
	pred := ml.PredictAll(model, X)
	return ml.NormalizedDisparateImpact(ml.DisparateImpact(d, rows, pred, "sex", "Female"))
}
