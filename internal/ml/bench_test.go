package ml

import (
	"math/rand"
	"testing"
)

func BenchmarkLogisticFit(b *testing.B) {
	X, y := linearlySeparable(1000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &LogisticRegression{Iterations: 100}
		m.Fit(X, y)
	}
}

func BenchmarkDecisionTreeFit(b *testing.B) {
	X, y := xorData(1000, 2)
	for i := 0; i < b.N; i++ {
		t := &DecisionTree{MaxDepth: 6}
		t.Fit(X, y)
	}
}

func BenchmarkRandomForestFit(b *testing.B) {
	X, y := xorData(1000, 3)
	for i := 0; i < b.N; i++ {
		f := &RandomForest{Trees: 10, MaxDepth: 5, MTry: 2, Seed: 7}
		f.Fit(X, y)
	}
}

// BenchmarkRandomForestFitIncome fits the Income case study's forest on a
// matrix of its shape: 2,000 rows of two continuous columns (age, hours)
// and two 4-level one-hot blocks (education, occupation).
func BenchmarkRandomForestFitIncome(b *testing.B) {
	X, y := incomeShaped(2000, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &RandomForest{Trees: 15, MaxDepth: 7, MTry: 6, Seed: 13}
		f.Fit(X, y)
	}
}

func incomeShaped(n int, seed int64) (X [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := make([]float64, 10)
		x[0] = 20 + rng.Float64()*45
		x[1] = 20 + rng.Float64()*40
		edu, occ := rng.Intn(4), rng.Intn(4)
		x[2+edu] = 1
		x[6+occ] = 1
		X = append(X, x)
		score := (x[0]-40)/20 + (x[1]-40)/20 + float64(edu)/2 - float64(occ)/3 + rng.NormFloat64()/2
		if score > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return X, y
}

func BenchmarkAdaBoostFit(b *testing.B) {
	X, y := linearlySeparable(1000, 4)
	for i := 0; i < b.N; i++ {
		a := &AdaBoost{Rounds: 30}
		a.Fit(X, y)
	}
}

func BenchmarkSentimentScore(b *testing.B) {
	s := NewSentimentLexicon()
	text := "an excellent and wonderful movie with a terrible ending, not bad overall but the pacing was dull"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Score(text)
	}
}
