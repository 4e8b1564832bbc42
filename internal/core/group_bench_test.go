package core

import (
	"math/rand"
	"testing"

	"repro/internal/profile"
	"repro/internal/workload"
)

// BenchmarkGroupIntervention composes one group intervention X_T(D) of
// Algorithm 3 — 16 Selectivity PVTs, each repaired by a resample — over a
// 200k-row EZGo batch, the shape of the first split of the ezgo-fleet
// benchmark workload.
func BenchmarkGroupIntervention(b *testing.B) {
	sc := workload.NewEZGoScenario(200_000, 1)
	var group []*PVT
	for _, p := range DiscoverPVTs(sc.Pass, sc.Fail, sc.Options, 1e-9) {
		if _, ok := p.Profile.(*profile.Selectivity); ok && len(group) < 16 {
			group = append(group, p)
		}
	}
	if len(group) < 16 {
		b.Fatalf("EZGo batch has %d discriminative Selectivity PVTs, want 16", len(group))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := composeAll(sc.Fail, group, nil, rand.New(rand.NewSource(1))); d.NumRows() == 0 {
			b.Fatal("group intervention emptied the batch")
		}
	}
}
