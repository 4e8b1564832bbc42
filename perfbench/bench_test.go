package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// tinySizes keep the smoke test to seconds. At this size the income draw
// need not yield the paper's answer, so the tests below check plumbing and
// equivalence, not the workload's expected explanation.
var tinySizes = sizes{IncomeRows: 300, EZGoRows: 3000, SynthPVTs: 60, SynthAttrs: 15}

func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 1, seconds: 0, trace: trace, work: t.TempDir(), out: t.TempDir(), sizes: tinySizes, minReps: 1}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEmitsBenchmarkMetrics checks that every workload BENCHMARK.json names
// emits exactly its end-to-end metrics untraced and its per-layer metrics
// traced, each with the unit the file gives.
func TestEmitsBenchmarkMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	e2e := make(map[string]string)
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := make(map[string]string)
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			res, err := run(tinyConfig(t, trace), w.Name)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%t: attempted %d", w.Name, trace, res.Attempted)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%t: metric %s missing", w.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%t: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%t: metric %s not in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}

// TestLayerSplitMatchesExplainer checks that the benchmark's layer-split
// path (Discriminative → BuildPVTs → pre-built-PVT search) discovers the
// same PVTs and returns the same explanation, interventions and trace as
// the explainer's own discover-and-search entry points, traced or not.
func TestLayerSplitMatchesExplainer(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"income", "ezgo-fleet"} {
		sc, err := newScenario(name, 3, tinySizes, &atomic.Pointer[recorder]{})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.close()
		e := &core.Explainer{System: sc.sys, Tau: sc.tau, Options: &sc.opts, Seed: explainerSeed, Workers: numWorkers()}
		var ref *core.Result
		if sc.algo == algoGT {
			ref, err = e.ExplainGroupTestContext(ctx, sc.pass, sc.fail)
		} else {
			ref, err = e.ExplainGreedyContext(ctx, sc.pass, sc.fail)
		}
		if err != nil && !errors.Is(err, core.ErrNoExplanation) {
			t.Fatalf("%s: explainer: %v", name, err)
		}

		opts := sc.opts
		opts.Workers = numWorkers()
		if got, want := pvtKeys(candidates(sc, sc.pass, sc.fail, nil, -1)),
			pvtKeys(core.DiscoverPVTs(sc.pass, sc.fail, opts, discriminativeEps)); got != want {
			t.Errorf("%s: PVTs\n%s\nwant\n%s", name, got, want)
		}
		for _, rec := range []*recorder{nil, newRecorder()} {
			x := explainOnce(ctx, sc, t.TempDir(), true, rec)
			if x.err != nil && !errors.Is(x.err, core.ErrNoExplanation) {
				t.Fatalf("%s traced=%t: %v", name, rec != nil, x.err)
			}
			if x.discriminant != ref.Discriminative {
				t.Errorf("%s traced=%t: %d PVTs, explainer had %d", name, rec != nil, x.discriminant, ref.Discriminative)
			}
			if got, want := signature(x.res), signature(ref); got != want {
				t.Errorf("%s traced=%t: result\n%s\nwant\n%s", name, rec != nil, got, want)
			}
		}
	}
}

// TestFleetMatchesInProcess checks that ezgo-fleet explains exactly as the
// same seed's in-process oracle does.
func TestFleetMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	sc, err := newScenario("ezgo-fleet", 2, tinySizes, &atomic.Pointer[recorder]{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.close()
	local := *sc
	local.fleet = nil
	remote := explainOnce(ctx, sc, t.TempDir(), true, nil)
	inproc := explainOnce(ctx, &local, t.TempDir(), true, nil)
	if remote.err != nil || inproc.err != nil {
		t.Fatalf("fleet: %v, in-process: %v", remote.err, inproc.err)
	}
	if remote.dispatched == 0 {
		t.Error("fleet run dispatched nothing")
	}
	if got, want := signature(remote.res), signature(inproc.res); got != want {
		t.Errorf("fleet result\n%s\nwant in-process\n%s", got, want)
	}
}

// TestGatePassesTiny runs the full gate on the workloads whose expected
// answer holds at the smoke-test size.
func TestGatePassesTiny(t *testing.T) {
	for _, name := range []string{"ezgo-fleet", "synth-wide"} {
		res, err := run(tinyConfig(t, false), name)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%t failed=%d of %d", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: spanExplain, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: spanSearch, Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: spanOracle, Start: 20, End: 50},
		{ID: 3, Parent: 1, Name: spanOracle, Start: 40, End: 60},    // overlaps 2
		{ID: 4, Parent: 1, Name: spanStoreSave, Start: 85, End: 95}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 20, 1: 80 - 40 - 5, 2: 30, 3: 20, 4: 10}
	for id, w := range want {
		if int64(self[id]) != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
}

func pvtKeys(pvts []*core.PVT) string {
	keys := make([]string, len(pvts))
	for i, p := range pvts {
		keys[i] = p.Profile.Key()
	}
	b, _ := json.Marshal(keys)
	return string(b)
}
