package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/profile"
	"repro/internal/scorestore"
	"repro/internal/transform"
)

const (
	// explainerSeed seeds the search's own RNG; the workload seed only
	// shapes the inputs.
	explainerSeed = 1
	// discriminativeEps is core.Explainer's default discrimination cut.
	discriminativeEps = 1e-9
)

// explanation is one measured explanation: a cold one against an empty
// score store, or a rerun against the store a cold one filled.
type explanation struct {
	cold, traced bool
	res          *core.Result
	err          error
	wall         time.Duration // harness-measured, discovery included
	allocBytes   uint64
	peakRSS      int64 // resident bytes, sampled during the explanation
	gcCycles     uint32
	discriminant int // discriminative PVTs handed to the search

	expl        int   // recorder explanation id, when traced
	loads, hits int64 // store calls, counted when traced
	saves       int64
	bytesOut    int64 // fleet socket bytes
	bytesIn     int64
	dispatched  int
	failovers   int
	storeBytes  int64 // journal bytes on disk after the run
}

// numWorkers is the oracle concurrency: one evaluation per CPU.
func numWorkers() int { return runtime.NumCPU() }

// explainOnce runs one explanation of sc through the layer-split path:
// profile.Discriminative → core.BuildPVTs → the ctx-taking, pre-built-PVT
// search, with the oracle called as a pipeline.FallibleSystem and scores
// written through to a scorestore under dir. A cold run opens the empty
// store before the clock starts; a rerun opens (and replays) it inside
// the measured span. rec == nil measures untraced.
func explainOnce(ctx context.Context, sc *scenario, dir string, cold bool, rec *recorder) *explanation {
	x := &explanation{cold: cold, traced: rec != nil}
	// Fresh copies with empty caches, so every explanation pays discovery
	// and fingerprinting as a new process reading its inputs would.
	fail := sc.fail.Rechunk(sc.fail.ChunkSize())
	pass := sc.pass
	if pass != nil {
		pass = pass.Rechunk(pass.ChunkSize())
	}
	client := sc.client()
	oracleID := client.Name()
	var store *scorestore.Store
	if cold {
		var err error
		if store, err = scorestore.Open(dir, oracleID, scorestore.Options{}); err != nil {
			x.err = err
			return x
		}
	}
	var f0 fleetCounts
	if sc.fleet != nil {
		f0 = sc.fleet.counts()
	}
	// Start every explanation from a collected heap, as a fresh process
	// would, so no explanation pays for the previous one's garbage.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rss := startRSSSampler()

	start := time.Now()
	root := rec.startExplanation()
	if rec != nil {
		x.expl = int(rec.expl.Load())
	}
	if !cold {
		id := rec.begin(spanStoreOpen, root)
		var err error
		store, err = scorestore.Open(dir, oracleID, scorestore.Options{})
		rec.end(id)
		if err != nil {
			rec.end(root)
			rss.stopBytes()
			x.err = err
			return x
		}
	}
	var es engine.ScoreStore = store
	var ts *tracedStore
	if rec != nil {
		ts = &tracedStore{ScoreStore: store, rec: rec}
		es = ts
		name := spanOracle
		if sc.fleet != nil {
			name = spanRemote
		}
		client = &tracedSystem{FallibleSystem: client, rec: rec, name: name, link: sc.fleet != nil}
	}
	e := &core.Explainer{
		FallibleSystem: client,
		Tau:            sc.tau,
		Seed:           explainerSeed,
		Workers:        numWorkers(),
		Store:          es,
	}
	pvts := sc.given
	if pvts == nil {
		pvts = candidates(sc, pass, fail, rec, root)
	}
	x.discriminant = len(pvts)
	id := rec.begin(spanSearch, root)
	rec.under(id)
	x.res, x.err = search(ctx, e, sc.algo, pvts, fail)
	rec.end(id)
	rec.end(root)
	x.wall = time.Since(start)
	x.peakRSS = rss.stopBytes()

	runtime.ReadMemStats(&m1)
	x.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	x.gcCycles = m1.NumGC - m0.NumGC
	if ts != nil {
		x.loads, x.hits, x.saves = ts.loads.Load(), ts.hits.Load(), ts.saves.Load()
	}
	if sc.fleet != nil {
		d := sc.fleet.counts().minus(f0)
		x.bytesOut, x.bytesIn, x.dispatched, x.failovers = d.out, d.in, d.dispatched, d.failovers
	}
	if err := store.Close(); err != nil && x.err == nil {
		x.err = err
	}
	if err := store.Err(); err != nil && x.err == nil {
		x.err = err
	}
	x.storeBytes = dirBytes(dir)
	return x
}

// candidates discovers the discriminative PVTs as the explainer's own
// discovery would (profile.Discriminative, then core.BuildPVTs, with the
// oracle's worker count), timing each step as a span under root.
func candidates(sc *scenario, pass, fail *dataset.Dataset, rec *recorder, root int) []*core.PVT {
	opts := sc.opts
	if opts.Workers == 0 {
		opts.Workers = numWorkers()
	}
	id := rec.begin(spanDiscriminate, root)
	profs := profile.Discriminative(pass, fail, opts, discriminativeEps)
	rec.end(id)
	id = rec.begin(spanBuildPVTs, root)
	pvts := core.BuildPVTs(profs)
	rec.end(id)
	return pvts
}

func search(ctx context.Context, e *core.Explainer, algo string, pvts []*core.PVT, fail *dataset.Dataset) (*core.Result, error) {
	if algo == algoGT {
		return e.ExplainGroupTestPVTsContext(ctx, pvts, fail)
	}
	return e.ExplainGreedyPVTsContext(ctx, pvts, fail)
}

// fleetCounts are the fleet client's cumulative counters.
type fleetCounts struct {
	out, in               int64
	dispatched, failovers int
}

func (f *fleet) counts() fleetCounts {
	s := f.client.FleetSnapshot()
	return fleetCounts{out: f.bytes.out.Load(), in: f.bytes.in.Load(), dispatched: s.Dispatched, failovers: s.Failovers}
}

func (a fleetCounts) minus(b fleetCounts) fleetCounts {
	return fleetCounts{out: a.out - b.out, in: a.in - b.in, dispatched: a.dispatched - b.dispatched, failovers: a.failovers - b.failovers}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// signature is what must repeat exactly across explanations of one input:
// the explanation, the interventions, and every trace step.
func signature(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s interventions=%d\n", res.ExplanationString(), res.Interventions)
	for _, s := range res.Trace {
		fmt.Fprintf(&b, "%v %s %v %t\n", s.PVTs, s.Transform, math.Float64bits(s.Score), s.Accepted)
	}
	return b.String()
}

// gate checks one explanation against the run's reference (the first cold
// explanation). The first cold explanation is verified in full: it found an
// explanation, the workload's expected answer, a transformed dataset the
// in-process oracle scores at or below τ, and core.VerifyExplanation with
// the minimality check. Every later explanation must repeat its signature;
// a rerun must also spend no oracle call.
func gate(sc *scenario, x *explanation, ref *explanation) error {
	if x.err != nil {
		return x.err
	}
	res := x.res
	if !res.Found {
		return fmt.Errorf("%s: no explanation found", sc.name)
	}
	if ref == nil {
		if err := sc.check(res); err != nil {
			return err
		}
		if s := sc.sys.MalfunctionScore(res.Transformed); s > sc.tau {
			return fmt.Errorf("%s: transformed dataset rescored %.4f > τ=%.4f", sc.name, s, sc.tau)
		}
		if ok, _ := core.VerifyExplanation(sc.sys, sc.tau, sc.fail, pinned(res), explainerSeed, true); !ok {
			return fmt.Errorf("%s: %s fails sufficiency or minimality", sc.name, res.ExplanationString())
		}
		return nil
	}
	if x.cold {
		if got, want := signature(res), signature(ref.res); got != want {
			return fmt.Errorf("%s: explanation differs from the first run:\n%s\nwant\n%s", sc.name, got, want)
		}
		return nil
	}
	if res.Interventions != 0 {
		return fmt.Errorf("%s: rerun spent %d oracle calls, want 0 (all from the store)", sc.name, res.Interventions)
	}
	want := *ref.res
	want.Interventions = 0
	if got, want := signature(res), signature(&want); got != want {
		return fmt.Errorf("%s: rerun explanation differs from the cold run:\n%s\nwant\n%s", sc.name, got, want)
	}
	return nil
}

// pinned returns the explanation with each PVT restricted to the
// transformation the greedy search accepted for it (its trace step), so
// verification composes the fix the search reported. VerifyExplanation on
// its own applies each PVT's first applicable transformation, which for a
// PVT with several (income's Indep: shuffle-target, shuffle-sex) need not be
// the one that fixed it. Group-testing steps name no transformation; those
// PVTs keep their full list.
func pinned(res *core.Result) []*core.PVT {
	accepted := make(map[string]string)
	for _, s := range res.Trace {
		if s.Accepted && len(s.PVTs) == 1 && s.Transform != "" && s.Transform != "make-minimal drop check" {
			accepted[s.PVTs[0]] = s.Transform
		}
	}
	out := make([]*core.PVT, len(res.Explanation))
	for i, p := range res.Explanation {
		out[i] = p
		for _, t := range p.Transforms {
			if t.Name() == accepted[p.String()] {
				out[i] = &core.PVT{Profile: p.Profile, Transforms: []transform.Transformation{t}}
				break
			}
		}
	}
	return out
}
