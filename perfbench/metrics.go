package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// End-to-end metric names and units; BENCHMARK.json lists the same.
const (
	unitS     = "s"
	unitMS    = "ms"
	unitMB    = "MB"
	unitCount = "count"
	unitRatio = "ratio"
	unitBytes = "bytes"
	unitPct   = "pct"
)

func seconds(d time.Duration) float64 { return d.Seconds() }

func secondsEach(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func mb(b float64) float64 { return b / 1e6 }

// median of vs; 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of vs.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// tailPercentile is the highest of a fixed ladder of percentiles that still
// has at least ten samples beyond it (50 when even the median has not).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// pick selects explanations by kind.
func pick(xs []*explanation, cold, traced bool) []*explanation {
	var out []*explanation
	for _, x := range xs {
		if x.cold == cold && x.traced == traced && x.err == nil && x.res != nil {
			out = append(out, x)
		}
	}
	return out
}

func medianOf(xs []*explanation, f func(*explanation) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return median(vs)
}

// endToEndMetrics are what a user sees, from untraced explanations only.
func endToEndMetrics(xs []*explanation, setups []time.Duration) map[string]metric {
	cold, rerun := pick(xs, true, false), pick(xs, false, false)
	attempted, failedEvals := 0, 0
	for _, x := range cold {
		attempted += x.res.Stats.CacheMisses
		failedEvals += x.res.Stats.Failures()
	}
	okRatio := 0.0
	if attempted > 0 {
		okRatio = float64(attempted-failedEvals) / float64(attempted)
	}
	interventions := 0.0
	if len(cold) > 0 {
		interventions = float64(cold[0].res.Interventions)
	}
	return map[string]metric{
		"explain_s":     {medianOf(cold, func(x *explanation) float64 { return seconds(x.wall) }), unitS},
		"rerun_s":       {medianOf(rerun, func(x *explanation) float64 { return seconds(x.wall) }), unitS},
		"interventions": {interventions, unitCount},
		"setup_s":       {median(secondsEach(setups)), unitS},
		"alloc_mb":      {medianOf(cold, func(x *explanation) float64 { return mb(float64(x.allocBytes)) }), unitMB},
		"peak_rss_mb":   {medianOf(cold, func(x *explanation) float64 { return mb(float64(x.peakRSS)) }), unitMB},
		"eval_ok_ratio": {okRatio, unitRatio},
	}
}

// layerStats are one traced explanation's per-layer figures.
type layerStats struct {
	oracleCalls  int
	oracleBusy   time.Duration
	oracleUnion  time.Duration
	oracleMS     []float64
	remoteMS     []float64
	remoteWire   time.Duration
	search       time.Duration
	searchSelf   time.Duration
	discriminate time.Duration
	buildPVTs    time.Duration
	storeOpen    time.Duration
	storeLoad    time.Duration
	storeSave    time.Duration
	coverage     float64 // root-level layer spans ÷ explanation span
	spans        int
	self         map[string]time.Duration // by layer
}

func analyze(spans []span) layerStats {
	st := layerStats{self: make(map[string]time.Duration), spans: len(spans)}
	self := selfTimes(spans)
	var oracleIvs, rootKids []interval
	var root span
	for _, s := range spans {
		st.self[layerOf(s.Name)] += self[s.ID]
		switch s.Name {
		case spanExplain:
			root = s
		case spanOracle:
			st.oracleCalls++
			st.oracleBusy += s.dur()
			st.oracleMS = append(st.oracleMS, float64(s.dur())/1e6)
			oracleIvs = append(oracleIvs, interval{s.Start, s.End})
		case spanRemote:
			st.remoteMS = append(st.remoteMS, float64(s.dur())/1e6)
			st.remoteWire += self[s.ID]
		case spanSearch:
			st.search += s.dur()
			st.searchSelf += self[s.ID]
		case spanDiscriminate:
			st.discriminate += s.dur()
		case spanBuildPVTs:
			st.buildPVTs += s.dur()
		case spanStoreOpen:
			st.storeOpen += s.dur()
		case spanStoreLoad:
			st.storeLoad += s.dur()
		case spanStoreSave:
			st.storeSave += s.dur()
		}
	}
	for _, s := range spans {
		if s.Parent == root.ID && s.ID != root.ID {
			rootKids = append(rootKids, interval{s.Start, s.End})
		}
	}
	st.oracleUnion = unionLen(oracleIvs)
	if d := root.dur(); d > 0 {
		st.coverage = float64(unionLen(rootKids)) / float64(d)
	}
	return st
}

// layerMetrics are the traced run's per-layer figures: medians over the
// traced explanations, with latency percentiles pooled over every call.
func layerMetrics(rec *recorder, xs []*explanation) map[string]metric {
	cold, rerun := pick(xs, true, true), pick(xs, false, true)
	coldStats := make([]layerStats, len(cold))
	var oracleMS, remoteMS []float64
	for i, x := range cold {
		coldStats[i] = analyze(rec.snapshot(x.expl))
		oracleMS = append(oracleMS, coldStats[i].oracleMS...)
		remoteMS = append(remoteMS, coldStats[i].remoteMS...)
	}
	rerunStats := make([]layerStats, len(rerun))
	for i, x := range rerun {
		rerunStats[i] = analyze(rec.snapshot(x.expl))
	}
	cs := func(f func(layerStats) float64) float64 {
		vs := make([]float64, len(coldStats))
		for i, s := range coldStats {
			vs[i] = f(s)
		}
		return median(vs)
	}
	rs := func(f func(layerStats) float64) float64 {
		vs := make([]float64, len(rerunStats))
		for i, s := range rerunStats {
			vs[i] = f(s)
		}
		return median(vs)
	}
	cx := func(f func(*explanation) float64) float64 { return medianOf(cold, f) }
	rx := func(f func(*explanation) float64) float64 { return medianOf(rerun, f) }

	minCoverage := 1.0
	for _, s := range append(append([]layerStats(nil), coldStats...), rerunStats...) {
		minCoverage = math.Min(minCoverage, s.coverage)
	}
	tail := tailPercentile(len(oracleMS))
	untraced := medianOf(pick(xs, true, false), func(x *explanation) float64 { return seconds(x.wall) })
	traced := cx(func(x *explanation) float64 { return seconds(x.wall) })

	ms := map[string]metric{
		"oracle.calls":         {cs(func(s layerStats) float64 { return float64(s.oracleCalls) }), unitCount},
		"oracle.busy_s":        {cs(func(s layerStats) float64 { return seconds(s.oracleBusy) }), unitS},
		"oracle.call_ms_p50":   {percentile(oracleMS, 50), unitMS},
		"oracle.call_ms_tail":  {percentile(oracleMS, tail), unitMS},
		"oracle.call_tail_pct": {tail, unitPct},
		"engine.overlap": {cs(func(s layerStats) float64 {
			if s.oracleUnion == 0 {
				return 0
			}
			return float64(s.oracleBusy) / float64(s.oracleUnion)
		}), unitRatio},
		"engine.batches":       {cx(func(x *explanation) float64 { return float64(x.res.Stats.Batches) }), unitCount},
		"engine.interventions": {cx(func(x *explanation) float64 { return float64(x.res.Stats.Interventions) }), unitCount},
		"engine.cache_hit_ratio": {cx(func(x *explanation) float64 {
			st := x.res.Stats
			if st.CacheHits+st.CacheMisses == 0 {
				return 0
			}
			return float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
		}), unitRatio},
		"engine.store_hits": {rx(func(x *explanation) float64 { return float64(x.res.Stats.StoreHits) }), unitCount},
		"engine.retries":    {cx(func(x *explanation) float64 { return float64(x.res.Stats.Retries) }), unitCount},
		"engine.eval_fail_ratio": {cx(func(x *explanation) float64 {
			if x.res.Stats.CacheMisses == 0 {
				return 0
			}
			return float64(x.res.Stats.Failures()) / float64(x.res.Stats.CacheMisses)
		}), unitRatio},
		"core.search_s":          {cs(func(s layerStats) float64 { return seconds(s.search) }), unitS},
		"core.self_s":            {cs(func(s layerStats) float64 { return seconds(s.searchSelf) }), unitS},
		"core.rerun_self_s":      {rs(func(s layerStats) float64 { return seconds(s.searchSelf) }), unitS},
		"core.buildpvts_s":       {cs(func(s layerStats) float64 { return seconds(s.buildPVTs) }), unitS},
		"core.accept_ratio":      {cx(acceptRatio), unitRatio},
		"profile.discriminate_s": {cs(func(s layerStats) float64 { return seconds(s.discriminate) }), unitS},
		"profile.pvts":           {cx(func(x *explanation) float64 { return float64(x.discriminant) }), unitCount},
		"remote.call_ms_p50":     {percentile(remoteMS, 50), unitMS},
		"remote.worker_ms_p50": {func() float64 {
			if len(remoteMS) == 0 {
				return 0
			}
			return percentile(oracleMS, 50)
		}(), unitMS},
		"remote.wire_s":    {cs(func(s layerStats) float64 { return seconds(s.remoteWire) }), unitS},
		"remote.bytes_out": {cx(func(x *explanation) float64 { return float64(x.bytesOut) }), unitBytes},
		"remote.bytes_in":  {cx(func(x *explanation) float64 { return float64(x.bytesIn) }), unitBytes},
		"remote.bytes_out_per_call": {cx(func(x *explanation) float64 {
			if x.dispatched == 0 {
				return 0
			}
			return float64(x.bytesOut) / float64(x.dispatched)
		}), unitBytes},
		"remote.dispatched":  {cx(func(x *explanation) float64 { return float64(x.dispatched) }), unitCount},
		"remote.failovers":   {cx(func(x *explanation) float64 { return float64(x.failovers) }), unitCount},
		"scorestore.saves":   {cx(func(x *explanation) float64 { return float64(x.saves) }), unitCount},
		"scorestore.save_s":  {cs(func(s layerStats) float64 { return seconds(s.storeSave) }), unitS},
		"scorestore.bytes":   {cx(func(x *explanation) float64 { return float64(x.storeBytes) }), unitBytes},
		"scorestore.open_s":  {rs(func(s layerStats) float64 { return seconds(s.storeOpen) }), unitS},
		"scorestore.loads":   {rx(func(x *explanation) float64 { return float64(x.loads) }), unitCount},
		"scorestore.hits":    {rx(func(x *explanation) float64 { return float64(x.hits) }), unitCount},
		"scorestore.load_s":  {rs(func(s layerStats) float64 { return seconds(s.storeLoad) }), unitS},
		"runtime.gc_cycles":  {cx(func(x *explanation) float64 { return float64(x.gcCycles) }), unitCount},
		"runtime.alloc_mb":   {cx(func(x *explanation) float64 { return mb(float64(x.allocBytes)) }), unitMB},
		"trace.overhead_s":   {traced - untraced, unitS},
		"trace.coverage_min": {minCoverage, unitRatio},
		"trace.spans":        {cs(func(s layerStats) float64 { return float64(s.spans) }), unitCount},
	}
	for _, l := range selfLayers {
		ms["self."+l+"_s"] = metric{cs(func(s layerStats) float64 { return seconds(s.self[l]) }), unitS}
	}
	return ms
}

// selfLayers are the layers self time is charged to, by metric name.
var selfLayers = []string{"core", "oracle", "remote.wire", "profile", "scorestore", "harness"}

func acceptRatio(x *explanation) float64 {
	if len(x.res.Trace) == 0 {
		return 0
	}
	n := 0
	for _, s := range x.res.Trace {
		if s.Accepted {
			n++
		}
	}
	return float64(n) / float64(len(x.res.Trace))
}

// printSelfTimes writes each layer's median self time per traced cold
// explanation, largest first.
func printSelfTimes(w io.Writer, rec *recorder, xs []*explanation) {
	cold := pick(xs, true, true)
	per := make(map[string][]float64)
	for _, x := range cold {
		st := analyze(rec.snapshot(x.expl))
		for _, l := range selfLayers {
			per[l] = append(per[l], seconds(st.self[l]))
		}
	}
	layers := append([]string(nil), selfLayers...)
	sort.SliceStable(layers, func(i, j int) bool { return median(per[layers[i]]) > median(per[layers[j]]) })
	fmt.Fprintf(w, "self time per traced cold explanation (median of %d):\n", len(cold))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %10.4f s\n", l, median(per[l]))
	}
}

func printMetrics(w io.Writer, name string, in info, ms map[string]metric) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%t: %s, nproc=%d GOMAXPROCS=%d %s; %s rows=%d pvts=%d setups=%d repeats=%d\n",
		name, in.Seed, in.Trace, in.CPU, in.NumCPU, in.GOMAXPROCS, in.Go, in.Algo, in.Rows, in.PVTs, in.Setups, in.Repeats)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printSamples writes the wall-time distribution behind each median: the
// sample count, quartiles and the tail percentile with ten samples beyond.
func printSamples(w io.Writer, xs []*explanation) {
	for _, k := range []struct {
		label        string
		cold, traced bool
	}{{"cold", true, false}, {"rerun", false, false}, {"traced cold", true, true}, {"traced rerun", false, true}} {
		sel := pick(xs, k.cold, k.traced)
		if len(sel) == 0 {
			continue
		}
		vs := make([]float64, len(sel))
		for i, x := range sel {
			vs[i] = seconds(x.wall)
		}
		tail := tailPercentile(len(vs))
		fmt.Fprintf(w, "  %-12s n=%-3d p25=%.4f p50=%.4f p75=%.4f p%g=%.4f s  in order: %s\n", k.label, len(vs),
			percentile(vs, 25), median(vs), percentile(vs, 75), tail, percentile(vs, tail), fmtSeries(vs))
	}
}

func fmtSeries(vs []float64) string {
	var b strings.Builder
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", v)
	}
	return b.String()
}
