package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/pipeline"
)

// Span names. Each names the layer (module) whose public call it wraps;
// remote.call is the client side of a fleet evaluation, whose self time is
// the wire (encode, transfer, worker-side decode) once the worker-side
// oracle.call child is subtracted.
const (
	spanExplain      = "explain"
	spanStoreOpen    = "scorestore.open"
	spanDiscriminate = "profile.discriminate"
	spanBuildPVTs    = "core.buildpvts"
	spanSearch       = "core.search"
	spanOracle       = "oracle.call"
	spanRemote       = "remote.call"
	spanStoreLoad    = "scorestore.load"
	spanStoreSave    = "scorestore.save"
)

// span is one timed call into a layer. Times are offsets from the
// recorder's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Expl   int           `json:"expl"`   // explanation id shared by every span of one explanation
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the whole run. A nil *recorder is
// tracing off: every method is a no-op, so untraced explanations take the
// same code path minus the clock reads.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	expl   atomic.Int64 // current explanation id
	parent atomic.Int64 // span wrapper spans hang under (the running search)

	linkMu sync.Mutex
	byFP   map[uint64]int // open remote.call span per dataset fingerprint
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), byFP: make(map[uint64]int)}
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Expl: int(r.expl.Load()), Name: name, Start: now, End: -1})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// under makes id the parent of spans the wrappers record from now on.
func (r *recorder) under(id int) {
	if r != nil {
		r.parent.Store(int64(id))
	}
}

func (r *recorder) current() int { return int(r.parent.Load()) }

// startExplanation opens the root span of a new explanation.
func (r *recorder) startExplanation() int {
	if r == nil {
		return -1
	}
	r.expl.Add(1)
	id := r.begin(spanExplain, -1)
	r.under(id)
	return id
}

// snapshot returns the spans of explanation expl.
func (r *recorder) snapshot(expl int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Expl == expl {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as JSON lines after a header line.
func (r *recorder) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSystem times every oracle evaluation. On the client side of a fleet
// it also publishes the dataset fingerprint of the open call, so the
// worker-side wrapper can hang its span under it.
type tracedSystem struct {
	pipeline.FallibleSystem
	rec  *recorder
	name string
	link bool
}

func (s *tracedSystem) TryMalfunctionScore(ctx context.Context, d *dataset.Dataset) pipeline.ScoreResult {
	var fp uint64
	if s.link {
		fp = d.Fingerprint() // memoized by the engine's lookup, so free here
	}
	id := s.rec.begin(s.name, s.rec.current())
	if s.link {
		s.rec.linkMu.Lock()
		s.rec.byFP[fp] = id
		s.rec.linkMu.Unlock()
	}
	r := s.FallibleSystem.TryMalfunctionScore(ctx, d)
	s.rec.end(id)
	if s.link {
		s.rec.linkMu.Lock()
		delete(s.rec.byFP, fp)
		s.rec.linkMu.Unlock()
	}
	return r
}

// FleetSnapshot and BreakerTrips forward the engine's optional counters,
// so wrapping changes no engine.Stats field.
func (s *tracedSystem) FleetSnapshot() pipeline.FleetStats {
	if fr, ok := s.FallibleSystem.(pipeline.FleetReporter); ok {
		return fr.FleetSnapshot()
	}
	return pipeline.FleetStats{}
}

func (s *tracedSystem) BreakerTrips() int {
	if tc, ok := s.FallibleSystem.(pipeline.TripCounter); ok {
		return tc.BreakerTrips()
	}
	return 0
}

// workerSystem is the fleet worker's oracle wrapper. The workers outlive
// any one explanation, so it passes calls straight through unless a
// recorder is switched on. A worker decodes a fresh dataset per request, so
// finding the client span costs one fingerprint; that cost lands in the
// client's remote.call self time and is part of the reported tracing
// overhead.
type workerSystem struct {
	pipeline.FallibleSystem
	rec *atomic.Pointer[recorder]
}

func (s *workerSystem) TryMalfunctionScore(ctx context.Context, d *dataset.Dataset) pipeline.ScoreResult {
	rec := s.rec.Load()
	if rec == nil {
		return s.FallibleSystem.TryMalfunctionScore(ctx, d)
	}
	fp := d.Fingerprint()
	rec.linkMu.Lock()
	parent, ok := rec.byFP[fp]
	rec.linkMu.Unlock()
	if !ok {
		parent = -1
	}
	id := rec.begin(spanOracle, parent)
	r := s.FallibleSystem.TryMalfunctionScore(ctx, d)
	rec.end(id)
	return r
}

// tracedStore times every score-store lookup and write-through.
type tracedStore struct {
	engine.ScoreStore
	rec         *recorder
	loads, hits atomic.Int64
	saves       atomic.Int64
}

func (s *tracedStore) Load(fp uint64) (float64, bool) {
	id := s.rec.begin(spanStoreLoad, s.rec.current())
	v, ok := s.ScoreStore.Load(fp)
	s.rec.end(id)
	s.loads.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return v, ok
}

func (s *tracedStore) Save(fp uint64, score float64, deterministic bool) {
	id := s.rec.begin(spanStoreSave, s.rec.current())
	s.ScoreStore.Save(fp, score, deterministic)
	s.rec.end(id)
	s.saves.Add(1)
}

// byteCounter totals the bytes the fleet client moves over its sockets.
type byteCounter struct {
	out, in atomic.Int64
}

// dial is a remote.Config.Dial that counts every byte on the connection.
func (b *byteCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, b: b}, nil
}

type countingConn struct {
	net.Conn
	b *byteCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.b.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.b.out.Add(int64(n))
	return n, err
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by ivs.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTimes returns each span's duration minus the union of its children's
// intervals clipped to it.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]interval)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], interval{lo, hi})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - unionLen(kids[s.ID])
	}
	return out
}

// layerOf maps a span to the layer its self time is charged to.
func layerOf(name string) string {
	switch name {
	case spanExplain:
		return "harness"
	case spanRemote:
		return "remote.wire"
	case spanDiscriminate:
		return "profile"
	case spanBuildPVTs, spanSearch:
		return "core"
	case spanOracle:
		return "oracle"
	default: // scorestore.*
		return "scorestore"
	}
}
