package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// trickyDataset holds every cell CSV used to lose: NULL spellings and
// blanks as real categorical values, CR LF inside text, NaN (with a
// payload), -0 and ±Inf, and a real NULL in every kind.
func trickyDataset(chunkSize int) *dataset.Dataset {
	d := dataset.NewChunked(chunkSize)
	null := []bool{false, false, false, false, false, false, false, true}
	nums := []float64{math.NaN(), math.Float64frombits(0x7ff8dead00000001), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -1e-300, 42}
	cats := []string{"NA", "null", "N/A", " ", "", "NULL", "n/a", "stale"}
	texts := []string{"a\r\nb", `"quoted, comma"`, "", "NA", " ", "\xff\xfe", "line\nbreak", "stale"}
	for _, err := range []error{
		d.AddNumericColumn("num", nums, null),
		d.AddCategoricalColumn("cat", cats, null),
		d.AddTextColumn("text", texts, null),
		d.AddCategoricalColumn("label", []string{"-1", "1", "-1", "1", "-1", "1", "-1", "1"}, nil),
	} {
		if err != nil {
			panic(err)
		}
	}
	return d
}

// TestWireFidelity: a dataset scored through a loopback Worker arrives
// unchanged — Equal, the same fingerprint, and the same numeric bits — for
// single- and multi-chunk layouts.
func TestWireFidelity(t *testing.T) {
	var last atomic.Pointer[dataset.Dataset]
	capture := &pipeline.TryFunc{SystemName: "capture", Try: func(_ context.Context, d *dataset.Dataset) pipeline.ScoreResult {
		last.Store(d)
		return pipeline.ScoreResult{Score: 0, Attempts: 1}
	}}
	tr := newTransport(startWorker(t, capture), nil, 0)
	defer tr.Close()
	for _, chunk := range []int{dataset.DefaultChunkSize, 3} {
		d := trickyDataset(chunk)
		if res := tr.TryMalfunctionScore(context.Background(), d); res.Err != nil {
			t.Fatalf("chunk %d: %+v", chunk, res)
		}
		got := last.Load()
		if !got.Equal(d) || !d.Equal(got) {
			t.Fatalf("chunk %d: dataset changed in transit:\nsent %v\ngot  %v", chunk, d, got)
		}
		if got.Fingerprint() != d.Fingerprint() {
			t.Fatalf("chunk %d: worker fingerprint %016x, client %016x", chunk, got.Fingerprint(), d.Fingerprint())
		}
		sent, back := d.Column("num"), got.Column("num")
		for r := 0; r < d.NumRows(); r++ {
			if sent.NullAt(r) != back.NullAt(r) {
				t.Fatalf("chunk %d row %d: NULL flag changed", chunk, r)
			}
			if !sent.NullAt(r) && math.Float64bits(sent.NumAt(r)) != math.Float64bits(back.NumAt(r)) {
				t.Fatalf("chunk %d row %d: bits %x, sent %x", chunk, r, math.Float64bits(back.NumAt(r)), math.Float64bits(sent.NumAt(r)))
			}
		}
		for _, name := range []string{"cat", "text"} {
			for r := 0; r < 7; r++ {
				if g, w := got.Column(name).StrAt(r), d.Column(name).StrAt(r); g != w || got.Column(name).NullAt(r) {
					t.Fatalf("chunk %d %s row %d = %q (null %v), want %q", chunk, name, r, g, got.Column(name).NullAt(r), w)
				}
			}
		}
	}
}

// TestEncodeRequestRejectsOversizeSchema: counts and lengths that would
// wrap their wire fields are a typed error, not garbage on the wire.
func TestEncodeRequestRejectsOversizeSchema(t *testing.T) {
	long := dataset.New()
	if err := long.AddNumericColumn(strings.Repeat("n", math.MaxUint16+1), []float64{1}, nil); err != nil {
		t.Fatal(err)
	}
	wide := dataset.New()
	for i := 0; i <= math.MaxUint16; i++ {
		if err := wide.AddNumericColumn(fmt.Sprint("c", i), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for name, d := range map[string]*dataset.Dataset{"long name": long, "65536 columns": wide} {
		if _, err := encodeRequest(d); !errors.Is(err, ErrRequestTooLarge) {
			t.Errorf("%s: err = %v, want ErrRequestTooLarge", name, err)
		}
	}
}

// oversizeDataset encodes to just over maxFrameSize while holding only
// 1 MiB: every text cell shares one string.
func oversizeDataset() *dataset.Dataset {
	cell := strings.Repeat("x", 1<<20)
	cells := make([]string, maxFrameSize>>20+1)
	for i := range cells {
		cells[i] = cell
	}
	return dataset.New().MustAddText("blob", cells)
}

// TestRequestTooLargeFailsBeforeDial: an oversize dataset is a permanent
// failure detected on the client — nothing is dialed, retried, or charged
// to a breaker — through the fleet, through a bare transport, and through a
// fleet whose breakers are all open, where it must not reach the fallback.
func TestRequestTooLargeFailsBeforeDial(t *testing.T) {
	var dials atomic.Int64
	dial := func(context.Context, string, string) (net.Conn, error) {
		dials.Add(1)
		return nil, errors.New("dialed")
	}
	d := oversizeDataset()
	fleet := NewFleet(Config{Addrs: []string{"127.0.0.1:1", "127.0.0.1:2"}, Dial: dial, BreakerThreshold: 1})
	defer fleet.Close()
	tr := newTransport("127.0.0.1:3", dial, 0)
	defer tr.Close()

	local := &valueScorer{}
	down := NewFleet(Config{
		Addrs: []string{"127.0.0.1:4", "127.0.0.1:5"},
		Dial: func(context.Context, string, string) (net.Conn, error) {
			return nil, errors.New("worker down")
		},
		Fallback:         local,
		RetryMax:         1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	defer down.Close()
	if res := down.TryMalfunctionScore(context.Background(), flagData(0.6)); res.Err != nil {
		t.Fatalf("degraded eval = %+v", res)
	}
	if st := down.FleetSnapshot(); st.Healthy != 0 {
		t.Fatalf("stats = %+v, want every breaker open", st)
	}

	for name, sys := range map[string]pipeline.FallibleSystem{
		"fleet":      &pipeline.Retry{System: fleet, Max: 3},
		"transport":  &pipeline.Retry{System: tr, Max: 3},
		"fleet down": &pipeline.Retry{System: down, Max: 3},
	} {
		res := sys.TryMalfunctionScore(context.Background(), d)
		if !errors.Is(res.Err, ErrRequestTooLarge) || res.Transient || res.Attempts != 0 {
			t.Fatalf("%s: result = %+v, want a permanent ErrRequestTooLarge with no attempts", name, res)
		}
	}
	if n := dials.Load(); n != 0 {
		t.Fatalf("%d dials for an oversize request", n)
	}
	if trips := fleet.BreakerTrips(); trips != 0 {
		t.Fatalf("BreakerTrips() = %d, want 0", trips)
	}
	if st := fleet.FleetSnapshot(); st.Dispatched != 0 || st.WorkerFaults != 0 || st.Healthy != 2 {
		t.Fatalf("fleet stats = %+v, want nothing dispatched and both workers healthy", st)
	}
	if n := local.calls.Load(); n != 1 {
		t.Fatalf("fallback calls = %d, want 1 (the small dataset only)", n)
	}
}

// TestWorkerAnswersUndecodableRequestPermanently: a whole frame that does
// not decode gets a permanent failure on a connection that stays usable.
func TestWorkerAnswersUndecodableRequestPermanently(t *testing.T) {
	conn, err := net.Dial("tcp", startWorker(t, &valueScorer{}))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	roundTrip := func(frame []byte) pipeline.ScoreResult {
		t.Helper()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		payload, err := readFrame(conn)
		if err != nil {
			t.Fatalf("worker hung up instead of answering: %v", err)
		}
		res, err := decodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	good, err := encodeRequest(flagData(0.25))
	if err != nil {
		t.Fatal(err)
	}
	trailing := append(bytes.Clone(good), 0)
	binary.BigEndian.PutUint32(trailing, uint32(len(trailing)-4))
	badKind := bytes.Clone(good)
	badKind[4+requestHeaderSize] = 9
	garbage := []byte{0, 0, 0, 3, protocolVersion, msgScore, 7}
	for name, frame := range map[string][]byte{"trailing byte": trailing, "unknown kind": badKind, "truncated header": garbage} {
		res := roundTrip(frame)
		if res.Err == nil || res.Transient || !strings.Contains(res.Err.Error(), errProtocol.Error()) {
			t.Fatalf("%s: result = %+v, want a permanent protocol failure", name, res)
		}
	}
	if res := roundTrip(good); res.Err != nil || res.Score != 0.25 {
		t.Fatalf("connection unusable after a bad request: %+v", res)
	}
}

// TestFleetScoresDatasetAboveCSVCap scores a 400k×20 mixed dataset (10
// numeric, 10 categorical) over a loopback worker. As a CSV body a table
// of this shape is about 88 MB, beyond the 64 MiB frame cap, so protocol
// v1 could not send it; as a frame it is about 37 MB.
func TestFleetScoresDatasetAboveCSVCap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a few hundred MB")
	}
	const rows = 400_000
	d := mixedDataset(rows, 1)
	var workerFP atomic.Uint64
	sys := &pipeline.TryFunc{SystemName: "rows", Try: func(_ context.Context, got *dataset.Dataset) pipeline.ScoreResult {
		workerFP.Store(got.Fingerprint())
		return pipeline.ScoreResult{Score: float64(got.NumRows() * got.NumCols()), Attempts: 1}
	}}
	fleet := NewFleet(Config{Addrs: []string{startWorker(t, sys)}, SystemName: "rows"})
	defer fleet.Close()
	res := fleet.TryMalfunctionScore(context.Background(), d)
	if res.Err != nil || res.Score != rows*20 {
		t.Fatalf("result = %+v", res)
	}
	if workerFP.Load() != d.Fingerprint() {
		t.Fatalf("worker fingerprint %016x, client %016x", workerFP.Load(), d.Fingerprint())
	}
}

// mixedDataset is rows×20: 10 numeric columns with ~1% NULLs and 10
// categorical columns over 12 values. BenchmarkRequestCodec measures it
// too.
func mixedDataset(rows int, seed uint64) *dataset.Dataset {
	d := dataset.New()
	domain := make([]string, 12)
	for i := range domain {
		domain[i] = fmt.Sprintf("v%02d", i)
	}
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for c := 0; c < 10; c++ {
		nums := make([]float64, rows)
		null := make([]bool, rows)
		for i := range nums {
			nums[i] = float64(next()%1_000_000) / 997
			null[i] = next()%100 == 0
		}
		if err := d.AddNumericColumn(fmt.Sprint("n", c), nums, null); err != nil {
			panic(err)
		}
	}
	for c := 0; c < 10; c++ {
		cats := make([]string, rows)
		for i := range cats {
			cats[i] = domain[next()%uint64(len(domain))]
		}
		d.MustAddCategorical(fmt.Sprint("c", c), cats)
	}
	return d
}

// TestDecodeRequestBoundsAllocation: a header claiming 2³²−1 rows over a
// 20-byte body fails before it allocates anything rows-sized.
func TestDecodeRequestBoundsAllocation(t *testing.T) {
	payload := make([]byte, requestHeaderSize, requestHeaderSize+20)
	payload[0], payload[1] = protocolVersion, msgScore
	binary.BigEndian.PutUint32(payload[10:], math.MaxUint32)
	binary.BigEndian.PutUint16(payload[14:], 1)
	payload = append(payload, byte(dataset.Numeric), 0, 1, 'x')
	payload = append(payload, make([]byte, 16)...)
	allocated := allocatedBy(func() {
		if _, _, err := decodeRequest(payload); !errors.Is(err, errProtocol) {
			t.Fatalf("err = %v, want a protocol error", err)
		}
	})
	if allocated > 64<<10 {
		t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(payload), allocated)
	}
}

// allocatedBy reports the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fuzzSeedRequests are request payloads (no length prefix) of small mixed
// datasets.
func fuzzSeedRequests() [][]byte {
	wideDict := make([]string, 300)
	for i := range wideDict {
		wideDict[i] = fmt.Sprint(i % 257)
	}
	var out [][]byte
	for _, d := range []*dataset.Dataset{
		dataset.New(),
		flagData(0.5),
		trickyDataset(3),
		mixedDataset(9, 2),
		dataset.New().MustAddCategorical("wide", wideDict),
		dataset.New().MustAddText("empty", nil),
	} {
		frame, err := encodeRequest(d)
		if err != nil {
			panic(err)
		}
		out = append(out, frame[4:])
	}
	return out
}

// FuzzDecodeRequest: every payload either fails with an error wrapping
// errProtocol or decodes to a dataset that re-encodes to the same bytes
// (the fingerprint field aside, which the decoder does not recompute), and
// decoding allocates in proportion to the payload, never to the counts
// its header claims.
func FuzzDecodeRequest(f *testing.F) {
	for _, p := range fuzzSeedRequests() {
		f.Add(p)
	}
	lying := make([]byte, requestHeaderSize+4)
	lying[0], lying[1] = protocolVersion, msgScore
	binary.BigEndian.PutUint32(lying[10:], math.MaxUint32)
	binary.BigEndian.PutUint16(lying[14:], math.MaxUint16)
	f.Add(lying)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var d *dataset.Dataset
		var err error
		allocated := allocatedBy(func() { _, d, err = decodeRequest(payload) })
		if limit := uint64(64*len(payload) + 1<<20); allocated > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(payload), allocated, limit)
		}
		if err != nil {
			if !errors.Is(err, errProtocol) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		frame, err := encodeRequest(d)
		if err != nil {
			t.Fatalf("decoded dataset does not re-encode: %v", err)
		}
		// The worker does not verify the header fingerprint; every other
		// byte must match.
		want := bytes.Clone(payload)
		binary.BigEndian.PutUint64(want[2:], d.Fingerprint())
		if !bytes.Equal(frame[4:], want) {
			t.Fatalf("re-encoding differs from the accepted payload:\n got %x\nwant %x", frame[4:], want)
		}
	})
}

// FuzzDecodeResponse: every payload either fails with an error wrapping
// errProtocol or decodes to a consistently classified result — a score
// re-encodes to the same bytes; a failure has no score, is transient
// exactly when it wraps ErrTransient, and keeps its class across a
// re-encode.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range []pipeline.ScoreResult{
		{Score: 0.375, Attempts: 1},
		{Score: 1, Deterministic: true, Attempts: 2},
		{Score: math.NaN(), Err: errors.New("exploded"), Transient: true, Attempts: 3},
		{Score: math.NaN(), Err: errors.New("bad config"), Attempts: 1},
	} {
		f.Add(encodeResponse(r)[4:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := decodeResponse(payload)
		if err != nil {
			if !errors.Is(err, errProtocol) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		again := encodeResponse(res)[4:]
		if res.Err == nil {
			if !bytes.Equal(again, payload) {
				t.Fatalf("score response re-encodes to %x, want %x", again, payload)
			}
			return
		}
		if !math.IsNaN(res.Score) || res.Deterministic || res.Transient != errors.Is(res.Err, pipeline.ErrTransient) {
			t.Fatalf("inconsistent failure: %+v", res)
		}
		back, err := decodeResponse(again)
		if err != nil || back.Transient != res.Transient || back.Attempts != res.Attempts {
			t.Fatalf("failure class lost on re-encode: %+v -> %+v, %v", res, back, err)
		}
	})
}

// frameHeader returns the 4-byte length prefix claiming n payload bytes.
func frameHeader(n uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, n)
}

// TestReadFrameAllocatesWithBody: a header claiming 60 MiB followed by
// three bytes and EOF fails as a short frame without allocating the
// claimed size.
func TestReadFrameAllocatesWithBody(t *testing.T) {
	input := append(frameHeader(60<<20), 1, 2, 3)
	allocated := allocatedBy(func() {
		if _, err := readFrame(bytes.NewReader(input)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
	if allocated > 1<<20 {
		t.Fatalf("reading a %d-byte input allocated %d bytes", len(input), allocated)
	}
}

// TestReadFrameErrorsAndSizes pins readFrame's result for frames around the
// buffer's growth steps, delivered one byte per Read, whole and cut short.
func TestReadFrameErrorsAndSizes(t *testing.T) {
	for _, n := range []int{0, 1, firstReadSize - 1, firstReadSize, firstReadSize + 1, 3*firstReadSize + 5} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		frame := append(frameHeader(uint32(n)), body...)
		got, err := readFrame(iotest.OneByteReader(bytes.NewReader(frame)))
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("n=%d: got %d bytes, %v; want the body back", n, len(got), err)
		}
		for _, cut := range []int{0, 2, 4, 5, len(frame) - 1} {
			if cut >= len(frame) || (n == 0 && cut == 4) {
				continue
			}
			want := io.ErrUnexpectedEOF
			if cut == 0 || cut == 4 {
				want = io.EOF // nothing of the header, or of the body, arrived
			}
			if _, err := readFrame(bytes.NewReader(frame[:cut])); !errors.Is(err, want) {
				t.Fatalf("n=%d cut at %d: err = %v, want %v", n, cut, err, want)
			}
		}
	}
	if _, err := readFrame(bytes.NewReader(frameHeader(maxFrameSize + 1))); !errors.Is(err, errProtocol) {
		t.Fatalf("oversize header: err = %v, want a protocol error", err)
	}
}

// FuzzReadFrame feeds raw socket bytes to readFrame: it never panics, a nil
// error returns exactly the payload the header claims, and any other
// result is a short read or a protocol error.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(frameHeader(0))
	f.Add(append(frameHeader(3), 'a', 'b', 'c'))
	f.Add(append(frameHeader(60<<20), 1, 2, 3))
	f.Add(frameHeader(maxFrameSize + 1))
	for _, p := range fuzzSeedRequests() {
		f.Add(append(frameHeader(uint32(len(p))), p...))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		payload, err := readFrame(bytes.NewReader(input))
		switch {
		case err == nil:
			if claimed := binary.BigEndian.Uint32(input); int(claimed) != len(payload) || !bytes.Equal(payload, input[4:4+claimed]) {
				t.Fatalf("header claims %d bytes, got %d", claimed, len(payload))
			}
		case !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errProtocol):
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}
