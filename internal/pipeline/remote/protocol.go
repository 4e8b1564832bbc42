// Package remote distributes oracle evaluations over a fleet of TCP
// workers. A Worker wraps any pipeline.FallibleSystem behind a listener; a
// FleetSystem is the client half: it implements pipeline.FallibleSystem by
// fanning evaluations across N workers with per-worker retry/breaker
// stacks, health tracking, hedged dispatch of stragglers, and graceful
// degradation to a local fallback.
//
// # Wire protocol
//
// The transport is length-prefixed binary frames over TCP, one
// request/response exchange at a time per connection (no multiplexing —
// the fleet opens one connection per worker and serializes on it). Every
// integer is big-endian:
//
//	frame    := length(uint32) payload
//	request  := version(1) msgScore(1) fingerprint(uint64) rows(uint32) ncols(uint16) column*
//	column   := kind(1) nameLen(uint16) name nulls body
//	nulls    := ceil(rows/8) bytes; bit r%8 of byte r/8 set iff row r is NULL
//	body     := numeric:     bits(uint64)*rows                        — math.Float64bits
//	          | categorical: ndict(uint32) len(uint32)*ndict dictBlob code*rows
//	          | text:        len(uint32)*rows blob
//	response := version(1) status(1) scoreBits(uint64) attempts(uint32) errmsg...
//
// The dataset travels as a columnar frame: numeric cells as their raw bit
// patterns (NaN payloads, -0 and ±Inf included), categorical cells as
// codes into a per-column dictionary whose code width is 1, 2 or 4 bytes
// as the dictionary needs, and text cells as a lengths array over one
// string blob. Every cell travels verbatim and every column carries its
// exact kind, so the worker rebuilds the dataset the client fingerprinted:
// no NULL spelling, line ending or numeric-looking label changes in
// transit.
//
// The encoding is canonical: NULL cells carry zero bits, code 0 or length
// 0; dictionary entries are distinct, all used, and in first-appearance
// order; bitmap padding is zero; no byte trails the last column.
// decodeRequest rejects anything else, so an accepted request is the one
// encoding of its dataset, up to the fingerprint field, which the worker
// does not recompute. The fingerprint lets worker logs and network-level
// fault injection key on dataset identity without decoding or hashing.
//
// Status codes classify the outcome exactly like pipeline.ScoreResult:
// statusScore and statusDeterministic carry trustworthy scores;
// statusTransient and statusPermanent carry an error message and no score.
// A request the worker reads whole but cannot decode is answered
// statusPermanent. Transport-level failures (dial errors, resets, deadline
// expiry) never reach the wire — the client classifies them as transient
// locally. A dataset too large for one frame never leaves the client: it
// fails permanently with ErrRequestTooLarge before any connection is used.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

const (
	protocolVersion = 2
	msgScore        = 1

	// maxFrameSize bounds a frame payload so a corrupt or hostile length
	// prefix cannot force an arbitrary allocation.
	maxFrameSize = 64 << 20

	statusScore         = 0
	statusDeterministic = 1
	statusTransient     = 2
	statusPermanent     = 3

	// requestHeaderSize is the fixed request prefix: version, message,
	// fingerprint, rows, ncols.
	requestHeaderSize = 1 + 1 + 8 + 4 + 2
	// responseHeaderSize is the fixed response prefix: version, status,
	// score bits, attempts.
	responseHeaderSize = 1 + 1 + 8 + 4
)

// errProtocol marks a malformed frame. A frame that cannot be read whole
// drops the connection; a whole request that does not decode is answered
// with a permanent failure.
var errProtocol = errors.New("remote: protocol error")

// ErrRequestTooLarge reports a dataset the wire cannot carry: more than
// maxFrameSize bytes encoded, more rows than a uint32 or columns than a
// uint16 counts, or a column name longer than 65535 bytes. It is a
// permanent failure — resending the same dataset cannot help — and is
// returned before any connection is dialed or written.
var ErrRequestTooLarge = errors.New("remote: request too large for the wire")

// firstReadSize is how much of a payload readFrame makes room for before
// any of it arrives.
const firstReadSize = 64 << 10

// readFrame receives one length-prefixed payload. The buffer starts at
// firstReadSize and at most doubles as the body arrives, so a length prefix
// costs memory only in proportion to the bytes that follow it. A body cut
// short fails as io.ReadFull fails: io.EOF when none of it arrived, else
// io.ErrUnexpectedEOF.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > maxFrameSize {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", errProtocol, size)
	}
	n := int(size)
	payload := make([]byte, min(n, firstReadSize))
	got := 0
	for {
		m, err := io.ReadFull(r, payload[got:])
		got += m
		if errors.Is(err, io.EOF) && got > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if got == n {
			return payload, nil
		}
		grown := make([]byte, got+min(n-got, got))
		copy(grown, payload)
		payload = grown
	}
}

// colPlan is one column's encoding plan from the sizing pass.
type colPlan struct {
	col  *dataset.Column
	size int      // encoded bytes, column header included
	dict []string // categorical only: the wire dictionary, first-appearance order
	// wire maps a categorical column's dictionary codes to wire codes plus
	// one; 0 marks an entry no non-NULL cell uses.
	wire []uint32
}

// codeWidth is the byte width of a categorical code for a dictionary of
// ndict entries.
func codeWidth(ndict int) int {
	switch {
	case ndict <= 1<<8:
		return 1
	case ndict <= 1<<16:
		return 2
	}
	return 4
}

// planColumn sizes one column's encoding, building the wire dictionary of
// a categorical column: the column dictionary's entries in use, renumbered
// in the order their codes first appear.
func planColumn(c *dataset.Column, rows int) colPlan {
	p := colPlan{col: c, size: 1 + 2 + len(c.Name) + (rows+7)/8}
	switch c.Kind {
	case dataset.Numeric:
		p.size += 8 * rows
	case dataset.Categorical:
		dict := c.Dict()
		p.wire = make([]uint32, len(dict))
		dictBytes := 0
		for k := 0; k < c.NumChunks(); k++ {
			v := c.Chunk(k)
			for i, code := range v.Codes {
				if p.wire[code] != 0 || v.Null[i] {
					continue
				}
				p.dict = append(p.dict, dict[code])
				p.wire[code] = uint32(len(p.dict))
				dictBytes += len(dict[code])
			}
		}
		n := len(p.dict)
		p.size += 4 + 4*n + dictBytes + codeWidth(n)*rows
	default:
		p.size += 4 * rows
		for k := 0; k < c.NumChunks(); k++ {
			v := c.Chunk(k)
			for i, s := range v.Strs {
				if !v.Null[i] {
					p.size += len(s)
				}
			}
		}
	}
	return p
}

// encodeRequest builds a complete score-request frame, length prefix
// included, so the transport sends it with one Write and no copy. It sizes
// every column first and returns ErrRequestTooLarge before allocating
// anything frame-sized. The frame is a pure function of the dataset's
// content, so the fleet encodes it once per evaluation and every retried or
// hedged dispatch reuses the bytes.
func encodeRequest(d *dataset.Dataset) ([]byte, error) {
	return encodeRequestWithin(d, maxFrameSize)
}

// encodeRequestWithin is encodeRequest with the payload capped at limit
// bytes instead of maxFrameSize; codec benchmarks lift the cap to measure
// datasets larger than one frame.
func encodeRequestWithin(d *dataset.Dataset, limit int) ([]byte, error) {
	rows, cols := d.NumRows(), d.Columns()
	if uint64(rows) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: %d rows exceed the uint32 row count", ErrRequestTooLarge, rows)
	}
	if len(cols) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d columns exceed the uint16 column count", ErrRequestTooLarge, len(cols))
	}
	plans := make([]colPlan, len(cols))
	size := requestHeaderSize
	for i, c := range cols {
		if len(c.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: column name of %d bytes exceeds the uint16 name length", ErrRequestTooLarge, len(c.Name))
		}
		plans[i] = planColumn(c, rows)
		if size += plans[i].size; size > limit {
			return nil, fmt.Errorf("%w: dataset encodes to more than %d bytes", ErrRequestTooLarge, limit)
		}
	}

	buf := make([]byte, 4+size)
	binary.BigEndian.PutUint32(buf, uint32(size))
	buf[4], buf[5] = protocolVersion, msgScore
	binary.BigEndian.PutUint64(buf[6:], d.Fingerprint())
	binary.BigEndian.PutUint32(buf[14:], uint32(rows))
	binary.BigEndian.PutUint16(buf[18:], uint16(len(cols)))
	off := 4 + requestHeaderSize
	for _, p := range plans {
		off = p.write(buf, off, rows)
	}
	return buf, nil
}

// write encodes the planned column at buf[off:] and returns the offset past
// it. buf is zeroed, so NULL cells and clear bitmap bits need no store.
func (p *colPlan) write(buf []byte, off, rows int) int {
	c := p.col
	buf[off] = byte(c.Kind)
	binary.BigEndian.PutUint16(buf[off+1:], uint16(len(c.Name)))
	off += 3 + copy(buf[off+3:], c.Name)
	nulls := buf[off : off+(rows+7)/8]
	off += len(nulls)
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		for i, null := range v.Null {
			if null {
				r := v.Start + i
				nulls[r>>3] |= 1 << (r & 7)
			}
		}
	}

	switch c.Kind {
	case dataset.Numeric:
		for k := 0; k < c.NumChunks(); k++ {
			v := c.Chunk(k)
			cells := buf[off+8*v.Start:]
			for i, x := range v.Nums {
				if !v.Null[i] {
					binary.BigEndian.PutUint64(cells[8*i:], math.Float64bits(x))
				}
			}
		}
		return off + 8*rows
	case dataset.Categorical:
		dict := p.dict
		binary.BigEndian.PutUint32(buf[off:], uint32(len(dict)))
		off += 4
		for _, s := range dict {
			binary.BigEndian.PutUint32(buf[off:], uint32(len(s)))
			off += 4
		}
		for _, s := range dict {
			off += copy(buf[off:], s)
		}
		width := codeWidth(len(dict))
		codes := buf[off : off+width*rows]
		for k := 0; k < c.NumChunks(); k++ {
			v := c.Chunk(k)
			for i, c := range v.Codes {
				if v.Null[i] {
					continue
				}
				code, r := p.wire[c]-1, v.Start+i
				switch width {
				case 1:
					codes[r] = byte(code)
				case 2:
					binary.BigEndian.PutUint16(codes[2*r:], uint16(code))
				default:
					binary.BigEndian.PutUint32(codes[4*r:], code)
				}
			}
		}
		return off + len(codes)
	default:
		lens := buf[off : off+4*rows]
		off += len(lens)
		for k := 0; k < c.NumChunks(); k++ {
			v := c.Chunk(k)
			for i, s := range v.Strs {
				if !v.Null[i] {
					binary.BigEndian.PutUint32(lens[4*(v.Start+i):], uint32(len(s)))
					off += copy(buf[off:], s)
				}
			}
		}
		return off
	}
}

// frameReader consumes a payload front to back. take fails, without
// allocating, when fewer than n bytes remain — so every rows-sized slice
// the decoder allocates is backed by at least rows/8 bytes of payload.
type frameReader struct{ buf []byte }

func (r *frameReader) take(n uint64) ([]byte, error) {
	if n > uint64(len(r.buf)) {
		return nil, fmt.Errorf("%w: truncated request: need %d bytes, have %d", errProtocol, n, len(r.buf))
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b, nil
}

// decodeRequest rebuilds the dataset a score request carries and returns
// it with the fingerprint from the header. The columns decode straight into
// the slices the dataset adopts: numeric cells from their bits, categorical
// cells as the frame's dictionary and codes, and text strings as
// substrings of one blob, so no cell allocates. Every malformed or
// non-canonical payload is an error wrapping errProtocol. The header
// fingerprint is not recomputed — hashing every cell would cost more than
// the decode — so an accepted payload equals encodeRequest of the dataset
// in every byte but, possibly, the fingerprint's.
func decodeRequest(payload []byte) (uint64, *dataset.Dataset, error) {
	if len(payload) < requestHeaderSize || payload[0] != protocolVersion || payload[1] != msgScore {
		return 0, nil, fmt.Errorf("%w: bad score request header", errProtocol)
	}
	fp := binary.BigEndian.Uint64(payload[2:])
	rows := uint64(binary.BigEndian.Uint32(payload[10:]))
	ncols := int(binary.BigEndian.Uint16(payload[14:]))
	if ncols == 0 && rows != 0 {
		return 0, nil, fmt.Errorf("%w: %d rows without columns", errProtocol, rows)
	}
	r := &frameReader{buf: payload[requestHeaderSize:]}
	d := dataset.New()
	for j := 0; j < ncols; j++ {
		if err := decodeColumn(r, d, rows); err != nil {
			return 0, nil, err
		}
	}
	if len(r.buf) != 0 {
		return 0, nil, fmt.Errorf("%w: %d bytes trail the last column", errProtocol, len(r.buf))
	}
	return fp, d, nil
}

// decodeColumn reads one column and adds it to d.
func decodeColumn(r *frameReader, d *dataset.Dataset, rows uint64) error {
	hdr, err := r.take(3)
	if err != nil {
		return err
	}
	kind := dataset.Kind(hdr[0])
	name, err := r.take(uint64(binary.BigEndian.Uint16(hdr[1:])))
	if err != nil {
		return err
	}
	bitmap, err := r.take((rows + 7) / 8)
	if err != nil {
		return err
	}
	if rows%8 != 0 && bitmap[len(bitmap)-1]>>(rows%8) != 0 {
		return fmt.Errorf("%w: column %q: NULL bitmap padding set", errProtocol, name)
	}
	null := make([]bool, rows)
	for i := range null {
		null[i] = bitmap[i>>3]>>(i&7)&1 != 0
	}

	switch kind {
	case dataset.Numeric:
		cells, err := r.take(8 * rows)
		if err != nil {
			return err
		}
		nums := make([]float64, rows)
		for i := range nums {
			bits := binary.BigEndian.Uint64(cells[8*i:])
			if null[i] && bits != 0 {
				return fmt.Errorf("%w: column %q row %d: NULL cell carries a value", errProtocol, name, i)
			}
			nums[i] = math.Float64frombits(bits)
		}
		return wrapProtocol(d.AddNumericColumn(string(name), nums, null))
	case dataset.Categorical:
		dict, codes, err := decodeDictionary(r, null, name)
		if err != nil {
			return err
		}
		return wrapProtocol(d.AddCategoricalCodes(string(name), dict, codes, null))
	case dataset.Text:
		strs, err := decodeText(r, null, name)
		if err != nil {
			return err
		}
		return wrapProtocol(d.AddTextColumn(string(name), strs, null))
	}
	return fmt.Errorf("%w: column %q: unknown kind %d", errProtocol, name, kind)
}

// decodeDictionary reads a dictionary-coded categorical body and returns
// the dictionary and the cells' codes. Duplicate entries are left for
// Dataset.AddCategoricalCodes to reject. An all-NULL column's empty
// dictionary gains one "" entry for its NULL cells' code 0 to index.
func decodeDictionary(r *frameReader, null []bool, name []byte) ([]string, []uint32, error) {
	hdr, err := r.take(4)
	if err != nil {
		return nil, nil, err
	}
	ndict := binary.BigEndian.Uint32(hdr)
	lens, err := r.take(4 * uint64(ndict))
	if err != nil {
		return nil, nil, err
	}
	total := uint64(0)
	for i := 0; i < len(lens); i += 4 {
		total += uint64(binary.BigEndian.Uint32(lens[i:]))
	}
	blob, err := r.take(total)
	if err != nil {
		return nil, nil, err
	}
	all := string(blob)
	dict := make([]string, ndict)
	for i := range dict {
		n := int(binary.BigEndian.Uint32(lens[4*i:]))
		dict[i], all = all[:n], all[n:]
	}

	width := codeWidth(int(ndict))
	wire, err := r.take(uint64(width) * uint64(len(null)))
	if err != nil {
		return nil, nil, err
	}
	codes := make([]uint32, len(null))
	next := uint32(0) // codes must first appear in dictionary order
	for i := range codes {
		var code uint32
		switch width {
		case 1:
			code = uint32(wire[i])
		case 2:
			code = uint32(binary.BigEndian.Uint16(wire[2*i:]))
		default:
			code = binary.BigEndian.Uint32(wire[4*i:])
		}
		switch {
		case null[i]:
			if code != 0 {
				return nil, nil, fmt.Errorf("%w: column %q row %d: NULL cell carries a code", errProtocol, name, i)
			}
			continue
		case code > next || code >= ndict:
			return nil, nil, fmt.Errorf("%w: column %q row %d: code %d out of dictionary order", errProtocol, name, i, code)
		case code == next:
			next++
		}
		codes[i] = code
	}
	if next != ndict {
		return nil, nil, fmt.Errorf("%w: column %q: %d of %d dictionary entries unused", errProtocol, name, ndict-next, ndict)
	}
	if ndict == 0 && len(null) > 0 {
		dict = []string{""}
	}
	return dict, codes, nil
}

// decodeText reads a text body: a lengths array, then one blob whose
// substrings become the cells.
func decodeText(r *frameReader, null []bool, name []byte) ([]string, error) {
	lens, err := r.take(4 * uint64(len(null)))
	if err != nil {
		return nil, err
	}
	total := uint64(0)
	for i := range null {
		n := binary.BigEndian.Uint32(lens[4*i:])
		if null[i] && n != 0 {
			return nil, fmt.Errorf("%w: column %q row %d: NULL cell carries text", errProtocol, name, i)
		}
		total += uint64(n)
	}
	blob, err := r.take(total)
	if err != nil {
		return nil, err
	}
	all := string(blob)
	strs := make([]string, len(null))
	for i := range strs {
		n := int(binary.BigEndian.Uint32(lens[4*i:]))
		strs[i], all = all[:n], all[n:]
	}
	return strs, nil
}

// wrapProtocol classifies a dataset assembly error (empty or duplicate
// column name) as a protocol error.
func wrapProtocol(err error) error {
	if err != nil {
		return fmt.Errorf("%w: %w", errProtocol, err)
	}
	return nil
}

// parseRequestFingerprint extracts the fingerprint from a fully framed
// request as encodeRequest builds it, without consuming it. It exists for
// network-level fault injection, which keys faults on dataset identity.
func parseRequestFingerprint(frame []byte) (uint64, bool) {
	if len(frame) < 4+requestHeaderSize {
		return 0, false
	}
	if int(binary.BigEndian.Uint32(frame)) != len(frame)-4 {
		return 0, false
	}
	if frame[4] != protocolVersion || frame[5] != msgScore {
		return 0, false
	}
	return binary.BigEndian.Uint64(frame[6:]), true
}

// encodeResponse flattens a ScoreResult into a complete response frame,
// length prefix included.
func encodeResponse(res pipeline.ScoreResult) []byte {
	status := byte(statusScore)
	msg := ""
	switch {
	case res.Err != nil && res.Transient:
		status = statusTransient
		msg = res.Err.Error()
	case res.Err != nil:
		status = statusPermanent
		msg = res.Err.Error()
	case res.Deterministic:
		status = statusDeterministic
	}
	buf := make([]byte, 4+responseHeaderSize+len(msg))
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	buf[4] = protocolVersion
	buf[5] = status
	binary.BigEndian.PutUint64(buf[6:], math.Float64bits(res.Score))
	binary.BigEndian.PutUint32(buf[14:], uint32(res.Attempts))
	copy(buf[4+responseHeaderSize:], msg)
	return buf
}

// decodeResponse rebuilds the ScoreResult a worker sent. Remote failures
// come back classified: transient ones wrap pipeline.ErrTransient so retry
// stacks treat them exactly like local transient failures.
func decodeResponse(payload []byte) (pipeline.ScoreResult, error) {
	if len(payload) < responseHeaderSize || payload[0] != protocolVersion {
		return pipeline.ScoreResult{}, fmt.Errorf("%w: bad score response header", errProtocol)
	}
	score := math.Float64frombits(binary.BigEndian.Uint64(payload[2:]))
	attempts := int(binary.BigEndian.Uint32(payload[10:]))
	msg := string(payload[responseHeaderSize:])
	if msg != "" && (payload[1] == statusScore || payload[1] == statusDeterministic) {
		return pipeline.ScoreResult{}, fmt.Errorf("%w: score response carries an error message", errProtocol)
	}
	switch payload[1] {
	case statusScore:
		return pipeline.ScoreResult{Score: score, Attempts: attempts}, nil
	case statusDeterministic:
		return pipeline.ScoreResult{Score: score, Deterministic: true, Attempts: attempts}, nil
	case statusTransient:
		return pipeline.ScoreResult{
			Score:     math.NaN(),
			Err:       fmt.Errorf("remote worker: %s: %w", msg, pipeline.ErrTransient),
			Transient: true,
			Attempts:  attempts,
		}, nil
	case statusPermanent:
		return pipeline.ScoreResult{
			Score:    math.NaN(),
			Err:      fmt.Errorf("remote worker: %s", msg),
			Attempts: attempts,
		}, nil
	}
	return pipeline.ScoreResult{}, fmt.Errorf("%w: unknown status %d", errProtocol, payload[1])
}
