package dataset

import "math"

// FingerprintAlgoVersion identifies the fingerprint/digest algorithm
// generation. It MUST be bumped whenever Fingerprint (or any hash it folds
// in — column digests, chunk partials, cell salting) changes in a way that
// alters the produced values, because fingerprints key *persistent* state:
// the on-disk score store (internal/scorestore) trusts that equal
// fingerprints mean equal dataset content under one fixed algorithm. A
// store opened with a different algorithm version discards its cache
// rather than serve scores for datasets that merely collide across
// algorithm generations.
//
// History: 1 = PR 1 whole-dataset hash; 2 = PR 2 per-column incremental
// digests; 3 = PR 6 row-salted mergeable chunk partials (current).
// TestFingerprintGolden pins concrete values so an accidental algorithm
// change fails loudly instead of silently invalidating persisted caches.
const FingerprintAlgoVersion = 3

// Fingerprint returns a 64-bit content digest of the dataset: schema (column
// names and kinds), row count, NULL masks, and every value. Two datasets
// with equal content always produce the same fingerprint, across processes
// and runs — the digest is a deterministic xxhash-style hash, not seeded per
// process — so it can key persistent score memoization. NULL slots hash a
// canonical marker regardless of whatever stale value sits in the masked
// position, keeping semantically equal datasets fingerprint-equal.
//
// The fingerprint combines independent per-column digests (Column.Digest),
// each of which is a merge of cached per-chunk partials invalidated by the
// chunk version counters. After a CoW clone plus a one-chunk transform only
// the dirty chunks are re-hashed: the memo key costs
// O(dirty chunks × chunk size), not O(rows). The incremental result is
// bit-identical to recomputing every partial from scratch, and — because
// each cell's contribution is salted with its global row index and the
// partials combine by wrapping addition — the digest is chunk-layout-
// agnostic: a single-chunk column and any multi-chunk layout of the same
// content produce the same value.
//
// Collisions are possible in principle (64-bit digest) but astronomically
// unlikely for the dataset counts a search evaluates; a collision would
// surface as a stale memoized score, never as data corruption.
func (d *Dataset) Fingerprint() uint64 {
	var h fpHash
	h.init()
	h.word(uint64(len(d.cols)))
	h.word(uint64(d.rows))
	for _, c := range d.cols {
		h.word(c.Digest())
	}
	return h.sum()
}

// fingerprintScratch recomputes the fingerprint ignoring every cached chunk
// partial and column digest — the reference the property tests compare the
// incremental path against.
func (d *Dataset) fingerprintScratch() uint64 {
	var h fpHash
	h.init()
	h.word(uint64(len(d.cols)))
	h.word(uint64(d.rows))
	for _, c := range d.cols {
		var total uint64
		for _, ch := range c.chunks {
			total += ch.computePartial(c.Kind, c.Dict())
		}
		h.word(c.finalizeDigest(total))
	}
	return h.sum()
}

// Digest returns the column's 64-bit content digest (name, kind, row count,
// NULL mask, values), cached per column version. Recomputation sums the
// per-chunk partials, which are themselves cached per chunk version, so
// only chunks mutated since the last observation rescan. Writers must
// follow the cow.go contract: all raw writes to a mutable chunk happen
// before the column is next observed.
func (c *Column) Digest() uint64 {
	v := c.version.Load()
	// digestAt stores version+1 so the zero value means "no cached digest".
	// Store order is digest then digestAt; load order is digestAt then
	// digest. Both atomics are sequentially consistent, so a reader that
	// sees digestAt == v+1 also sees the digest stored for that version.
	if at := c.digestAt.Load(); at == v+1 {
		return c.digest.Load()
	}
	var total uint64
	for _, ch := range c.chunks {
		total += ch.digestPartial(c.Kind, c.Dict())
	}
	dg := c.finalizeDigest(total)
	c.digest.Store(dg)
	c.digestAt.Store(v + 1)
	return dg
}

// finalizeDigest folds the schema header and the summed cell partials into
// the column digest.
func (c *Column) finalizeDigest(total uint64) uint64 {
	var h fpHash
	h.init()
	h.str(c.Name)
	h.word(uint64(c.Kind))
	h.word(uint64(c.rows))
	h.word(total)
	return h.sum()
}

// digestPartial returns the chunk's cell-content partial, cached per chunk
// version. The same store/load ordering convention as Column.Digest applies.
// dict is the column dictionary of a Categorical chunk: every dictionary
// sharing the chunk decodes its codes to the same strings, so the cached
// partial holds for all of them.
func (ch *chunk) digestPartial(kind Kind, dict []string) uint64 {
	v := ch.version.Load()
	if at := ch.digestAt.Load(); at == v+1 {
		return ch.digest.Load()
	}
	p := ch.computePartial(kind, dict)
	ch.digest.Store(p)
	ch.digestAt.Store(v + 1)
	return p
}

// computePartial hashes the chunk's cells from scratch. Each cell hashes
// independently, salted with its global row index, and the per-cell hashes
// combine by wrapping addition — a commutative merge, so partials summed in
// any grouping (any chunk layout) give the same column total, and one dirty
// chunk re-hashes without touching its neighbours. A Categorical cell
// hashes its dictionary string, exactly as the string cell it stands for.
func (ch *chunk) computePartial(kind Kind, dict []string) uint64 {
	var total uint64
	switch kind {
	case Numeric:
		for i, v := range ch.nums {
			if ch.null[i] {
				total += hashNullCell(ch.start + i)
				continue
			}
			total += hashNumCell(ch.start+i, v)
		}
	case Categorical:
		for i, code := range ch.codes {
			if ch.null[i] {
				total += hashNullCell(ch.start + i)
				continue
			}
			total += hashStrCell(ch.start+i, dict[code])
		}
	default:
		for i, v := range ch.strs {
			if ch.null[i] {
				total += hashNullCell(ch.start + i)
				continue
			}
			total += hashStrCell(ch.start+i, v)
		}
	}
	return total
}

// hashNumCell hashes one numeric cell with its global row index.
func hashNumCell(row int, v float64) uint64 {
	var h fpHash
	h.init()
	h.word(uint64(row))
	h.word(math.Float64bits(v))
	return h.sum()
}

// hashStrCell hashes one string cell with its global row index.
func hashStrCell(row int, v string) uint64 {
	var h fpHash
	h.init()
	h.word(uint64(row))
	h.str(v)
	return h.sum()
}

// hashNullCell hashes one NULL slot with its global row index.
func hashNullCell(row int) uint64 {
	var h fpHash
	h.init()
	h.word(uint64(row))
	h.word(fpNullMarker)
	return h.sum()
}

// xxhash64 primes (Collet's constants); the mixing below is the single-lane
// variant of the xxh64 round function with the standard final avalanche.
const (
	fpPrime1 uint64 = 11400714785074694791
	fpPrime2 uint64 = 14029467366897019727
	fpPrime3 uint64 = 1609587929392839161
	fpPrime4 uint64 = 9650029242287828579
	fpPrime5 uint64 = 2870177450012600261

	// fpNullMarker stands in for a masked value slot. Arbitrary but fixed.
	fpNullMarker uint64 = 0x9e3779b97f4a7c15
)

type fpHash struct {
	h uint64
}

func (s *fpHash) init() { s.h = fpPrime5 }

func fpRotl(v uint64, r uint) uint64 { return v<<r | v>>(64-r) }

func fpRound(v uint64) uint64 {
	v *= fpPrime2
	v = fpRotl(v, 31)
	v *= fpPrime1
	return v
}

// word folds one 64-bit value into the running state.
func (s *fpHash) word(v uint64) {
	s.h ^= fpRound(v)
	s.h = fpRotl(s.h, 27)*fpPrime1 + fpPrime4
}

// str folds a length-prefixed string in (so "ab","c" ≠ "a","bc"): the
// bytes in little-endian 8-byte words, the last one zero-padded.
func (s *fpHash) str(v string) {
	s.word(uint64(len(v)))
	for ; len(v) >= 8; v = v[8:] {
		s.word(uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24 |
			uint64(v[4])<<32 | uint64(v[5])<<40 | uint64(v[6])<<48 | uint64(v[7])<<56)
	}
	if len(v) > 0 {
		var chunk uint64
		for i := 0; i < len(v); i++ {
			chunk |= uint64(v[i]) << (8 * i)
		}
		s.word(chunk)
	}
}

// sum applies the xxh64 final avalanche and returns the digest.
func (s *fpHash) sum() uint64 {
	h := s.h
	h ^= h >> 33
	h *= fpPrime2
	h ^= h >> 29
	h *= fpPrime3
	h ^= h >> 32
	return h
}
