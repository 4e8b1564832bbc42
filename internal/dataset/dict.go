// Dictionary encoding of Categorical columns.
//
// A Categorical column stores each cell as a uint32 code into a per-column
// dictionary of distinct strings; Text columns keep their strings. Codes
// make the hot paths — predicate masks, domain counts, contingency tables,
// row selection and the fleet frame — compare and copy fixed-width,
// pointer-free integers instead of string headers.
//
// The dictionary follows the same copy-on-write discipline as chunks:
//
//   - It is append-only: an entry, once assigned a code, never changes, so
//     a chunk's codes stay valid in every later version of the dictionary.
//   - Clone, SelectRows, Rechunk and SampleView share it between columns,
//     marking it shared. A column whose dictionary is shared copies it
//     before its first write (O(distinct)), the way a chunk is copied
//     before its first write; the copy keeps every code, so chunks shared
//     between the two columns decode identically through either.
//   - The string→code index is built lazily, and only by writers (internStr),
//     which own the dictionary exclusively; readers never touch it.
//
// Entries are distinct. A dictionary may hold entries no non-NULL cell
// uses (values overwritten since, or held only by NULL slots); statistics
// and the fleet frame count and order only the entries in use.
package dataset

import (
	"fmt"
	"sync/atomic"
)

// dictionary is a Categorical column's code table: entry i is the string
// code i stands for.
type dictionary struct {
	vals   []string
	index  map[string]uint32 // built on the first intern; nil until then
	shared atomic.Bool
}

// encodeStrings dictionary-encodes strs in first-appearance order. A
// direct-mapped cache keyed on each string's length and end bytes resolves
// the common case — a column of a few short levels — with one comparison
// per cell; intern resolves the misses.
func encodeStrings(strs []string) (*dictionary, []uint32) {
	dc := &dictionary{}
	codes := make([]uint32, len(strs))
	var cache [64]uint32 // slot -> code + 1; 0 = empty
	for i, s := range strs {
		slot := 0
		if n := len(s); n > 0 {
			slot = (7*n + 3*int(s[0]) + int(s[n-1])) & (len(cache) - 1)
		}
		if c := cache[slot]; c != 0 && dc.vals[c-1] == s {
			codes[i] = c - 1
			continue
		}
		codes[i] = dc.intern(s)
		cache[slot] = codes[i] + 1
	}
	return dc, codes
}

// intern returns the code of s, appending s if it is absent. The caller
// must own the dictionary exclusively.
func (dc *dictionary) intern(s string) uint32 {
	if dc.index == nil {
		dc.index = make(map[string]uint32, len(dc.vals)+1)
		for i, v := range dc.vals {
			dc.index[v] = uint32(i)
		}
	}
	if code, ok := dc.index[s]; ok {
		return code
	}
	code := uint32(len(dc.vals))
	dc.vals = append(dc.vals, s)
	dc.index[s] = code
	return code
}

// lookup returns the code of s by a scan of the entries, without the
// write-side index, so concurrent readers may call it on a shared
// dictionary.
func lookup(dict []string, s string) (uint32, bool) {
	for i, v := range dict {
		if v == s {
			return uint32(i), true
		}
	}
	return 0, false
}

// Dict returns the dictionary of a Categorical column — entry i is the
// string code i stands for — or nil for other kinds. The slice is shared
// with every column referencing the dictionary and must not be mutated;
// it may hold entries no non-NULL cell uses.
func (c *Column) Dict() []string {
	if c.dict == nil {
		return nil
	}
	return c.dict.vals
}

// internStr returns the code of s in the Categorical column's dictionary,
// appending s if it is absent. A dictionary shared with another column is
// copied first, so the append is never visible elsewhere. Like
// MutableChunk, the column header must be exclusively owned — obtained
// from Dataset.MutableColumn — or the call panics. Chunk views taken before
// the call keep their shorter dictionary snapshot; take them again, or use
// ChunkView.SetStr, which refreshes its own.
func (c *Column) internStr(s string) uint32 {
	if c.Kind != Categorical {
		panic(fmt.Sprintf("dataset: interning into %s column %q", c.Kind, c.Name))
	}
	if c.shared.Load() {
		panic("dataset: interning into a column shared between datasets; obtain the column via Dataset.MutableColumn first")
	}
	if c.dict.shared.Load() {
		c.dict = &dictionary{vals: append([]string(nil), c.dict.vals...)}
	}
	return c.dict.intern(s)
}

// shareDict marks the column's dictionary shared and returns it, for a new
// column about to reference it.
func (c *Column) shareDict() *dictionary {
	if c.dict != nil {
		c.dict.shared.Store(true)
	}
	return c.dict
}

// CodeAt returns the dictionary code of the Categorical cell at the global
// row index, ignoring the NULL mask.
func (c *Column) CodeAt(row int) uint32 {
	ci, off := c.chunkOf(row)
	return c.chunks[ci].codes[off]
}

// CountStrs returns the number of non-NULL cells of a string column whose
// value satisfies match. A Categorical column calls match once per
// dictionary entry, not once per cell, so match must depend on its
// argument alone.
func (c *Column) CountStrs(match func(string) bool) int {
	n := 0
	if c.Kind == Categorical {
		hit := make([]bool, len(c.dict.vals))
		for code, s := range c.dict.vals {
			hit[code] = match(s)
		}
		for _, ch := range c.chunks {
			for i, code := range ch.codes {
				if hit[code] && !ch.null[i] {
					n++
				}
			}
		}
		return n
	}
	for _, ch := range c.chunks {
		for i, s := range ch.strs {
			if !ch.null[i] && match(s) {
				n++
			}
		}
	}
	return n
}

// ReplaceStrs rewrites every non-NULL cell s of a string column for which
// repl returns (r, true) to r, copying and dirtying only the chunks that
// change. A Categorical column calls repl once per dictionary entry, not
// once per cell, so repl must depend on its argument alone. Like
// MutableChunk, the column header must be exclusively owned.
func (c *Column) ReplaceStrs(repl func(string) (string, bool)) {
	if c.Kind != Categorical {
		for k, ch := range c.chunks {
			var w ChunkView
			for i, s := range ch.strs {
				if ch.null[i] {
					continue
				}
				if r, ok := repl(s); ok && r != s {
					if w.Null == nil {
						w = c.MutableChunk(k)
					}
					w.Strs[i] = r
				}
			}
		}
		return
	}
	// to[code] is the code cells holding code change to, plus one; 0 keeps
	// them.
	dict := c.dict.vals
	to := make([]uint32, len(dict))
	for code, s := range dict {
		if r, ok := repl(s); ok && r != s {
			to[code] = c.internStr(r) + 1
		}
	}
	for k, ch := range c.chunks {
		var w ChunkView
		for i, code := range ch.codes {
			if to[code] == 0 || ch.null[i] {
				continue
			}
			if w.Null == nil {
				w = c.MutableChunk(k)
			}
			w.Codes[i] = to[code] - 1
		}
	}
}
