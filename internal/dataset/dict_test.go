package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// dictModel is the string-level shadow of a dataset with two Categorical
// columns ("a", "b") and one Text column ("t"): the cells a dictionary-coded
// dataset must decode to, with NULL cells' values left unspecified.
type dictModel struct {
	vals [3][]string
	null [3][]bool
}

var dictModelCols = [3]string{"a", "b", "t"}

func (m *dictModel) rows() int { return len(m.null[0]) }

func (m *dictModel) clone() *dictModel {
	cp := &dictModel{}
	for j := range m.vals {
		cp.vals[j] = append([]string(nil), m.vals[j]...)
		cp.null[j] = append([]bool(nil), m.null[j]...)
	}
	return cp
}

// build constructs a fresh dataset from the model's strings.
func (m *dictModel) build(csize int) *Dataset {
	d := NewChunked(csize)
	for j, name := range dictModelCols {
		vals := append([]string(nil), m.vals[j]...)
		null := append([]bool(nil), m.null[j]...)
		var err error
		if j < 2 {
			err = d.AddCategoricalColumn(name, vals, null)
		} else {
			err = d.AddTextColumn(name, vals, null)
		}
		if err != nil {
			panic(err)
		}
	}
	return d
}

// randomDictModel draws rows cells per column from a small per-column
// domain, with about one NULL in six.
func randomDictModel(rng *rand.Rand, rows int) *dictModel {
	m := &dictModel{}
	for j := range m.vals {
		domain := 1 + rng.Intn(6)
		m.vals[j] = make([]string, rows)
		m.null[j] = make([]bool, rows)
		for r := 0; r < rows; r++ {
			m.vals[j][r] = fmt.Sprintf("%s%d", dictModelCols[j], rng.Intn(domain))
			m.null[j][r] = rng.Intn(6) == 0
		}
	}
	return m
}

// dictState is one dataset of a property run with the model it must match
// and the dictionaries it held when it was made.
type dictState struct {
	what  string
	d     *Dataset
	m     *dictModel
	dicts [2][]string
}

func newDictState(what string, d *Dataset, m *dictModel) *dictState {
	s := &dictState{what: what, d: d, m: m}
	for j := 0; j < 2; j++ {
		s.dicts[j] = append([]string(nil), d.Column(dictModelCols[j]).Dict()...)
	}
	return s
}

// check fails the test unless s.d matches its model: the fingerprint of and
// Equal to a fresh string-built copy, Mask equal to per-row Eval, roll-up
// counts equal to map-built ones, and dictionaries as they were made.
func (s *dictState) check(t *testing.T, rng *rand.Rand) {
	t.Helper()
	d, m := s.d, s.m
	ref := m.build(1 + rng.Intn(9))
	if d.NumRows() != m.rows() {
		t.Fatalf("%s: %d rows, model %d", s.what, d.NumRows(), m.rows())
	}
	if d.Fingerprint() != ref.Fingerprint() || d.Fingerprint() != d.fingerprintScratch() {
		t.Fatalf("%s: fingerprint %x, fresh copy %x, from scratch %x", s.what, d.Fingerprint(), ref.Fingerprint(), d.fingerprintScratch())
	}
	if !d.Equal(ref) || !ref.Equal(d) {
		t.Fatalf("%s: not Equal to a fresh string-built copy", s.what)
	}
	for j := 0; j < 2; j++ {
		if got := d.Column(dictModelCols[j]).Dict(); !sameStrings(got, s.dicts[j]) {
			t.Fatalf("%s: column %s dictionary changed from %q to %q", s.what, dictModelCols[j], s.dicts[j], got)
		}
	}
	for j, name := range dictModelCols {
		counts := map[string]int{}
		for r, v := range m.vals[j] {
			if !m.null[j][r] {
				counts[v]++
			}
		}
		var distinct []string
		for v := range counts {
			distinct = append(distinct, v)
		}
		sort.Strings(distinct)
		roll := d.Rollup(name)
		if !sameStrings(roll.Distinct, distinct) || len(roll.Counts) != len(distinct) {
			t.Fatalf("%s: column %s roll-up domain %q, want %q", s.what, name, roll.Distinct, distinct)
		}
		for i, v := range distinct {
			if roll.Counts[i] != counts[v] {
				t.Fatalf("%s: column %s count[%q] = %d, want %d", s.what, name, v, roll.Counts[i], counts[v])
			}
		}
	}
	preds := []Predicate{
		And(EqStr("a", "a0")),
		And(EqStr("a", "absent")),
		And(Clause{Attr: "b", Op: Ne, StrVal: "b1"}),
		And(Clause{Attr: "b", Op: Ne, StrVal: "absent"}),
		And(EqStr("a", fmt.Sprintf("a%d", rng.Intn(3))), EqStr("b", fmt.Sprintf("b%d", rng.Intn(3)))),
		And(Clause{Attr: "a", Op: IsNull}, EqStr("t", "t0")),
		And(Clause{Attr: "b", Op: NotNull}, EqNum("a", 0)),
		And(CmpNum("b", Ne, 1), Clause{Attr: "t", Op: Ne, StrVal: "t1"}),
	}
	for _, p := range preds {
		mask := p.Mask(d, nil)
		n := 0
		for r := range mask {
			if mask[r] != p.Eval(d, r) {
				t.Fatalf("%s: %s: Mask row %d = %v, Eval disagrees", s.what, p, r, mask[r])
			}
			if mask[r] {
				n++
			}
		}
		if m.rows() > 0 && p.Selectivity(d) != float64(n)/float64(m.rows()) {
			t.Fatalf("%s: %s: Selectivity %v, mask counts %d of %d", s.what, p, p.Selectivity(d), n, m.rows())
		}
	}
}

// TestDictionaryProperty runs random sequences of the operations that move
// dictionary codes — cell writes with new values on a clone, SelectRows,
// Append, Rechunk, PrivatizeChunks plus writes, and a CSV round trip —
// against a string-level model. After every step every dataset made so far
// must still match its model: each has the fingerprint of, and is Equal to,
// a fresh string-built copy; Mask agrees with per-row Eval; roll-up counts
// equal map-built ones; and no write through one dataset's dictionary is
// visible in another's.
func TestDictionaryProperty(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 1))
		m := randomDictModel(rng, 1+rng.Intn(60))
		states := []*dictState{newDictState("built", m.build(1+rng.Intn(9)), m)}
		for step := 0; step < 12; step++ {
			cur := states[len(states)-1]
			var next *dictState
			switch op := rng.Intn(6); op {
			case 0: // writes, new values included, on a clone
				d, nm := cur.d.Clone(), cur.m.clone()
				for w := 0; w < 1+rng.Intn(8) && nm.rows() > 0; w++ {
					j, r := rng.Intn(3), rng.Intn(nm.rows())
					name := dictModelCols[j]
					if rng.Intn(5) == 0 {
						d.SetNull(name, r)
						nm.null[j][r] = true
						continue
					}
					v := fmt.Sprintf("%s%d", name, rng.Intn(4))
					if rng.Intn(2) == 0 {
						v = fmt.Sprintf("new%d", rng.Intn(3))
					}
					d.SetStr(name, r, v)
					nm.vals[j][r], nm.null[j][r] = v, false
				}
				next = newDictState("SetStr", d, nm)
			case 1: // row selection
				idx := rowSelectionIndices(rng, cur.m.rows())
				nm := &dictModel{}
				for j := range nm.vals {
					for _, r := range idx {
						nm.vals[j] = append(nm.vals[j], cur.m.vals[j][r])
						nm.null[j] = append(nm.null[j], cur.m.null[j][r])
					}
				}
				next = newDictState("SelectRows", cur.d.SelectRows(idx), nm)
			case 2: // append rows with their own dictionary order
				om := randomDictModel(rng, rng.Intn(20))
				out, err := cur.d.Append(om.build(1 + rng.Intn(9)))
				if err != nil {
					t.Fatal(err)
				}
				nm := cur.m.clone()
				for j := range nm.vals {
					nm.vals[j] = append(nm.vals[j], om.vals[j]...)
					nm.null[j] = append(nm.null[j], om.null[j]...)
				}
				next = newDictState("Append", out, nm)
			case 3:
				next = newDictState("Rechunk", cur.d.Rechunk(1+rng.Intn(9)), cur.m)
			case 4: // dense privatization, then writes through the chunks
				d, nm := cur.d.Clone(), cur.m.clone()
				c := d.MutableColumn("a")
				c.PrivatizeChunks()
				for k := 0; k < c.NumChunks(); k++ {
					w := c.MutableChunk(k)
					i := rng.Intn(w.Len())
					v := fmt.Sprintf("p%d", rng.Intn(2))
					w.SetStr(i, v)
					w.Null[i] = false
					if w.Str(i) != v {
						t.Fatalf("ChunkView.Str after SetStr = %q, want %q", w.Str(i), v)
					}
					nm.vals[0][w.Start+i], nm.null[0][w.Start+i] = v, false
				}
				next = newDictState("PrivatizeChunks", d, nm)
			case 5: // CSV round trip
				var buf bytes.Buffer
				if err := cur.d.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
				if cur.m.rows() == 0 {
					continue
				}
				d, err := ReadCSV(&buf, InferOptions{TextColumns: []string{"t"}, ChunkSize: 1 + rng.Intn(9)})
				if err != nil {
					t.Fatal(err)
				}
				if d.Column("a").Kind != Categorical || d.Column("b").Kind != Categorical {
					t.Fatalf("CSV round trip read kinds %s, %s", d.Column("a").Kind, d.Column("b").Kind)
				}
				next = newDictState("CSV", d, cur.m)
			}
			states = append(states, next)
			for _, s := range states {
				s.check(t, rng)
			}
		}
	}
}

// TestTextDomainOnDemand: a Text column's domain counts are built only when
// a caller asks for the domain. NULL counts, the full-vector block and the
// capped distinct probe leave them unbuilt, and the probe agrees with the
// domain once it is.
func TestTextDomainOnDemand(t *testing.T) {
	vals := make([]string, 500)
	null := make([]bool, len(vals))
	for i := range vals {
		vals[i] = fmt.Sprintf("p%03d", i%40)
		null[i] = i%9 == 0
	}
	d := NewChunked(64)
	if err := d.AddTextColumn("t", vals, null); err != nil {
		t.Fatal(err)
	}
	c := d.Column("t")
	built := func() bool {
		if c.rollup.Load() != nil {
			return true
		}
		for _, ch := range c.chunks {
			if ch.domain.Load() != nil {
				return true
			}
		}
		return false
	}
	for k := range c.chunks {
		c.WarmChunk(k)
	}
	if d.NullCount("t") != 56 || len(d.StringValues("t")) != 444 {
		t.Fatalf("NullCount %d, %d values", d.NullCount("t"), len(d.StringValues("t")))
	}
	for _, cap := range []int{0, 5, 39, 40, 100} {
		if got, want := d.DistinctCapped("t", cap), min(40, cap+1); got != want {
			t.Errorf("DistinctCapped(%d) = %d, want %d", cap, got, want)
		}
	}
	if built() {
		t.Fatal("Text domain counts built before any caller asked for the domain")
	}
	if n := len(d.DistinctStrings("t")); n != 40 || !built() {
		t.Fatalf("DistinctStrings: %d values, built %v", n, built())
	}
	for _, cap := range []int{0, 5, 39, 40, 100} {
		if got, want := d.DistinctCapped("t", cap), min(40, cap+1); got != want {
			t.Errorf("after the roll-up: DistinctCapped(%d) = %d, want %d", cap, got, want)
		}
	}
}
