package dataset

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Op is a comparison operator inside a predicate clause.
type Op int

const (
	// Eq matches cells equal to the clause value.
	Eq Op = iota
	// Ne matches cells different from the clause value.
	Ne
	// Lt matches numeric cells strictly below the clause value.
	Lt
	// Le matches numeric cells at or below the clause value.
	Le
	// Gt matches numeric cells strictly above the clause value.
	Gt
	// Ge matches numeric cells at or above the clause value.
	Ge
	// IsNull matches NULL cells regardless of value.
	IsNull
	// NotNull matches non-NULL cells regardless of value.
	NotNull
)

// String returns the SQL-ish spelling of the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case IsNull:
		return "IS NULL"
	case NotNull:
		return "IS NOT NULL"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Clause is a single comparison Attr Op Value. For string columns only
// Eq/Ne/IsNull/NotNull are meaningful; numeric columns support all operators.
// A numeric clause (IsNum) compares against numeric columns and a string
// clause against string columns; against a column of the other kind the
// value equals no cell, so Ne matches every non-NULL row and every other
// value operator none.
type Clause struct {
	Attr   string
	Op     Op
	StrVal string
	NumVal float64
	IsNum  bool
}

// EqStr builds an equality clause on a string column.
func EqStr(attr, val string) Clause { return Clause{Attr: attr, Op: Eq, StrVal: val} }

// EqNum builds an equality clause on a numeric column.
func EqNum(attr string, val float64) Clause {
	return Clause{Attr: attr, Op: Eq, NumVal: val, IsNum: true}
}

// CmpNum builds a numeric comparison clause.
func CmpNum(attr string, op Op, val float64) Clause {
	return Clause{Attr: attr, Op: op, NumVal: val, IsNum: true}
}

// Eval reports whether the clause holds for row r of d.
func (c Clause) Eval(d *Dataset, r int) bool {
	col := d.Column(c.Attr)
	if col == nil {
		return false
	}
	switch c.Op {
	case IsNull:
		return col.NullAt(r)
	case NotNull:
		return !col.NullAt(r)
	}
	if col.NullAt(r) {
		return false
	}
	if c.IsNum != (col.Kind == Numeric) {
		// A typed comparison against a column of the other kind; see
		// boundClause.andWindow.
		return c.Op == Ne
	}
	if col.Kind == Numeric {
		v := col.NumAt(r)
		switch c.Op {
		case Eq:
			return v == c.NumVal
		case Ne:
			return v != c.NumVal
		case Lt:
			return v < c.NumVal
		case Le:
			return v <= c.NumVal
		case Gt:
			return v > c.NumVal
		case Ge:
			return v >= c.NumVal
		}
		return false
	}
	v := col.StrAt(r)
	switch c.Op {
	case Eq:
		return v == c.StrVal
	case Ne:
		return v != c.StrVal
	}
	return false
}

// String renders the clause, e.g. `gender = "F"` or `age >= 30`.
func (c Clause) String() string {
	switch c.Op {
	case IsNull, NotNull:
		return fmt.Sprintf("%s %s", c.Attr, c.Op)
	}
	if c.IsNum {
		return fmt.Sprintf("%s %s %s", c.Attr, c.Op, strconv.FormatFloat(c.NumVal, 'g', -1, 64))
	}
	return fmt.Sprintf("%s %s %q", c.Attr, c.Op, c.StrVal)
}

// Predicate is a conjunction of clauses — the selection predicate P used by
// Selectivity profiles (Figure 1 row 6 of the paper).
type Predicate struct {
	Clauses []Clause
}

// And builds a predicate from the given clauses.
func And(clauses ...Clause) Predicate { return Predicate{Clauses: clauses} }

// Eval reports whether all clauses hold for row r.
func (p Predicate) Eval(d *Dataset, r int) bool {
	for _, c := range p.Clauses {
		if !c.Eval(d, r) {
			return false
		}
	}
	return true
}

// Attributes returns the sorted distinct attributes the predicate mentions.
func (p Predicate) Attributes() []string {
	seen := make(map[string]struct{})
	for _, c := range p.Clauses {
		seen[c.Attr] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Mask evaluates the predicate column-at-a-time: the mask starts all true
// and each clause ANDs its column in, iterating chunk-at-a-time with the
// operator dispatch hoisted out of the row loop. A string clause on a
// Categorical column is resolved once against the column's dictionary and
// compares codes. buf is reused when it has sufficient capacity, so
// selectivity profiling over many predicates allocates once. The result is
// row-for-row identical to calling Eval per row, for any chunk layout.
func (p Predicate) Mask(d *Dataset, buf []bool) []bool {
	n := d.NumRows()
	if cap(buf) >= n {
		buf = buf[:n]
	} else {
		buf = make([]bool, n)
	}
	for i := range buf {
		buf[i] = true
	}
	if n == 0 {
		return buf
	}
	bound := p.bind(d)
	for k, ch := range d.cols[0].chunks {
		win := buf[ch.start : ch.start+ch.len()]
		for i := range bound {
			bound[i].andWindow(k, 0, win)
		}
	}
	return buf
}

// scanWindow is the row window scan evaluates the predicate over at a time:
// small enough to live on the stack, large enough to amortize the
// per-clause dispatch.
const scanWindow = 512

// scan evaluates the predicate window by window, without a row-length
// mask, calling visit with each window's first global row and its mask.
func (p Predicate) scan(d *Dataset, visit func(start int, mask []bool)) {
	if d.NumRows() == 0 {
		return
	}
	bound := p.bind(d)
	var buf [scanWindow]bool
	for k, ch := range d.cols[0].chunks {
		for lo := 0; lo < ch.len(); lo += scanWindow {
			win := buf[:min(scanWindow, ch.len()-lo)]
			for i := range win {
				win[i] = true
			}
			for i := range bound {
				bound[i].andWindow(k, lo, win)
			}
			visit(ch.start+lo, win)
		}
	}
}

// boundClause is a clause bound to one dataset's column. A string
// comparison on a Categorical column carries the clause value resolved to
// its code in the column's dictionary, or absent when no entry holds it.
type boundClause struct {
	Clause
	col    *Column
	code   uint32
	absent bool
}

// bind resolves every clause against d.
func (p Predicate) bind(d *Dataset) []boundClause {
	bound := make([]boundClause, len(p.Clauses))
	for i, c := range p.Clauses {
		b := boundClause{Clause: c, col: d.Column(c.Attr)}
		if b.col != nil && b.col.Kind == Categorical && !c.IsNum {
			code, ok := lookup(b.col.Dict(), c.StrVal)
			b.code, b.absent = code, !ok
		}
		bound[i] = b
	}
	return bound
}

// andWindow ANDs the clause into mask, which covers the rows of chunk k
// from offset lo on.
func (b *boundClause) andWindow(k, lo int, mask []bool) {
	if b.col == nil {
		clear(mask)
		return
	}
	ch := b.col.chunks[k]
	hi := lo + len(mask)
	null := ch.null[lo:hi]
	switch b.Op {
	case IsNull:
		for i := range mask {
			mask[i] = mask[i] && null[i]
		}
		return
	case NotNull:
		for i := range mask {
			mask[i] = mask[i] && !null[i]
		}
		return
	}
	if b.IsNum != (b.col.Kind == Numeric) {
		// A typed comparison against a column of the other kind: no cell
		// equals the value, so Ne holds on every non-NULL cell and every
		// other operator on none.
		if b.Op == Ne {
			for i := range mask {
				mask[i] = mask[i] && !null[i]
			}
		} else {
			clear(mask)
		}
		return
	}
	switch b.col.Kind {
	case Numeric:
		andNums(b.Op, b.NumVal, ch.nums[lo:hi], null, mask)
	case Categorical:
		codes := ch.codes[lo:hi]
		switch {
		case b.Op == Eq && !b.absent:
			for i := range mask {
				mask[i] = mask[i] && !null[i] && codes[i] == b.code
			}
		case b.Op == Ne && !b.absent:
			for i := range mask {
				mask[i] = mask[i] && !null[i] && codes[i] != b.code
			}
		case b.Op == Ne:
			for i := range mask {
				mask[i] = mask[i] && !null[i]
			}
		default:
			clear(mask)
		}
	default:
		strs := ch.strs[lo:hi]
		switch b.Op {
		case Eq:
			for i := range mask {
				mask[i] = mask[i] && !null[i] && strs[i] == b.StrVal
			}
		case Ne:
			for i := range mask {
				mask[i] = mask[i] && !null[i] && strs[i] != b.StrVal
			}
		default:
			clear(mask)
		}
	}
}

// andNums ANDs a numeric comparison against v into mask.
func andNums(op Op, v float64, nums []float64, null, mask []bool) {
	switch op {
	case Eq:
		for i := range mask {
			mask[i] = mask[i] && !null[i] && nums[i] == v
		}
	case Ne:
		for i := range mask {
			mask[i] = mask[i] && !null[i] && nums[i] != v
		}
	case Lt:
		for i := range mask {
			mask[i] = mask[i] && !null[i] && nums[i] < v
		}
	case Le:
		for i := range mask {
			mask[i] = mask[i] && !null[i] && nums[i] <= v
		}
	case Gt:
		for i := range mask {
			mask[i] = mask[i] && !null[i] && nums[i] > v
		}
	case Ge:
		for i := range mask {
			mask[i] = mask[i] && !null[i] && nums[i] >= v
		}
	default:
		clear(mask)
	}
}

// Selectivity returns the fraction of rows satisfying the predicate.
// An empty dataset has selectivity 0. The matches are counted window by
// window, so no row-length mask is allocated.
func (p Predicate) Selectivity(d *Dataset) float64 {
	if d.NumRows() == 0 {
		return 0
	}
	n := 0
	p.scan(d, func(_ int, mask []bool) {
		for _, ok := range mask {
			if ok {
				n++
			}
		}
	})
	return float64(n) / float64(d.NumRows())
}

// MatchingRows returns the indices of rows satisfying the predicate.
func (p Predicate) MatchingRows(d *Dataset) []int {
	var idx []int
	p.scan(d, func(start int, mask []bool) {
		for i, ok := range mask {
			if ok {
				idx = append(idx, start+i)
			}
		}
	})
	return idx
}

// String renders the predicate as clause ∧ clause ∧ …
func (p Predicate) String() string {
	if len(p.Clauses) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(p.Clauses))
	for i, c := range p.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}

// Key returns a canonical identity string: clauses sorted so that logically
// identical predicates built in different orders compare equal.
func (p Predicate) Key() string {
	parts := make([]string, len(p.Clauses))
	for i, c := range p.Clauses {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND ")
}
