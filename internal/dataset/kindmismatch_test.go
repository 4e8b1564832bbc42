package dataset

import "testing"

// TestKindMismatchedClauses: a typed comparison against a column of the
// other kind — a string clause on a numeric column, a numeric clause on a
// string column — equals no cell, so Ne matches every non-NULL row and every
// other value operator none, with Eval, Mask, Selectivity and MatchingRows
// agreeing. The rows hold the zero values (0, "") a mismatched comparison
// used to read.
func TestKindMismatchedClauses(t *testing.T) {
	d := New()
	nulls := []bool{false, false, false, true}
	for _, err := range []error{
		d.AddNumericColumn("age", []float64{0, 30, 5, 0}, nulls),
		d.AddCategoricalColumn("zip", []string{"", "30", "5", ""}, nulls),
		d.AddTextColumn("note", []string{"", "30", "5", ""}, nulls),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	none := []bool{false, false, false, false}
	nonNull := []bool{true, true, true, false}
	cases := []struct {
		c    Clause
		want []bool
	}{
		{EqStr("age", "30"), none},
		{EqStr("age", "0"), none},
		{EqStr("age", ""), none},
		{Clause{Attr: "age", Op: Ne, StrVal: "30"}, nonNull},
		{Clause{Attr: "age", Op: Lt, StrVal: "30"}, none},
		{Clause{Attr: "age", Op: Ge, StrVal: ""}, none},
		{EqNum("zip", 5), none},
		{EqNum("zip", 0), none},
		{CmpNum("zip", Ne, 5), nonNull},
		{CmpNum("zip", Lt, 100), none},
		{CmpNum("zip", Ge, 0), none},
		{EqNum("note", 30), none},
		{EqNum("note", 0), none},
		{CmpNum("note", Ne, 30), nonNull},
		{CmpNum("note", Le, 30), none},
		// Kinds that match keep their usual meaning.
		{EqNum("age", 0), []bool{true, false, false, false}},
		{EqStr("zip", ""), []bool{true, false, false, false}},
		{EqStr("zip", "30"), []bool{false, true, false, false}},
		{Clause{Attr: "zip", Op: Ne, StrVal: "absent"}, nonNull},
		{EqStr("note", "5"), []bool{false, false, true, false}},
		// Null tests ignore the clause's type.
		{Clause{Attr: "age", Op: IsNull, IsNum: false}, []bool{false, false, false, true}},
		{Clause{Attr: "zip", Op: NotNull, IsNum: true}, nonNull},
	}
	for _, tc := range cases {
		p := And(tc.c)
		mask := p.Mask(d, nil)
		var wantRows []int
		n := 0
		for r, w := range tc.want {
			if got := tc.c.Eval(d, r); got != w {
				t.Errorf("%s: Eval row %d = %v, want %v", tc.c, r, got, w)
			}
			if mask[r] != w {
				t.Errorf("%s: Mask row %d = %v, want %v", tc.c, r, mask[r], w)
			}
			if w {
				wantRows = append(wantRows, r)
				n++
			}
		}
		if got, want := p.Selectivity(d), float64(n)/4; got != want {
			t.Errorf("%s: Selectivity = %v, want %v", tc.c, got, want)
		}
		got := p.MatchingRows(d)
		if len(got) != len(wantRows) {
			t.Errorf("%s: MatchingRows = %v, want %v", tc.c, got, wantRows)
			continue
		}
		for i := range got {
			if got[i] != wantRows[i] {
				t.Errorf("%s: MatchingRows = %v, want %v", tc.c, got, wantRows)
				break
			}
		}
	}
}
