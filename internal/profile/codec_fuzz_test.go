package profile

import "testing"

// FuzzDecodeProfile feeds arbitrary bytes to DecodeProfile under every
// registered class. A decoder may reject its input, but must do so with an
// error rather than a panic; a profile it accepts must survive a round
// trip: re-encoding resolves the same class, and decoding that encoding
// gives the same Key with SameParams holding both ways.
func FuzzDecodeProfile(f *testing.F) {
	classes := Discoverers()
	index := make(map[string]uint8, len(classes))
	for i, c := range classes {
		index[c.Name] = uint8(i)
	}
	for _, tc := range codecGolden {
		f.Add(index[tc.class], []byte(tc.golden))
	}
	for i := range classes {
		f.Add(uint8(i), []byte(`{}`))
		f.Add(uint8(i), []byte(`null`))
		f.Add(uint8(i), []byte(`{"variant":"text","attr":"a"}`))
		f.Add(uint8(i), []byte(`{"cond":[],"class":"nope","inner":{}}`))
	}
	f.Fuzz(func(t *testing.T, ci uint8, data []byte) {
		class := classes[int(ci)%len(classes)].Name
		p, err := DecodeProfile(class, data)
		if err != nil {
			return
		}
		again, enc, err := EncodeProfile(p)
		if err != nil {
			t.Fatalf("class %q accepted %q but cannot re-encode it: %v", class, data, err)
		}
		if again != class {
			t.Fatalf("class %q accepted %q, but %q claims the decoded profile", class, data, again)
		}
		back, err := DecodeProfile(again, enc)
		if err != nil {
			t.Fatalf("class %q: decoding its own encoding %q: %v", class, enc, err)
		}
		if back.Key() != p.Key() || !back.SameParams(p) || !p.SameParams(back) {
			t.Fatalf("class %q: %q does not survive the round trip: %s vs %s", class, data, p, back)
		}
	})
}
