package remote

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// goldenWidthDataset builds a dataset whose categorical column needs a
// dictionary of ndict entries — so its codes travel ndict ≤ 256 → 1, ≤ 65536
// → 2, else 4 bytes wide — over rows rows with every seventh cell NULL, next
// to a numeric and a text column, in chunks of csize rows.
func goldenWidthDataset(ndict, rows, csize int) *dataset.Dataset {
	cats := make([]string, rows)
	texts := make([]string, rows)
	nums := make([]float64, rows)
	null := make([]bool, rows)
	for r := range cats {
		// A stride coprime to ndict visits every entry, out of sorted order.
		cats[r] = fmt.Sprintf("v%05d", (r*7919)%ndict)
		texts[r] = fmt.Sprintf("t-%d", r%97)
		nums[r] = float64(r%13) / 4
		null[r] = r%7 == 3
	}
	d := dataset.NewChunked(csize)
	for _, err := range []error{
		d.AddCategoricalColumn("cat", cats, null),
		d.AddNumericColumn("num", nums, null),
		d.AddTextColumn("text", texts, null),
		d.AddCategoricalColumn("dense", cats, nil),
	} {
		if err != nil {
			panic(err)
		}
	}
	return d
}

// goldenEditedDataset is goldenWidthDataset(200, 1000, 128) after cell
// writes on a clone: new values, an entry overwritten out of use, and fresh
// NULLs, so the frame's dictionary differs from the one the column was
// built with.
func goldenEditedDataset() *dataset.Dataset {
	d := goldenWidthDataset(200, 1000, 128).Clone()
	for r := 0; r < 1000; r += 37 {
		d.SetStr("cat", r, fmt.Sprintf("new%d", r%5))
		d.SetStr("dense", r, "v00000")
		d.SetNull("text", (r+1)%1000)
	}
	d.SetNull("dense", 999)
	return d
}

// TestEncodeRequestGolden pins the request frame bytes — SHA-256 of the
// whole frame, length prefix and fingerprint included — for NULL-bearing
// datasets whose categorical codes travel 1, 2 and 4 bytes wide, next to
// text and numeric columns, across single- and multi-chunk layouts. Any
// change to how a column is stored must leave these bytes as they are;
// changing the wire format needs a protocol version bump and new pins.
func TestEncodeRequestGolden(t *testing.T) {
	cases := []struct {
		name string
		d    *dataset.Dataset
		want string
	}{
		{"tricky", trickyDataset(dataset.DefaultChunkSize), "4fdd9a6485e39122c73bf51f1fedf04f75ae5c5f0ad5044098dd8c310f22dc79"},
		{"tricky-chunk3", trickyDataset(3), "4fdd9a6485e39122c73bf51f1fedf04f75ae5c5f0ad5044098dd8c310f22dc79"},
		{"width1", goldenWidthDataset(200, 1000, 128), "a2a739c26ee1678dce0ae8394ecc5b3280e5e5e70b1700c7f7e535ace2ba5bf7"},
		{"width2", goldenWidthDataset(300, 1000, 128), "7604a8dece8e0b21a7b20bf08b68484e205177900f92461d750a7e06ac6532b5"},
		{"edited", goldenEditedDataset(), "e9cff3d9230b6b8d07eac222b10611b012a64efec06dca8e4e42dd36a8cba2c2"},
		{"width4", goldenWidthDataset(1<<16+3, 1<<16+40, dataset.DefaultChunkSize), "2088483ed7c685237d0ef9247dbb112d9d06107297f83e6c48fe3c7b3045c0d5"},
	}
	for _, tc := range cases {
		frame, err := encodeRequest(tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(frame)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: frame SHA-256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}
