package remote

import (
	"math"

	"repro/internal/dataset"
)

// Codec hooks for the external test package's benchmarks. The encoder's
// frame cap is lifted so datasets larger than one frame can be measured.
var (
	EncodeRequestUncapped = func(d *dataset.Dataset) ([]byte, error) { return encodeRequestWithin(d, math.MaxUint32) }
	DecodeRequest         = decodeRequest
	MixedDataset          = mixedDataset
)
