package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/profile"
)

// EZGoScenario is the paper's Example 2: a toll-collection pipeline that
// processes vehicle batches within a fixed time budget, falling back to a
// slow OCR for vehicles without a toll pass — and the OCR is extremely slow
// on black license plates photographed in low illumination. A batch with a
// skewed share of such vehicles blows the deadline. The ground-truth root
// cause is the Selectivity profile of the hard-case predicate; the fix
// under-samples hard cases back to the expected rate (operationally: route
// the excess to a different batch).
type EZGoScenario struct {
	Pass, Fail *dataset.Dataset
	System     pipeline.System
	Tau        float64
	Options    profile.Options
}

// NewEZGoScenario generates batches of n vehicles. The passing batch has
// ~5% hard cases (black plate, low illumination, no toll pass); the failing
// batch has ~35% — the "significantly skewed distribution" of Example 2.
func NewEZGoScenario(n int, seed int64) *EZGoScenario {
	pass := genBatch(n, seed, 0.05)
	fail := genBatch(n, seed+1, 0.35)
	return &EZGoScenario{
		Pass:    pass,
		Fail:    fail,
		System:  newEZGoSystem(n),
		Tau:     0.2,
		Options: profile.DefaultOptions(),
	}
}

// genBatch synthesizes one camera batch with the given hard-case rate.
func genBatch(n int, seed int64, hardRate float64) *dataset.Dataset {
	// The categorical columns hold codes into these levels.
	colors := []string{"white", "yellow", "black"}
	lights := []string{"normal", "bright", "low"}
	passes := []string{"yes", "no"}
	const black, normal, low, no = 2, 0, 2, 1
	rng := rand.New(rand.NewSource(seed))
	plate := make([]string, n)
	color := make([]uint32, n)
	illum := make([]uint32, n)
	tollPass := make([]uint32, n)
	for i := 0; i < n; i++ {
		plate[i] = fmt.Sprintf("%c%c-%03d", 'A'+rng.Intn(26), 'A'+rng.Intn(26), rng.Intn(1000))
		if rng.Float64() < hardRate {
			color[i], illum[i], tollPass[i] = black, low, no
			continue
		}
		color[i] = uint32(rng.Intn(len(colors)))
		illum[i] = uint32(rng.Intn(len(lights)))
		// Most easy vehicles have a toll pass; some need (fast) OCR.
		if rng.Float64() >= 0.7 {
			tollPass[i] = no
		}
		// Avoid accidentally minting extra hard cases among the easy pool.
		if color[i] == black && illum[i] == low && tollPass[i] == no {
			illum[i] = normal
		}
	}
	d := dataset.New()
	d.MustAddText("plate", plate)
	mustAddCodes(d, "plate_color", colors, color)
	mustAddCodes(d, "illumination", lights, illum)
	mustAddCodes(d, "toll_pass", passes, tollPass)
	return d
}

// ezgoSystem simulates the batch processor: per-vehicle cost is negligible
// with a toll pass, one unit for fast OCR, and a large constant for the
// pathological black-plate/low-light OCR path. The malfunction is the
// normalized overrun of the batch time budget.
type ezgoSystem struct {
	budget float64
}

// newEZGoSystem sizes the time budget for a batch of n vehicles: enough for
// every vehicle to need fast OCR plus a 10% share of slow cases.
func newEZGoSystem(n int) *ezgoSystem {
	const slowCost = 40.0
	return &ezgoSystem{budget: float64(n) + 0.10*float64(n)*slowCost}
}

// Name implements pipeline.System.
func (s *ezgoSystem) Name() string { return "ezgo-batch-processor" }

// MalfunctionScore implements pipeline.System.
func (s *ezgoSystem) MalfunctionScore(d *dataset.Dataset) float64 {
	color := d.Column("plate_color")
	illum := d.Column("illumination")
	toll := d.Column("toll_pass")
	if color == nil || illum == nil || toll == nil || d.NumRows() == 0 {
		return 1
	}
	const slowCost = 40.0
	total := 0.0
	for k := 0; k < toll.NumChunks(); k++ {
		tv, cv, iv := toll.Chunk(k), color.Chunk(k), illum.Chunk(k)
		for i := range tv.Null {
			if !tv.Null[i] && tv.Str(i) == "yes" {
				total += 0.1 // transponder read
				continue
			}
			if !cv.Null[i] && !iv.Null[i] && cv.Str(i) == "black" && iv.Str(i) == "low" {
				total += slowCost
			} else {
				total += 1 // fast OCR
			}
		}
	}
	overrun := total/s.budget - 1
	if overrun < 0 {
		return 0
	}
	if overrun > 1 {
		return 1
	}
	return overrun
}
