package remote_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/pipeline/remote"
	"repro/internal/synth"
)

// benchOracleCost models an expensive black-box oracle, so the benchmark
// measures evaluation economics rather than loopback overhead alone.
const benchOracleCost = 2 * time.Millisecond

// slowSystem charges a fixed latency per evaluation, like an external
// scoring process would.
type slowSystem struct {
	pipeline.System
}

func (s *slowSystem) MalfunctionScore(d *dataset.Dataset) float64 {
	time.Sleep(benchOracleCost)
	return s.System.MalfunctionScore(d)
}

// BenchmarkFleetThroughput measures oracle evaluations per second. The
// local case is the before-this-PR baseline: a serial in-process oracle at
// benchOracleCost per call. The fleet cases fan saturating concurrent
// callers across 1, 4, and 8 single-threaded loopback workers — throughput
// should scale with fleet size, the serialization/framing/TCP overhead
// visible as the gap from the ideal cost/N.
func BenchmarkFleetThroughput(b *testing.B) {
	sc := synth.New(synth.Options{NumPVTs: 8, NumAttrs: 4, Conjunction: 1, CauseTopBenefit: true, Seed: 1})
	slow := &slowSystem{System: sc.System}
	local := pipeline.AsFallible(pipeline.AsContext(slow))
	ctx := context.Background()

	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if res := local.TryMalfunctionScore(ctx, sc.Fail); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})

	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			fleet := remote.NewFleet(remote.Config{
				Addrs:      startFleetWorkers(b, slow, workers),
				SystemName: slow.Name(),
			})
			defer fleet.Close()
			b.SetParallelism(16) // enough concurrent callers to saturate 8 workers even at GOMAXPROCS=1
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if res := fleet.TryMalfunctionScore(ctx, sc.Fail); res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			})
		})
	}
}

// BenchmarkRequestCodec measures one request's encode plus decode on a
// rows×20 dataset (10 numeric columns with ~1% NULLs, 10 categorical over
// 12 values): the CSV body of protocol v1 (WriteCSV + ReadCSV) against the
// binary frame. wire-B/op is the request size. 1M rows runs only with
// DATAPRISM_BENCH_LARGE set; its frame exceeds one request's cap, so the
// benchmark lifts the cap to time the codec alone.
func BenchmarkRequestCodec(b *testing.B) {
	sizes := []int{100_000}
	if os.Getenv("DATAPRISM_BENCH_LARGE") != "" {
		sizes = append(sizes, 1_000_000)
	}
	for _, rows := range sizes {
		d := remote.MixedDataset(rows, 1)
		b.Run(fmt.Sprintf("csv/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			var wire int
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := d.WriteCSV(&buf); err != nil {
					b.Fatal(err)
				}
				wire = buf.Len()
				if _, err := dataset.ReadCSV(&buf, dataset.InferOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wire), "wire-B/op")
		})
		b.Run(fmt.Sprintf("frame/rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			var wire int
			for i := 0; i < b.N; i++ {
				frame, err := remote.EncodeRequestUncapped(d)
				if err != nil {
					b.Fatal(err)
				}
				wire = len(frame)
				if _, _, err := remote.DecodeRequest(frame[4:]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wire), "wire-B/op")
		})
	}
}
