// Command perfbench is the repository's end-to-end explanation benchmark.
// Each run sets one workload up several times, then explains it again and
// again for a fixed number of seconds (closed loop: one explanation at a
// time, oracle concurrency = CPUs), gates every explanation for
// correctness, and prints one JSON result as its last line.
//
//	go run . --workload income --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 untraced and traced explanations alternate;
// the result holds the per-layer metrics of the traced ones plus the
// tracing overhead, and every span is written to --out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

var workloadNames = []string{"income", "ezgo-fleet", "synth-wide"}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // root for per-run score stores, removed on exit
	out      string // where traced runs write their spans
	sizes    sizes
	// minReps is the fewest cold+rerun pairs a run makes, however long
	// they take.
	minReps int
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to keep explaining after set-up")
	flag.IntVar(&trace, "trace", 0, "1: alternate untraced and traced explanations and report per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_run", "directory for per-run score stores (removed on exit)")
	flag.StringVar(&cfg.out, "out", ".bench_out", "directory traced runs write spans to")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	cfg.sizes = defaultSizes
	cfg.minReps = 3
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		out, err := run(cfg, name)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		line, err := json.Marshal(out)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info describes the machine and the inputs; every run prints it.
type info struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Algo       string  `json:"algo"`
	Rows       int     `json:"rows"`
	PVTs       int     `json:"pvts"`
	Workers    int     `json:"oracle_workers"`
	Fleet      int     `json:"fleet_workers"`
	Setups     int     `json:"setups"`
	Repeats    int     `json:"repeats"`
	Seconds    float64 `json:"seconds"`
	Sizes      sizes   `json:"sizes"`
}

// run sets name up, explains it for cfg.seconds, and returns its result.
// It prints the machine and inputs as a JSON line on stdout and a
// readable summary on stderr. An error means the benchmark could not run;
// a wrong explanation is reported through the result instead.
func run(cfg config, name string) (*result, error) {
	known := false
	for _, n := range workloadNames {
		known = known || n == name
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.work, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var workerRec atomic.Pointer[recorder]
	var setups []time.Duration
	setUp := func() (*scenario, error) {
		sc, d, err := setUpOnce(cfg, name, filepath.Join(work, fmt.Sprintf("setup-%d", len(setups))), &workerRec)
		if err == nil {
			setups = append(setups, d)
		}
		return sc, err
	}
	sc, err := setUp()
	if err != nil {
		return nil, err
	}
	defer sc.close()

	ctx := context.Background()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var xs []*explanation
	var ref *explanation
	attempted, failed := 0, 0
	var firstErr error
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	minReps := cfg.minReps
	if cfg.trace {
		minReps = 2 * cfg.minReps // half untraced, half traced
	}
	record := func(x *explanation) {
		attempted++
		if err := gate(sc, x, ref); err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		} else if ref == nil {
			ref = x
		}
		xs = append(xs, x)
	}
	reruns := 1
	reps := 0
	for ; reps < minReps || time.Now().Before(deadline); reps++ {
		repStart := time.Now()
		var r *recorder
		if cfg.trace && reps%2 == 1 {
			r = rec
		}
		workerRec.Store(r)
		dir := filepath.Join(work, fmt.Sprintf("store-%d", reps))
		cold := explainOnce(ctx, sc, dir, true, r)
		record(cold)
		var rerun *explanation
		for k := 0; k < reruns; k++ {
			rerun = explainOnce(ctx, sc, dir, false, r)
			record(rerun)
		}
		workerRec.Store(nil)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if reps == 0 {
			reruns = rerunsPerCold(cold.wall, rerun.wall)
		}
		if cfg.trace {
			continue // set-up time is an end-to-end metric
		}
		// Set-up is measured again between repeats, so its median spans the
		// run as the explanation timings do, not just its first second.
		for n := extraSetups(time.Since(repStart), median(secondsEach(setups))); n > 0; n-- {
			extra, err := setUp()
			if err != nil {
				return nil, err
			}
			extra.close()
		}
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness gate: %v\n", name, firstErr)
	}

	in := info{
		Workload: name, Seed: cfg.seed, Trace: cfg.trace, CPU: cpuModel(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Algo: sc.algo, Rows: sc.rows(),
		Workers: numWorkers(), Setups: len(setups), Repeats: reps, Seconds: cfg.seconds,
		Sizes: cfg.sizes,
	}
	if ref != nil {
		in.PVTs = ref.discriminant
	}
	if sc.fleet != nil {
		in.Fleet = numWorkers()
	}
	line, err := json.Marshal(map[string]info{"perfbench": in})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))

	var ms map[string]metric
	if cfg.trace {
		ms = layerMetrics(rec, xs)
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed))
		if err := rec.write(path, in); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: spans written to %s\n", name, path)
		printSelfTimes(os.Stderr, rec, xs)
	} else {
		ms = endToEndMetrics(xs, setups)
	}
	printMetrics(os.Stderr, name, in, ms)
	printSamples(os.Stderr, xs)
	return &result{Correct: failed == 0 && ref != nil, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// rerunsPerCold repeats a rerun that is far cheaper than its cold
// explanation, so both medians rest on a similar amount of measured time,
// at the cost of at most an eighth more run time per repeat.
func rerunsPerCold(cold, rerun time.Duration) int {
	if rerun <= 0 {
		return 1
	}
	return max(1, min(10, int(cold/(8*rerun))))
}

// extraSetups spends about a twentieth of a repeat's time on set-ups,
// between 1 and 50 of them.
func extraSetups(rep time.Duration, setupS float64) int {
	if setupS <= 0 {
		return 1
	}
	return max(1, min(50, int(rep.Seconds()/(20*setupS))))
}

// setUpOnce builds name's scenario from a collected heap and times it.
// Set-up is scenario generation (data and any model), the score-store
// directory dir, and for the fleet the listeners, workers and first dial.
func setUpOnce(cfg config, name, dir string, workerRec *atomic.Pointer[recorder]) (*scenario, time.Duration, error) {
	runtime.GC() // as explainOnce: no set-up pays for the previous one's garbage
	start := time.Now()
	sc, err := newScenario(name, cfg.seed, cfg.sizes, workerRec)
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		sc.close()
		return nil, 0, err
	}
	return sc, time.Since(start), nil
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
