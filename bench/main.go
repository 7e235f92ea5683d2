// Command bench is the repository's performance yardstick: the only source
// of numbers a performance claim may cite. It drives the public isis API
// over both network backends on four workloads, checks the virtual-synchrony
// guarantees of every round, and reports the gated end-to-end metrics per
// workload (-trace 0) or the per-layer metrics of a separate traced run
// (-trace 1). BENCHMARK.json at the repository root declares the workloads,
// metrics and regression bounds; README.md in this directory explains them.
//
//	go run ./bench                                  # all workloads, end to end
//	go run ./bench -workload abcast_rpc -seed 7     # one workload
//	go run ./bench -workload churn_lan -trace 1     # per-layer metrics + span file
//	go run ./bench -selfcheck                       # does identical code agree with itself?
//
// The last line of standard output is one JSON object per workload run:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// options are the settings of a run. The command line sets seed, seconds,
// trace and out; rounds, scale and quiet exist for the package's tests, so
// that a run's op counts are always the frozen ones.
type options struct {
	seed    int64
	seconds int // measured time per run; rounds repeat until it is reached
	trace   bool
	out     string // span file of a traced run

	rounds int     // fixed number of rounds instead (0: derive from seconds)
	scale  float64 // multiplies the frozen per-round op counts (the smoke tests use 0.01)
	quiet  bool    // print only the result line
}

// minRounds is the fewest rounds a run reduces to a median.
const minRounds = 5

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		opt       = options{scale: 1}
		name      = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
		trace     = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of full runs back to back and compare their medians against the bounds")
		runs      = flag.Int("runs", 3, "with -selfcheck: runs per set and workload")
	)
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&opt.seconds, "seconds", 20, "measured seconds per run")
	flag.StringVar(&opt.out, "out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
	flag.Parse()
	opt.trace = *trace != 0

	var ws []*workload
	if *name == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		ws = append(ws, w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	if *selfcheck {
		if err := runSelfcheck(ws, opt, *runs); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	if !opt.quiet {
		printHost()
	}
	for _, w := range ws {
		res, err := runWorkload(w, opt)
		if err != nil {
			// A correctness violation or a broken harness: no result line.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}

// printHost records what the numbers were taken on.
func printHost() {
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.TrimSpace(string(b))
	}
	fmt.Printf("# %s GOMAXPROCS=%d NumCPU=%d loadavg=%s\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), load)
}

// scaled is the workload's per-round op count under opt.scale.
func (o options) scaled(w *workload) int {
	return max(int(float64(w.ops)*o.scale), 3)
}

// runRounds executes rounds of w until the measured sections add up to
// opt.seconds (at least minRounds), or exactly opt.rounds when that is set.
func runRounds(w *workload, opt options) ([]roundResult, error) {
	var (
		rounds   []roundResult
		measured float64
	)
	for r := 0; ; r++ {
		if opt.rounds > 0 {
			if r >= opt.rounds {
				break
			}
		} else if r >= minRounds && measured >= float64(opt.seconds) {
			break
		}
		res, err := runRound(w, opt.seed, opt.scaled(w), nil)
		if err != nil {
			return rounds, fmt.Errorf("round %d: %w", r, err)
		}
		measured += res.wall.Seconds()
		rounds = append(rounds, res)
	}
	return rounds, nil
}

// runWorkload performs one run of w and returns its result line.
func runWorkload(w *workload, opt options) (result, error) {
	if opt.trace {
		return runTraced(w, opt)
	}
	rounds, err := runRounds(w, opt)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	vals := endToEnd(rounds)
	for _, g := range gated {
		res.Metrics[g.name] = metric{vals[g.name], g.unit}
	}
	for i := range rounds {
		res.Attempted += rounds[i].attempted
		res.Failed += rounds[i].failed
	}
	if !opt.quiet {
		printRun(w, rounds, res.Metrics)
	}
	return res, nil
}

// endToEnd computes the gated metrics (see gated for units and bounds): each
// is taken per round and the run reports the median across rounds.
func endToEnd(rounds []roundResult) map[string]float64 {
	med := func(f func(*roundResult) float64) float64 { return medianOfRounds(rounds, f) }
	return map[string]float64{
		"setup_s":            med(func(r *roundResult) float64 { return r.setup.Seconds() }),
		"allocs_per_op":      med(func(r *roundResult) float64 { return r.perOp(r.mallocs) }),
		"alloc_bytes_per_op": med(func(r *roundResult) float64 { return r.perOp(r.bytes) }),
		"wire_pkts_per_op":   med(func(r *roundResult) float64 { return r.perOp(r.pkts) }),
		"wire_bytes_per_op":  med(func(r *roundResult) float64 { return r.perOp(r.wireBytes) }),
	}
}

// printRun prints the per-round table and the run's metrics for a reader;
// the machine-readable result line follows it.
func printRun(w *workload, rounds []roundResult, metrics map[string]metric) {
	fmt.Printf("# %s: %d rounds x %d ops\n", w.name, len(rounds), rounds[0].attempted)
	fmt.Printf("# %5s %9s %9s %9s %9s %10s %8s %9s %8s %7s\n", "round", "wall_s", "setup_s", "p50_us", "p99_us", "ops/s", "allocs", "pkts", "cpu_us", "failed")
	for i := range rounds {
		r := &rounds[i]
		fmt.Printf("# %5d %9.3f %9.3f %9.1f %9.1f %10.1f %8.1f %9.3f %8.1f %7d\n", i, r.wall.Seconds(), r.setup.Seconds(),
			percentile(r.lat, 50), percentile(r.lat, 99), r.opsPerSec(), r.perOp(r.mallocs), r.perOp(r.pkts),
			r.perOp(uint64(r.cpu.Microseconds())), r.failed)
	}
	for _, g := range gated {
		fmt.Printf("%s/%s = %.4f %s\n", w.name, g.name, metrics[g.name].Value, g.unit)
	}
	// Printed, not gated: on a shared 2-vCPU machine wall-clock and CPU
	// times do not repeat within a tenth from run to run (see README.md).
	for _, m := range timeMetrics(rounds) {
		fmt.Printf("%s/%s = %.4f %s (not gated)\n", w.name, m.name, m.value, layerUnit(m.name))
	}
}
