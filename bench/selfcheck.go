package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// gated describes the end-to-end metrics and the bound each may worsen by,
// as a share of the baseline median, before a change counts as a
// regression. BENCHMARK.json repeats the table; a test keeps the two in
// step.
var gated = []struct {
	name, unit     string
	higherIsBetter bool
	bound          float64
}{
	{"setup_s", "s", false, 0.25},
	{"allocs_per_op", "count", false, 0.02},
	{"alloc_bytes_per_op", "B", false, 0.02},
	{"wire_pkts_per_op", "count", false, 0.05},
	{"wire_bytes_per_op", "B", false, 0.08},
}

// runSelfcheck answers whether identical code agrees with itself: it makes
// two sets of full runs of this very binary, back to back, each run a fresh
// process with another seed (what the acceptance driver does), and compares
// the sets' medians against the bounds. It also prints each set's quartile
// spread. An error means a gap or a spread exceeded its bound.
func runSelfcheck(ws []*workload, opt options, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	printHost()
	fmt.Printf("# selfcheck: 2 sets x %d runs x %d workloads, %d measured seconds per run\n", runs, len(ws), opt.seconds)
	// values[set][workload][metric] holds one value per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range ws {
			values[set][w.name] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				seed := opt.seed + int64(set*runs+i)
				res, printed, err := childRun(exe, w, seed, opt.seconds)
				if err != nil {
					return fmt.Errorf("set %d, %s, seed %d: %w", set+1, w.name, seed, err)
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("set %d, %s, seed %d: correct=%v, %d of %d ops failed", set+1, w.name, seed, res.Correct, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
				for name, v := range printed {
					values[set][w.name][name] = append(values[set][w.name][name], v)
				}
			}
		}
	}

	fmt.Printf("%-14s %-19s %12s %7s %12s %7s %8s %6s  %s\n", "workload", "metric", "median_1", "iqr_1", "median_2", "iqr_2", "gap", "bound", "verdict")
	failures := 0
	for _, w := range ws {
		for _, g := range gated {
			a, b := values[0][w.name][g.name], values[1][w.name][g.name]
			ma, mb := median(a), median(b)
			gap := worsening(ma, mb, g.higherIsBetter)
			verdict := "ok"
			// Set-up time is gated on its medians only.
			spreadOK := g.name == "setup_s" || (spread(a) <= g.bound && spread(b) <= g.bound)
			if !spreadOK || !withinBound(ma, mb, g.bound, g.higherIsBetter) {
				verdict = "FAIL"
				failures++
			} else if gap > g.bound/2 || (g.name != "setup_s" && max(spread(a), spread(b)) > g.bound/3) {
				verdict = "ok (close)"
			}
			fmt.Printf("%-14s %-19s %12.4f %6.2f%% %12.4f %6.2f%% %+7.2f%% %5.0f%%  %s\n",
				w.name, g.name, ma, 100*spread(a), mb, 100*spread(b), 100*gap, 100*g.bound, verdict)
		}
		// The record behind leaving wall-clock time ungated.
		for _, name := range []string{"isis.op_p50_us", "isis.ops_per_s"} {
			a, b := values[0][w.name][name], values[1][w.name][name]
			ma, mb := median(a), median(b)
			fmt.Printf("%-14s %-19s %12.4f %6.2f%% %12.4f %6.2f%% %+7.2f%% %6s  %s\n",
				w.name, name, ma, 100*spread(a), mb, 100*spread(b), 100*worsening(ma, mb, name == "isis.ops_per_s"), "-", "printed only")
		}
	}
	if failures > 0 {
		return fmt.Errorf("selfcheck: %d workload x metric pairs out of bounds", failures)
	}
	fmt.Println("selfcheck: every gap and spread is within its bound")
	return nil
}

// spread is the distance between the quartiles of xs as a share of their
// median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// childRun executes one untraced run in a fresh process and parses its
// standard output: the result line, which is the last one, and the metrics
// printed as "not gated".
func childRun(exe string, w *workload, seed int64, seconds int) (res result, printed map[string]float64, err error) {
	cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return res, nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, nil, fmt.Errorf("result line: %w", err)
	}
	printed = map[string]float64{}
	for _, line := range lines {
		var name, unit string
		var v float64
		if n, _ := fmt.Sscanf(line, w.name+"/%s = %g %s (not gated)", &name, &v, &unit); n == 3 && strings.HasSuffix(line, "(not gated)") {
			printed[name] = v
		}
	}
	return res, printed, nil
}
