package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	// Expected values are what Python's statistics.quantiles(xs, n=4) returns.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 12},
	} {
		if q1, q3 := quartiles(c.xs); !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestBoundComparison(t *testing.T) {
	for _, c := range []struct {
		base, cur, bound float64
		higher, ok       bool
	}{
		{100, 109, 0.10, false, true},    // latency up 9%
		{100, 111, 0.10, false, false},   // latency up 11%
		{100, 50, 0.10, false, true},     // latency halved: an improvement
		{1000, 910, 0.10, true, true},    // throughput down 9%
		{1000, 890, 0.10, true, false},   // throughput down 11%
		{1000, 2000, 0.10, true, true},   // throughput doubled
		{320, 326.5, 0.02, false, false}, // allocations up 2.03%
	} {
		if got := withinBound(c.base, c.cur, c.bound, c.higher); got != c.ok {
			t.Errorf("withinBound(%v, %v, %v, higher=%v) = %v, want %v", c.base, c.cur, c.bound, c.higher, got, c.ok)
		}
	}
	if got := worsening(200, 220, false); !near(got, 0.1) {
		t.Errorf("worsening(200, 220, lower is better) = %v, want 0.1", got)
	}
	if got := worsening(200, 220, true); !near(got, -0.1) {
		t.Errorf("worsening(200, 220, higher is better) = %v, want -0.1", got)
	}
}

// A burst that hits fewer than half the rounds must not move the run's value.
func TestMedianOfRounds(t *testing.T) {
	rounds := make([]roundResult, 12)
	for i := range rounds {
		rounds[i] = roundResult{attempted: 1000, wall: time.Second, lat: []float64{80, 85, 90}}
	}
	for i := 3; i < 8; i++ { // a five-round burst
		rounds[i].wall = 2 * time.Second
		rounds[i].lat = []float64{150, 160, 170}
	}
	for _, m := range timeMetrics(rounds) {
		switch {
		case m.name == "isis.ops_per_s" && m.value != 1000:
			t.Errorf("isis.ops_per_s = %v, want 1000", m.value)
		case m.name == "isis.op_p50_us" && m.value != 85:
			t.Errorf("isis.op_p50_us = %v, want 85", m.value)
		}
	}
	rounds[0].setup, rounds[1].setup, rounds[2].setup = 3*time.Second, time.Second, 2*time.Second
	if got := endToEnd(rounds[:3])["setup_s"]; got != 2 {
		t.Errorf("setup_s = %v, want 2", got)
	}
}

// benchmarkJSON mirrors the BENCHMARK.json contract.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the tables in this package must declare the same
// workloads, metrics, units and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, b.Workloads[i].Name, w.name)
		}
		if why := b.Workloads[i].Why; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.name, len(why))
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(gated))
	}
	for i, g := range gated {
		better := "lower"
		if g.higherIsBetter {
			better = "higher"
		}
		if e := b.EndToEnd[i]; e.Name != g.name || e.Unit != g.unit || e.Better != better || e.Bound != g.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, e, g)
		}
		if g.bound <= 0 || g.bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", g.name, g.bound)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(b.PerLayer), len(layerMetrics))
	}
	seen := map[string]bool{}
	for i, lm := range layerMetrics {
		if p := b.PerLayer[i]; p.Name != lm.name || p.Unit != lm.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", i, p.Name, p.Unit, lm.name, lm.unit)
		}
		if !nameRE.MatchString(lm.name) {
			t.Errorf("per-layer metric name %q is not of the form [A-Za-z0-9_.-]+", lm.name)
		}
		if seen[lm.name] {
			t.Errorf("per-layer metric name %q is used twice", lm.name)
		}
		seen[lm.name] = true
	}
	for _, g := range gated {
		if seen[g.name] {
			t.Errorf("metric name %q is both end-to-end and per-layer", g.name)
		}
	}
}

// smoke runs every workload at about 1% of its op count.
var smoke = options{seed: 7, rounds: 2, scale: 0.01, quiet: true}

func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(w, smoke)
			if err != nil {
				t.Fatalf("correctness check: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 2*smoke.scaled(w) {
				t.Errorf("correct=%v attempted=%d failed=%d, want true, %d, 0", res.Correct, res.Attempted, res.Failed, 2*smoke.scaled(w))
			}
			if len(res.Metrics) != len(gated) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(gated))
			}
			for _, g := range gated {
				if m, ok := res.Metrics[g.name]; !ok || m.Unit != g.unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (reported: %v), want a positive value in %s", g.name, m, ok, g.unit)
				}
			}
		})
	}
}

// A traced run must report exactly the per-layer metrics, each once, and
// write the span file.
func TestTracedSmoke(t *testing.T) {
	for _, name := range []string{"abcast_rpc", "churn_lan"} {
		w := findWorkload(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opt := smoke
			opt.rounds, opt.trace = 1, true
			opt.out = filepath.Join(t.TempDir(), "spans.json")
			res, err := runWorkload(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(layerMetrics) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(layerMetrics))
			}
			for _, lm := range layerMetrics {
				m, ok := res.Metrics[lm.name]
				if !ok || m.Unit != lm.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %+v (reported: %v), want a finite value in %s", lm.name, m, ok, lm.unit)
				}
			}
			raw, err := os.ReadFile(opt.out)
			if err != nil {
				t.Fatal(err)
			}
			var spans []struct {
				ID, Parent uint64
				Name       string
				Start      int64 `json:"start_ns"`
				End        int64 `json:"end_ns"`
			}
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatalf("span file: %v", err)
			}
			ids := map[uint64]bool{}
			for _, s := range spans {
				ids[s.ID] = true
			}
			for _, s := range spans {
				if s.End < s.Start || (s.Parent != 0 && !ids[s.Parent]) {
					t.Fatalf("bad span %+v", s)
				}
			}
			if len(spans) == 0 {
				t.Error("the span file is empty")
			}
		})
	}
}

// The virtual-synchrony check must notice a member that saw a different
// order, a duplicate, or a gap.
func TestVerifyCatchesViolations(t *testing.T) {
	w := findWorkload("abcast_rpc")
	e, err := newEnv(w, 1, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for id := 0; id < e.total; id++ {
		if id == e.total-1 {
			// A failed op that was never delivered must not stall the drain.
			if err := e.drain(1); err != nil {
				t.Fatalf("drain with one op missing: %v", err)
			}
		}
		if _, err := e.op(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.drain(0); err != nil {
		t.Fatal(err)
	}
	if err := e.verify(0); err != nil {
		t.Fatalf("clean round rejected: %v", err)
	}
	e.procs[1].hash++
	if err := e.verify(0); err == nil {
		t.Error("a member with a different delivery order passed the check")
	}
	e.procs[1].hash--
	e.procs[2].delivered--
	if err := e.verify(0); err == nil {
		t.Error("a member that missed an op passed the check")
	}
	e.procs[2].delivered++
	e.procs[0].violation = "op 3 delivered twice"
	if err := e.verify(0); err == nil {
		t.Error("a recorded duplicate passed the check")
	}
}
