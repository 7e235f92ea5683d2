// Command isis-bench regenerates the paper's evaluation artifacts as text
// tables and series:
//
//	isis-bench -table1    Table 1  — multicast overhead of the toolkit routines
//	isis-bench -figure2   Figure 2 — async CBCAST throughput and primitive latency vs message size
//	isis-bench -figure3   Figure 3 — breakdown of ABCAST execution time
//	isis-bench -twenty    Section 5 — twenty-questions aggregate query/update rates
//	isis-bench -cpu       Section 7 — sender CPU utilisation, async vs waiting protocols
//	isis-bench -all       every experiment
//
// The network uses the paper-calibrated parameters (10 µs intra-site, 16 ms
// inter-site, 10 Mbit/s, 4 KB fragmentation) unless -fast is given. With
// -tcp the Figure 2 experiments run over real kernel TCP sockets on loopback
// instead of the simulation; those numbers measure this machine, not the
// paper's LAN, and are reported for the backend-equivalence record in
// EXPERIMENTS.md. The tracer-based experiments (Figure 3) and the
// fault-injection ones stay on the simulated network.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	isis "repro"
	"repro/internal/bench"
	"repro/internal/simnet"
)

func main() {
	var (
		table1    = flag.Bool("table1", false, "regenerate Table 1")
		figure2   = flag.Bool("figure2", false, "regenerate Figure 2")
		figure3   = flag.Bool("figure3", false, "regenerate Figure 3")
		twenty    = flag.Bool("twenty", false, "regenerate the Section 5 twenty-questions rates")
		cpu       = flag.Bool("cpu", false, "regenerate the Section 7 CPU-utilisation observation")
		all       = flag.Bool("all", false, "run every experiment")
		fast      = flag.Bool("fast", false, "use a zero-delay network instead of the paper-calibrated one")
		tcp       = flag.Bool("tcp", false, "run the Figure 2 experiments over real TCP-loopback sockets instead of the simulated LAN")
		unbatched = flag.Bool("unbatched", false, "disable transport packet coalescing in the Figure 2 throughput run (ablation)")
	)
	flag.Parse()
	if !*table1 && !*figure2 && !*figure3 && !*twenty && !*cpu {
		*all = true
	}
	netCfg := simnet.PaperConfig()
	if *fast {
		netCfg = simnet.FastConfig()
	}
	fig2Net := bench.SimChoice(netCfg)
	if *tcp {
		fig2Net = bench.TCPChoice()
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "isis-bench:", err)
		os.Exit(1)
	}

	if *all || *table1 {
		fmt.Println("== Table 1: multicast overhead for selected tools ==")
		rows, err := bench.RunTable1()
		if err != nil {
			fail(err)
		}
		fmt.Print(bench.FormatTable1(rows))
		fmt.Println()
	}

	if *all || *figure2 {
		sizes := []int{10, 100, 1000, 10000}
		fmt.Println("== Figure 2 (top): asynchronous CBCAST throughput vs message size ==")
		if *tcp {
			fmt.Println("(backend: real TCP loopback — numbers measure this machine, not the paper's LAN)")
		}
		if *unbatched {
			fmt.Println("(transport packet coalescing DISABLED — ablation baseline)")
		}
		for _, dests := range []int{2, 4} {
			points, err := bench.RunFigure2ThroughputAblation(fig2Net, dests, sizes, 300*time.Millisecond, *unbatched)
			if err != nil {
				fail(err)
			}
			fmt.Print(bench.FormatFigure2(points))
		}
		fmt.Println()
		fmt.Println("== Figure 2 (latency panels): primitive latency vs message size, 1 local reply ==")
		for _, dests := range []int{2, 4} {
			var allPoints []bench.Fig2Point
			for _, proto := range []isis.Protocol{isis.CBCAST, isis.ABCAST, isis.GBCAST} {
				points, err := bench.RunFigure2Latency(fig2Net, proto, dests, sizes, 3)
				if err != nil {
					fail(err)
				}
				allPoints = append(allPoints, points...)
			}
			fmt.Print(bench.FormatFigure2(allPoints))
		}
		fmt.Println()
	}

	if *all || *figure3 {
		fmt.Println("== Figure 3: breakdown of ABCAST execution time ==")
		breakdown, err := bench.RunFigure3(netCfg, 3)
		if err != nil {
			fail(err)
		}
		fmt.Print(bench.FormatFigure3(breakdown))
		fmt.Println()
	}

	if *all || *twenty {
		fmt.Println("== Section 5: twenty-questions aggregate rates (4 sites) ==")
		res, err := bench.RunTwentyQuestions(netCfg, time.Second)
		if err != nil {
			fail(err)
		}
		fmt.Printf("queries:  %6.1f /s   (paper: ~30 /s)\n", res.QueriesPerSec)
		fmt.Printf("updates:  %6.1f /s   (paper: ~5 /s)\n", res.UpdatesPerSec)
		fmt.Println()
	}

	if *all || *cpu {
		fmt.Println("== Section 7: sender CPU utilisation ==")
		results, err := bench.RunSenderUtilization(netCfg, 500*time.Millisecond)
		if err != nil {
			fail(err)
		}
		for _, r := range results {
			fmt.Printf("%-40s %5.0f%%\n", r.Workload, 100*r.Utilization)
		}
		fmt.Println("(paper: 96-98% for asynchronous/local multicasts, 30-35% when waiting on remote sites)")
	}
}
