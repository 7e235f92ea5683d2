package isis_test

// The paper's evaluation as tests: Table 1, Figures 2 and 3, and Sections 5
// and 7. `go test` asserts the shapes that hold whatever the link delays are,
// on the zero-delay network; `go test -run Paper -v . -paper` runs them on the
// paper-calibrated network (16 ms inter-site links, 10 Mbit/s) and prints
// the tables too.

import (
	"flag"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	isis "repro"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/tools/config"
	"repro/internal/tools/coordcohort"
	"repro/internal/tools/news"
	"repro/internal/tools/replica"
	"repro/internal/tools/sema"
	"repro/internal/tools/statexfer"
	"repro/internal/transport"
)

var paper = flag.Bool("paper", false, "run the paper's tables and figures on the paper-calibrated network and print them")

// paperNet is the zero-delay network, or the paper-calibrated one under -paper.
func paperNet() simnet.Config {
	if *paper {
		return simnet.PaperConfig()
	}
	return simnet.FastConfig()
}

// must returns v, and panics on a set-up step's error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// settled returns read's value once it has not changed for quiet.
func settled[T comparable](quiet time.Duration, read func() T) T {
	for last := read(); ; {
		time.Sleep(quiet)
		now := read()
		if now == last {
			return now
		}
		last = now
	}
}

// cast sends m to gid's entry and fails the test if the cast fails.
func cast(t *testing.T, p *isis.Process, proto isis.Protocol, gid isis.Address, entry isis.EntryID, m *isis.Message, opts ...isis.CastOption) {
	t.Helper()
	if _, err := p.Cast(proto, []isis.Address{gid}, entry, m, opts...); err != nil {
		t.Fatal(err)
	}
}

// TestPaperTable1 counts one call of each routine of the paper's Table 1 in
// multicasts and point-to-point sends (replies), each at the site that starts
// it. The group is three members at sites 1-3, the client at site 4.
func TestPaperTable1(t *testing.T) {
	net := paperNet()
	c, members, gid := primitiveClusterTr(t, 3, isis.ClusterConfig{Sites: 4, Net: net})
	g := []isis.Address{gid}
	spawn := func(site isis.SiteID) *isis.Process { return must(c.Site(site).Spawn()) }
	client := spawn(4)
	must(client.Lookup("micro"))
	counters := func() [4]uint64 {
		k := c.Counters()
		return [4]uint64{k.CBCASTs, k.ABCASTs, k.GBCASTs, k.PointToPoints}
	}
	quiet := 10*time.Millisecond + 2*net.InterSiteDelay
	if *paper {
		fmt.Printf("== Table 1: multicast overhead for selected tools ==\n%-20s %-30s %6s %6s %6s %4s   %s\n",
			"Tool", "Operation", "CBCAST", "ABCAST", "GBCAST", "P2P", "Paper (Table 1)")
	}
	// row(...)(call()) counts call from the counters settled before it (Go
	// evaluates row(...) first) to those settled after, so an answer the call
	// does not wait for counts too, and returns the call's first result.
	row := func(tool, op, paperCost string, want [4]uint64) func(results ...any) any {
		before := settled(quiet, counters)
		return func(results ...any) any {
			t.Helper()
			if err, _ := results[len(results)-1].(error); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			expect, got := before, want
			for i := range want {
				expect[i] += want[i] // first wait for the counts the row expects
			}
			for deadline := time.Now().Add(5 * time.Second); counters() != expect && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			for i, n := range settled(quiet, counters) {
				got[i] = n - before[i]
			}
			if *paper {
				fmt.Printf("%-20s %-30s %6d %6d %6d %4d   %s\n", tool, op, got[0], got[1], got[2], got[3], paperCost)
			}
			if got != want {
				t.Errorf("%s costs %v CBCAST/ABCAST/GBCAST/P2P, want %v", op, got, want)
			}
			return results[0]
		}
	}

	row("group RPC", "bc_mcast(dests,msg,1 reply)", "multicast + collect replies", [4]uint64{1, 0, 0, 3})(
		client.Query(isis.CBCAST, g, isis.EntryUserBase, isis.Text("q")))
	row("group RPC", "reply(msg,answ)", "1 async CBCAST", [4]uint64{0, 0, 0, 1})(
		members[0].Cast(isis.CBCAST, []isis.Address{client.Address()}, isis.EntryUserBase, isis.Text("r")))
	temp := row("process groups", "pg_create", "1 local RPC", [4]uint64{})(members[0].CreateGroup("table1-temp")).(isis.View)
	row("process groups", "pg_lookup", "1 local RPC (+1 query when remote)", [4]uint64{})(client.Lookup("table1-temp"))
	joiner := spawn(2)
	row("process groups", "pg_join", "1 CBCAST, 1 pg_addmember, 1 reply (GBCAST here)", [4]uint64{0, 0, 1, 0})(
		joiner.Join(temp.Group, isis.JoinOptions{}))
	row("process groups", "pg_leave", "1 GBCAST", [4]uint64{0, 0, 1, 0})(joiner.Leave(temp.Group))

	must(0, statexfer.Provide(members[0], gid, 0, func() []byte { return []byte("state") }))
	xferJoiner := spawn(4)
	row("state transfer", "join_and_xfer", "1 GBCAST + transfer", [4]uint64{0, 0, 1, 0})(
		statexfer.JoinWithState(xferJoiner, gid, 5*time.Second, nil))
	must(0, xferJoiner.Leave(gid))

	plist := []isis.Address{members[0].Address(), members[1].Address(), members[2].Address()}
	for _, m := range members {
		tool := coordcohort.New(m, gid)
		m.BindEntry(isis.EntryUserBase+6, func(req *isis.Message) {
			tool.Handle(req, plist, func(*isis.Message) *isis.Message { return isis.Text("done") }, nil)
		})
	}
	row("coordinator-cohort", "coord_cohort(...)", "request + reply + cohort copy", [4]uint64{1, 0, 0, 2})(
		client.Query(isis.CBCAST, g, isis.EntryUserBase+6, isis.Text("work")))

	items := make([]*replica.Item, len(members))
	for i, m := range members {
		var v atomic.Int64 // ReadLocal reads on the caller's goroutine, beside the update handler
		items[i] = replica.Manage(m, gid, "bench-item",
			func(args *isis.Message) { v.Add(args.GetInt("d", 0)) },
			func(*isis.Message) *isis.Message { return isis.NewMessage().PutInt("v", v.Load()) },
			replica.Options{Mode: replica.Causal, Entry: isis.EntryUserBase + 7})
	}
	rc := replica.NewClient(client, gid, "bench-item", isis.EntryUserBase+7, replica.Causal)
	row("replicated data", "update (async mode)", "1 async CBCAST or 1 ABCAST", [4]uint64{1, 0, 0, 0})(
		items[0].Update(isis.NewMessage().PutInt("d", 1)))
	row("replicated data", "read (by manager)", "no cost", [4]uint64{})(items[0].ReadLocal(isis.NewMessage()))
	row("replicated data", "read (by other client)", "CBCAST + 1 reply", [4]uint64{1, 0, 0, 3})(rc.Read(isis.NewMessage()))

	for _, m := range members {
		sema.NewManager(m, gid, "bench-sem", sema.Options{Entry: isis.EntryUserBase + 8})
	}
	sc := sema.NewClient(client, gid, "bench-sem", isis.EntryUserBase+8)
	row("synchronization", "P(gid,name)", "1 ABCAST, replies", [4]uint64{0, 1, 0, 3})(sc.P())
	row("synchronization", "V(gid,name)", "1 async CBCAST (ABCAST here)", [4]uint64{0, 1, 0, 0})(sc.V())

	cfg := config.New(members[0], gid)
	config.New(members[1], gid)
	config.New(members[2], gid)
	row("configuration", "conf_update(item,value)", "1 GBCAST", [4]uint64{0, 0, 1, 0})(cfg.Update("k", []byte("v")))
	row("configuration", "conf_read(item)", "no cost", [4]uint64{})(cfg.Read("k"))

	must(news.StartServer(spawn(1)))
	sub := must(news.NewClient(client))
	row("news", "subscribe(subject)", "1 local RPC per posting (enrol: 1 mcast)", [4]uint64{0, 1, 0, 0})(
		sub.Subscribe("bench", func(news.Posting) {}))
	row("news", "post_news(subject)", "1 async CBCAST or ABCAST", [4]uint64{0, 1, 0, 1})(sub.Post("bench", "hello", nil))
}

// criticalPath is the number of inter-site frames on the longest chain
// delivered to site by when, each frame of a chain sent from the site the one
// before it was delivered to, after that delivery. The events, in the order
// they were traced, start on quiet links; a link is FIFO.
func criticalPath(events []simnet.Event, site simnet.SiteID, when time.Time) int {
	depth := make(map[simnet.SiteID]int)         // the longest chain delivered to a site yet
	inFlight := make(map[[2]simnet.SiteID][]int) // the chains the frames on a link end
	for _, e := range events {
		link := [2]simnet.SiteID{e.From, e.To}
		switch {
		case e.From == e.To || e.When.After(when):
		case e.Kind == simnet.EventSend:
			inFlight[link] = append(inFlight[link], depth[e.From]+1)
		case e.Kind == simnet.EventDeliver:
			depth[e.To] = max(depth[e.To], inFlight[link][0])
			inFlight[link] = inFlight[link][1:]
		}
	}
	return depth[site]
}

// TestPaperFigure3 reads an ABCAST's critical path off the wire: the member at
// site 1, the view's oldest, stamps its cast itself and waits for both
// replies. The remote delivery is one frame away and the reply two; the
// paper's two-phase protocol put three before the remote delivery.
func TestPaperFigure3(t *testing.T) {
	net := paperNet()
	c, procs, gid := primitiveClusterTr(t, 2, isis.ClusterConfig{Net: net})
	delivered := make(chan time.Time, 1)
	for i, p := range procs {
		p.BindEntry(isis.EntryUserBase+1, func(m *isis.Message) {
			if i == 1 {
				delivered <- time.Now()
			}
			_ = p.Reply(m, isis.NewMessage())
		})
	}
	rec := simnet.NewRecorder()
	c.Fabric().(*simnet.Network).SetTracer(rec)

	const iters = 8
	quiet := 20*time.Millisecond + 2*net.InterSiteDelay // past an owed ack's delay and its trip
	var toDelivery, toReply, sends time.Duration
	settled(quiet, func() int { return len(rec.Events()) })
	for range iters {
		rec.Reset()
		start := time.Now()
		cast(t, procs[0], isis.ABCAST, gid, isis.EntryUserBase+1, isis.NewMessage().PutBytes("data", make([]byte, 100)), isis.Replies(isis.All))
		end, remote := time.Now(), <-delivered
		settled(quiet, func() int { return len(rec.Events()) }) // the next cast starts on quiet links too
		events := rec.Events()
		if d, r := criticalPath(events, 2, remote), criticalPath(events, 1, end); d != 1 || r != 2 {
			t.Fatalf("the critical path is %d frames to the remote delivery and %d to the reply, want 1 and 2", d, r)
		}
		toDelivery, toReply, sends = toDelivery+remote.Sub(start), toReply+end.Sub(start), sends+time.Duration(rec.CountKind(simnet.EventSend))
	}
	if *paper {
		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		fmt.Printf("== Figure 3: ABCAST to 1 remote member, paper-calibrated network, mean of %d ==\n%-24s %8s %7s %10s %10s %12s\n",
			iters, "", "total", "frames", "link", "intra-site", "processing")
		for i, total := range []time.Duration{toDelivery / iters, toReply / iters} {
			link := time.Duration(i+1) * net.InterSiteDelay
			fmt.Printf("%-24s %5.1f ms %7d %7.1f ms %7.3f ms %9.1f ms\n", []string{"to the remote delivery", "to the reply"}[i],
				ms(total), i+1, ms(link), ms(net.IntraSiteDelay), ms(total-link-net.IntraSiteDelay))
		}
		fmt.Printf("inter-site frames a cast: %.1f (paper: 3 before the remote delivery, ~70 ms)\n\n", float64(sends)/iters)
	}
}

// dataFrames counts the frames with records c's backend puts between sites
// from now on: on simnet all but the bare acks (transport frame kind 2), read
// off a recorder; on TCP, which tells no frame by its kind, every frame.
func dataFrames(c *isis.Cluster) func() int {
	if tcp, ok := c.Fabric().(*tcpnet.Network); ok {
		return func() int { return int(tcp.Stats().FramesSent) }
	}
	rec := simnet.NewRecorder()
	c.Fabric().(*simnet.Network).SetTracer(rec)
	return func() (n int) {
		for _, e := range rec.Events() {
			if e.Kind == simnet.EventSend && e.From != e.To && e.First != 2 {
				n++
			}
		}
		return n
	}
}

// TestPaperFigure2 streams 100 asynchronous CBCASTs from site 1 to two more
// sites, coalescing on and off, on both backends. Unbatched costs at least a
// frame a message a destination site; batched, less at 10 B, and never more
// at 10 KB on simnet, whose 4 KB frames split a message. A 10 KB message fills
// a 16 KB TCP frame alone either way, so there the two differ only by bare
// acks, which TCP counts: that pair is only logged. Under -paper it prints
// the panels (4 destination sites too): how fast Cast takes asynchronous
// CBCASTs over 300 ms, and a cast's mean latency to its first (local) reply.
func TestPaperFigure2(t *testing.T) {
	sizes, fanouts, runs := []int{10, 10000}, []int{2}, 2
	if *paper {
		sizes, fanouts, runs = []int{10, 100, 1000, 10000}, []int{2, 4}, 7
	}
	for _, backend := range []string{isis.BackendSimnet, isis.BackendTCP} {
		t.Run(backend, func(t *testing.T) {
			cfg := isis.ClusterConfig{Backend: backend, Net: paperNet(), CallTimeout: 20 * time.Second, ReplyTimeout: 30 * time.Second}
			if *paper {
				fmt.Printf("== Figure 2 on %s: async CBCAST throughput (B/s), latency to 1 local reply (ms) ==\n%5s %7s %11s %14s %14s %8s %8s %8s\n",
					backend, "dests", "size(B)", "frames b/u", "batched", "unbatched", "CBCAST", "ABCAST", "GBCAST")
			}
			for _, dests := range fanouts {
				// Runs 0 and 1 count frames batched and unbatched; under -paper 2
				// and 3 time the same streams, 4 to 6 each primitive's latency.
				var perMsg [2][]float64 // [unbatched][size]: frames a message a destination site
				var col [5][]float64    // [run-2][size]
				for run := range runs {
					// A retransmission is loss recovery, not the cost counted, and on a
					// loaded machine the 20 ms default resends bursts merely acked late.
					cfg.Transport = transport.Config{DisableBatching: run == 1 || run == 3}
					if run < 2 {
						cfg.Transport.RetransmitInterval, cfg.Transport.AckDelay = time.Second, 5*time.Millisecond
					}
					c, procs, gid := primitiveClusterTr(t, dests+1, cfg)
					frames := dataFrames(c)
					for _, size := range sizes {
						payload := isis.NewMessage().PutBytes("data", make([]byte, size))
						casts, before, start := 0, frames(), time.Now()
						switch {
						case run < 2:
							for ; casts < 100; casts++ {
								cast(t, procs[0], isis.CBCAST, gid, isis.EntryUserBase, payload)
							}
							must(0, procs[0].Flush()) // then the acks the flush does not wait for
							perMsg[run] = append(perMsg[run], float64(settled(30*time.Millisecond, frames)-before)/100/float64(dests))
						case run < 4:
							for ; time.Since(start) < 300*time.Millisecond; casts++ {
								cast(t, procs[0], isis.CBCAST, gid, isis.EntryUserBase, payload)
							}
							col[run-2] = append(col[run-2], float64(casts*size)/time.Since(start).Seconds())
						default:
							for ; casts < 3; casts++ {
								cast(t, procs[0], []isis.Protocol{isis.CBCAST, isis.ABCAST, isis.GBCAST}[run-4], gid, isis.EntryUserBase, payload, isis.Replies(1))
							}
							col[run-2] = append(col[run-2], float64(time.Since(start).Microseconds())/3000)
						}
					}
					c.Close() // the network first: a flood's backlog is dropped, not drained
				}
				for s, size := range sizes {
					batched, unbatched := perMsg[0][s], perMsg[1][s]
					if unbatched < 1 || (size == 10 && batched >= unbatched) || (size == 10000 && backend == isis.BackendSimnet && batched > unbatched) {
						t.Errorf("%d B: %.3f frames a message a destination site batched, %.3f unbatched", size, batched, unbatched)
					}
					if *paper {
						fmt.Printf("%5d %7d %5.2f/%5.2f %14.0f %14.0f %8.2f %8.2f %8.2f\n", dests, size, batched, unbatched, col[0][s], col[1][s], col[2][s], col[3][s], col[4][s])
					} else {
						t.Logf("%d B: %.3f frames a message a destination site batched, %.3f unbatched", size, batched, unbatched)
					}
				}
			}
		})
	}
}

// TestPaperSections5And7 prints, under -paper, Section 5's twenty-questions
// rates (members at 4 sites, a query a CBCAST one member answers, an update a
// GBCAST) and Section 7's busy share of a sending site.
func TestPaperSections5And7(t *testing.T) {
	if !*paper {
		t.Skip("prints the paper-network rates; run with -paper")
	}
	cfg := isis.ClusterConfig{Net: paperNet(), CallTimeout: 20 * time.Second, ReplyTimeout: 30 * time.Second}
	c, procs, gid := primitiveClusterTr(t, 4, cfg)
	for _, p := range procs {
		p.BindEntry(isis.EntryUserBase+2, func(m *isis.Message) {
			if view, _ := p.CurrentView(gid); view.RankOf(p.Address()) == int(m.GetInt("col", 0))%4 {
				_ = p.Reply(m, isis.Text("yes"))
			} else if m.Has("@session") { // an update carries none
				_ = p.NullReply(m)
			}
		})
	}
	client := must(c.Site(1).Spawn())
	must(client.Lookup("micro"))
	// rate runs op for window and returns how many it ran a second.
	rate := func(window time.Duration, op func(i int)) float64 {
		n, start := 0, time.Now()
		for ; time.Since(start) < window; n++ {
			op(n)
		}
		return float64(n) / time.Since(start).Seconds()
	}
	fmt.Printf("== Section 5: twenty-questions aggregate rates (4 sites) ==\nqueries: %6.1f /s   (paper: ~30 /s)\n", rate(time.Second, func(i int) {
		cast(t, client, isis.CBCAST, gid, isis.EntryUserBase+2, isis.NewMessage().PutInt("col", int64(i%6)), isis.Replies(1))
	}))
	fmt.Printf("updates: %6.1f /s   (paper: ~5 /s)\n\n== Section 7: sender CPU utilisation ==\n", rate(time.Second, func(int) {
		cast(t, client, isis.GBCAST, gid, isis.EntryUserBase+2, isis.NewMessage().PutString("row", "car gray suv 30000 Generic X"))
	}))
	c.Close()
	payload := isis.NewMessage().PutBytes("data", make([]byte, 1000))
	for _, w := range []struct {
		name    string
		proto   isis.Protocol
		replies int // 0: asynchronous
	}{{"asynchronous CBCAST", isis.CBCAST, 0}, {"ABCAST, wait for remote replies", isis.ABCAST, isis.All}} {
		c, procs, gid := primitiveClusterTr(t, 3, cfg)
		sim := c.Fabric().(*simnet.Network)
		sim.ResetStats()
		start := time.Now()
		rate(500*time.Millisecond, func(int) { cast(t, procs[0], w.proto, gid, isis.EntryUserBase, payload, isis.Replies(w.replies)) })
		// Background transmissions still queued can over-account, hence the cap.
		fmt.Printf("%-40s %5.0f%%\n", w.name, 100*min(1, float64(sim.BusyTime(1))/float64(time.Since(start))))
		c.Close()
	}
	fmt.Println("(paper: 96-98% for asynchronous/local multicasts, 30-35% when waiting on remote sites)")
}
