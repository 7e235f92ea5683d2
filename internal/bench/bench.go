package bench

import (
	"fmt"
	"time"

	isis "repro"
	"repro/internal/simnet"
	"repro/internal/tools/config"
	"repro/internal/tools/coordcohort"
	"repro/internal/tools/news"
	"repro/internal/tools/replica"
	"repro/internal/tools/sema"
	"repro/internal/tools/statexfer"
	"repro/internal/transport"
)

// entry points used by the harness services.
const (
	entryEcho = isis.EntryUserBase
	entryCC   = isis.EntryUserBase + 6
)

// ---------------------------------------------------------------------------
// Table 1 — multicast overhead for selected tools

// Table1Row reports the protocol cost of one toolkit operation, counted in
// multicasts of each kind (plus point-to-point sends, which is how replies
// are realised).
type Table1Row struct {
	Tool      string
	Operation string
	CBCASTs   uint64
	ABCASTs   uint64
	GBCASTs   uint64
	P2P       uint64
	PaperCost string // what Table 1 of the paper quotes for the same routine
}

// table1Env is the little world the Table 1 measurements run in: a
// three-site cluster with a three-member echo service and one client.
type table1Env struct {
	cluster *isis.Cluster
	members []*isis.Process
	gid     isis.Address
	client  *isis.Process
}

func newTable1Env() (*table1Env, error) {
	cluster, err := isis.NewCluster(isis.ClusterConfig{Sites: 4, CallTimeout: 5 * time.Second, ReplyTimeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	env := &table1Env{cluster: cluster}
	for i := 0; i < 3; i++ {
		p, err := cluster.Site(isis.SiteID(i + 1)).Spawn()
		if err != nil {
			cluster.Close()
			return nil, err
		}
		p.BindEntry(entryEcho, func(m *isis.Message) {
			if m.Has("@session") {
				_ = p.Reply(m, isis.Text("ok"))
			}
		})
		env.members = append(env.members, p)
		if i == 0 {
			v, err := p.CreateGroup("table1")
			if err != nil {
				cluster.Close()
				return nil, err
			}
			env.gid = v.Group
		} else {
			if _, err := p.JoinByName("table1", isis.JoinOptions{}); err != nil {
				cluster.Close()
				return nil, err
			}
		}
	}
	client, err := cluster.Site(4).Spawn()
	if err != nil {
		cluster.Close()
		return nil, err
	}
	if _, err := client.Lookup("table1"); err != nil {
		cluster.Close()
		return nil, err
	}
	env.client = client
	return env, nil
}

// measure runs op and returns the change in the cluster-wide counters,
// attributing only protocol initiations (each multicast is counted once, at
// the site that initiated it).
func (e *table1Env) measure(op func() error) (isis.Counters, error) {
	// Let in-flight background work settle so it is not attributed to op.
	time.Sleep(20 * time.Millisecond)
	before := e.cluster.Counters()
	if err := op(); err != nil {
		return isis.Counters{}, err
	}
	time.Sleep(50 * time.Millisecond)
	after := e.cluster.Counters()
	return isis.Counters{
		CBCASTs:       after.CBCASTs - before.CBCASTs,
		ABCASTs:       after.ABCASTs - before.ABCASTs,
		GBCASTs:       after.GBCASTs - before.GBCASTs,
		PointToPoints: after.PointToPoints - before.PointToPoints,
	}, nil
}

// RunTable1 exercises one call of each toolkit routine listed in Table 1 of
// the paper and reports its measured multicast cost.
func RunTable1() ([]Table1Row, error) {
	env, err := newTable1Env()
	if err != nil {
		return nil, err
	}
	defer env.cluster.Close()

	var rows []Table1Row
	var failed error
	// row measures one routine and adds its line to the table. The first
	// routine that fails ends the table: the rows after it are skipped and
	// RunTable1 returns the error, naming the row — a failed call has no
	// counters, and a row of zeros would read as "no cost".
	row := func(tool, op, paper string, call func() error) {
		if failed != nil {
			return
		}
		c, err := env.measure(call)
		if err != nil {
			failed = fmt.Errorf("bench: table 1 row %q: %w", op, err)
			return
		}
		rows = append(rows, Table1Row{Tool: tool, Operation: op,
			CBCASTs: c.CBCASTs, ABCASTs: c.ABCASTs, GBCASTs: c.GBCASTs, P2P: c.PointToPoints,
			PaperCost: paper})
	}
	// setup runs a preparation step no row measures, under the same rule: the
	// first that fails ends the table, and the error names the step.
	setup := func(step string, do func() error) {
		if failed != nil {
			return
		}
		if err := do(); err != nil {
			failed = fmt.Errorf("bench: table 1 set-up %q: %w", step, err)
		}
	}

	// Group RPC: bc_mcast collecting one reply; the reply itself.
	row("group RPC", "bc_mcast(dests,msg,1 reply)", "multicast + collect replies", func() error {
		_, err := env.client.Query(isis.CBCAST, []isis.Address{env.gid}, entryEcho, isis.Text("q"))
		return err
	})
	row("group RPC", "reply(msg,answ)", "1 async CBCAST", func() error {
		_, err := env.members[0].Cast(isis.CBCAST, []isis.Address{env.client.Address()}, entryEcho, isis.Text("r"))
		return err
	})

	// Process groups.
	var tempGid isis.Address
	row("process groups", "pg_create", "1 local RPC", func() error {
		v, err := env.members[0].CreateGroup("table1-temp")
		tempGid = v.Group
		return err
	})
	row("process groups", "pg_lookup", "1 local RPC (+1 query when remote)", func() error {
		_, err := env.client.Lookup("table1-temp")
		return err
	})
	var joiner, xferJoiner, newsHost *isis.Process
	setup("spawn the joiner", func() (err error) { joiner, err = env.cluster.Site(2).Spawn(); return })
	row("process groups", "pg_join", "1 CBCAST, 1 pg_addmember, 1 reply (GBCAST here)", func() error {
		_, err := joiner.Join(tempGid, isis.JoinOptions{})
		return err
	})
	row("process groups", "pg_leave", "1 GBCAST", func() error { return joiner.Leave(tempGid) })

	// State transfer: join_and_xfer.
	setup("statexfer.Provide", func() error {
		return statexfer.Provide(env.members[0], env.gid, 0, func() []byte { return []byte("state") })
	})
	setup("spawn the state-transfer joiner", func() (err error) { xferJoiner, err = env.cluster.Site(4).Spawn(); return })
	row("state transfer", "join_and_xfer", "1 GBCAST + transfer", func() error {
		_, err := statexfer.JoinWithState(xferJoiner, env.gid, 5*time.Second, nil)
		return err
	})
	setup("the state-transfer joiner leaves", func() error { return xferJoiner.Leave(env.gid) })
	time.Sleep(50 * time.Millisecond)

	// Coordinator-cohort.
	plist := []isis.Address{env.members[0].Address(), env.members[1].Address(), env.members[2].Address()}
	for _, m := range env.members {
		m := m
		tool := coordcohort.New(m, env.gid)
		m.BindEntry(entryCC, func(req *isis.Message) {
			tool.Handle(req, plist, func(*isis.Message) *isis.Message { return isis.Text("done") }, nil)
		})
	}
	row("coordinator-cohort", "coord_cohort(...)", "request + reply + cohort copy", func() error {
		_, err := env.client.Query(isis.CBCAST, []isis.Address{env.gid}, entryCC, isis.Text("work"))
		return err
	})

	// Replicated data.
	items := make([]*replica.Item, len(env.members))
	for i, m := range env.members {
		var v int64
		items[i] = replica.Manage(m, env.gid, "bench-item",
			func(args *isis.Message) { v += args.GetInt("d", 0) },
			func(*isis.Message) *isis.Message { return isis.NewMessage().PutInt("v", v) },
			replica.Options{Mode: replica.Causal, Entry: isis.EntryUserBase + 7})
	}
	row("replicated data", "update (async mode)", "1 async CBCAST or 1 ABCAST",
		func() error { return items[0].Update(isis.NewMessage().PutInt("d", 1)) })
	row("replicated data", "read (by manager)", "no cost",
		func() error { _, err := items[0].ReadLocal(isis.NewMessage()); return err })
	rc := replica.NewClient(env.client, env.gid, "bench-item", isis.EntryUserBase+7, replica.Causal)
	row("replicated data", "read (by other client)", "CBCAST + 1 reply",
		func() error { _, err := rc.Read(isis.NewMessage()); return err })

	// Synchronization (replicated semaphore).
	for _, m := range env.members {
		sema.NewManager(m, env.gid, "bench-sem", sema.Options{Entry: isis.EntryUserBase + 8})
	}
	sc := sema.NewClient(env.client, env.gid, "bench-sem", isis.EntryUserBase+8)
	row("synchronization", "P(gid,name)", "1 ABCAST, replies", sc.P)
	row("synchronization", "V(gid,name)", "1 async CBCAST (ABCAST here)", sc.V)

	// Configuration tool.
	cfgTools := make([]*config.Tool, len(env.members))
	for i, m := range env.members {
		cfgTools[i] = config.New(m, env.gid)
	}
	row("configuration", "conf_update(item,value)", "1 GBCAST",
		func() error { return cfgTools[0].Update("k", []byte("v")) })
	row("configuration", "conf_read(item)", "no cost", func() error { cfgTools[0].Read("k"); return nil })

	// News service.
	var sub *news.Client
	setup("spawn the news host", func() (err error) { newsHost, err = env.cluster.Site(1).Spawn(); return })
	setup("news.StartServer", func() error { _, err := news.StartServer(newsHost); return err })
	setup("news.NewClient", func() (err error) { sub, err = news.NewClient(env.client); return })
	row("news", "subscribe(subject)", "1 local RPC per posting (enrol: 1 mcast)",
		func() error { return sub.Subscribe("bench", func(news.Posting) {}) })
	row("news", "post_news(subject)", "1 async CBCAST or ABCAST",
		func() error { return sub.Post("bench", "hello", nil) })

	return rows, failed
}

// FormatTable1 renders the rows as a text table.
func FormatTable1(rows []Table1Row) string {
	s := fmt.Sprintf("%-20s %-32s %8s %8s %8s %8s   %s\n", "Tool", "Operation", "CBCAST", "ABCAST", "GBCAST", "P2P", "Paper (Table 1)")
	for _, r := range rows {
		s += fmt.Sprintf("%-20s %-32s %8d %8d %8d %8d   %s\n",
			r.Tool, r.Operation, r.CBCASTs, r.ABCASTs, r.GBCASTs, r.P2P, r.PaperCost)
	}
	return s
}

// ---------------------------------------------------------------------------
// Figure 2 — throughput and latency versus message size

// Fig2Point is one data point of Figure 2.
type Fig2Point struct {
	Primitive  string
	Dests      int
	SizeBytes  int
	LatencyMs  float64 // mean latency until the first (local-site) reply
	Throughput float64 // bytes/second, asynchronous-CBCAST panel only
}

// NetChoice selects the fabric a Figure 2 run measures: the simulated LAN
// with its calibrated delays (the default), or the real TCP-loopback wire,
// whose latencies are whatever the kernel delivers. Results from the two
// backends are different experiments and must never be compared as if they
// were the same hardware.
type NetChoice struct {
	// Backend is isis.BackendSimnet (also selected by "") or isis.BackendTCP.
	Backend string
	// Sim parameterizes the simulated LAN; ignored under BackendTCP.
	Sim simnet.Config
}

// SimChoice wraps a simulated-LAN configuration in a NetChoice.
func SimChoice(cfg simnet.Config) NetChoice { return NetChoice{Sim: cfg} }

// TCPChoice selects the TCP-loopback backend.
func TCPChoice() NetChoice { return NetChoice{Backend: isis.BackendTCP} }

// fig2Env builds a group with one member per destination site plus a sender
// member at site 1.
type fig2Env struct {
	cluster *isis.Cluster
	sender  *isis.Process
	gid     isis.Address
}

func newFig2Env(nc NetChoice, dests int, trCfg transport.Config) (*fig2Env, error) {
	cluster, err := isis.NewCluster(isis.ClusterConfig{
		Sites: dests + 1, Backend: nc.Backend, Net: nc.Sim, Transport: trCfg,
		CallTimeout: 20 * time.Second, ReplyTimeout: 30 * time.Second,
		DisableHeartbeats: true,
	})
	if err != nil {
		return nil, err
	}
	env := &fig2Env{cluster: cluster}
	for i := 0; i <= dests; i++ {
		p, err := cluster.Site(isis.SiteID(i + 1)).Spawn()
		if err != nil {
			cluster.Close()
			return nil, err
		}
		p.BindEntry(entryEcho, func(m *isis.Message) {
			if m.Has("@session") {
				_ = p.Reply(m, isis.NewMessage())
			}
		})
		if i == 0 {
			v, err := p.CreateGroup("fig2")
			if err != nil {
				cluster.Close()
				return nil, err
			}
			env.gid = v.Group
			env.sender = p
		} else {
			if _, err := p.JoinByName("fig2", isis.JoinOptions{}); err != nil {
				cluster.Close()
				return nil, err
			}
		}
	}
	time.Sleep(100 * time.Millisecond)
	return env, nil
}

// RunFigure2Latency measures the latency of one primitive: the delay between
// invoking it and receiving one reply from a local destination (the sender
// itself is a member, as in the paper's setup).
func RunFigure2Latency(nc NetChoice, primitive isis.Protocol, dests int, sizes []int, iters int) ([]Fig2Point, error) {
	env, err := newFig2Env(nc, dests, transport.Config{})
	if err != nil {
		return nil, err
	}
	defer env.cluster.Close()

	var out []Fig2Point
	for _, size := range sizes {
		payload := isis.NewMessage().PutBytes("data", make([]byte, size))
		var total time.Duration
		for i := 0; i < iters; i++ {
			start := time.Now()
			if _, err := env.sender.Cast(primitive, []isis.Address{env.gid}, entryEcho, payload, isis.Replies(1)); err != nil {
				return nil, fmt.Errorf("%v size %d: %w", primitive, size, err)
			}
			total += time.Since(start)
		}
		out = append(out, Fig2Point{
			Primitive: primitive.String(), Dests: dests, SizeBytes: size,
			// Microsecond resolution: the TCP-loopback backend's latencies
			// sit well under a millisecond and would otherwise round to 0.
			LatencyMs: float64(total.Microseconds()) / 1000 / float64(iters),
		})
	}
	return out, nil
}

// RunFigure2ThroughputAblation measures asynchronous CBCAST throughput in
// payload bytes per second: the sender never waits for replies. The
// transport's packet coalescing is optionally disabled, so the batching win
// on the Figure 2 panel stays measurable.
func RunFigure2ThroughputAblation(nc NetChoice, dests int, sizes []int, perSize time.Duration, unbatched bool) ([]Fig2Point, error) {
	env, err := newFig2Env(nc, dests, transport.Config{DisableBatching: unbatched})
	if err != nil {
		return nil, err
	}
	defer env.cluster.Close()

	var out []Fig2Point
	for _, size := range sizes {
		payload := isis.NewMessage().PutBytes("data", make([]byte, size))
		start := time.Now()
		var bytesSent int64
		for time.Since(start) < perSize {
			if _, err := env.sender.Cast(isis.CBCAST, []isis.Address{env.gid}, entryEcho, payload); err != nil {
				return nil, err
			}
			bytesSent += int64(size)
		}
		elapsed := time.Since(start).Seconds()
		out = append(out, Fig2Point{
			Primitive: "async CBCAST", Dests: dests, SizeBytes: size,
			Throughput: float64(bytesSent) / elapsed,
		})
	}
	return out, nil
}

// FormatFigure2 renders figure-2 points.
func FormatFigure2(points []Fig2Point) string {
	s := fmt.Sprintf("%-14s %6s %10s %14s %16s\n", "primitive", "dests", "size(B)", "latency(ms)", "throughput(B/s)")
	for _, p := range points {
		lat, thr := "", ""
		if p.LatencyMs > 0 {
			lat = fmt.Sprintf("%.2f", p.LatencyMs)
		}
		if p.Throughput > 0 {
			thr = fmt.Sprintf("%.0f", p.Throughput)
		}
		s += fmt.Sprintf("%-14s %6d %10d %14s %16s\n", p.Primitive, p.Dests, p.SizeBytes, lat, thr)
	}
	return s
}

// ---------------------------------------------------------------------------
// Figure 3 — breakdown of ABCAST execution time

// Fig3Breakdown decomposes the latency of one ABCAST to a remote
// destination, as Figure 3 of the paper does. There the dominant component is
// the three inter-site packet traversals of the two-phase protocol; here the
// sender's site stamps the cast (it hosts the view's oldest member), so one
// traversal precedes the remote delivery.
type Fig3Breakdown struct {
	TotalMs          float64
	InterSitePackets int
	InterSiteLinkMs  float64 // packets on the critical path × link delay
	IntraSiteLinkMs  float64
	ProcessingMs     float64 // everything not accounted to link traversal
	CriticalPackets  int     // inter-site messages on the latency-critical path
}

// RunFigure3 performs one ABCAST from a member at site 1 to a group whose
// other member is at site 2, using the paper-calibrated network, and
// decomposes the observed latency.
func RunFigure3(netCfg simnet.Config, iters int) (Fig3Breakdown, error) {
	env, err := newFig2Env(SimChoice(netCfg), 1, transport.Config{})
	if err != nil {
		return Fig3Breakdown{}, err
	}
	defer env.cluster.Close()

	rec := simnet.NewRecorder()
	sim, ok := env.cluster.Fabric().(*simnet.Network)
	if !ok {
		return Fig3Breakdown{}, fmt.Errorf("bench: figure-3 run requires the simnet backend")
	}
	sim.SetTracer(rec)

	var total time.Duration
	payload := isis.NewMessage().PutBytes("data", make([]byte, 100))
	for i := 0; i < iters; i++ {
		start := time.Now()
		// Wait for the remote member's reply so the measured interval covers
		// delivery at the remote destination.
		if _, err := env.sender.Cast(isis.ABCAST, []isis.Address{env.gid}, entryEcho, payload, isis.Replies(isis.All)); err != nil {
			return Fig3Breakdown{}, err
		}
		total += time.Since(start)
	}
	events := rec.Events()
	inter := 0
	for _, e := range events {
		if e.Kind == simnet.EventSend && e.From != e.To {
			inter++
		}
	}
	interPerCast := inter / iters
	// The sender's site is the view's holder, so the latency-critical path to
	// the remote delivery is the stamped data packet alone (the paper's
	// two-phase path is data -> propose -> commit, 3 traversals); the remote
	// member's reply and the acks follow it.
	critical := 1
	linkMs := float64(critical) * float64(netCfg.InterSiteDelay.Milliseconds())
	totalMs := float64(total.Milliseconds()) / float64(iters)
	intraMs := float64(netCfg.IntraSiteDelay.Milliseconds())
	processing := totalMs - linkMs - intraMs
	if processing < 0 {
		processing = 0
	}
	return Fig3Breakdown{
		TotalMs:          totalMs,
		InterSitePackets: interPerCast,
		CriticalPackets:  critical,
		InterSiteLinkMs:  linkMs,
		IntraSiteLinkMs:  intraMs,
		ProcessingMs:     processing,
	}, nil
}

// FormatFigure3 renders the breakdown.
func FormatFigure3(b Fig3Breakdown) string {
	return fmt.Sprintf(
		"ABCAST latency breakdown (1 remote destination, paper-calibrated network)\n"+
			"  total latency          : %8.1f ms   (paper: ~70 ms before remote delivery)\n"+
			"  inter-site packets/cast: %8d      (critical path: %d, paper: 3)\n"+
			"  inter-site link time   : %8.1f ms   (critical path x %s)\n"+
			"  intra-site link time   : %8.3f ms\n"+
			"  protocol processing    : %8.1f ms\n",
		b.TotalMs, b.InterSitePackets, b.CriticalPackets, b.InterSiteLinkMs,
		"16ms", b.IntraSiteLinkMs, b.ProcessingMs)
}

// ---------------------------------------------------------------------------
// Section 5 — twenty-questions end-to-end throughput

// TwentyResult reports the aggregate service rates of the twenty-questions
// configuration of Section 5: members at 4 sites, queries are CBCAST with
// one reply, updates are GBCAST to every member.
type TwentyResult struct {
	QueriesPerSec float64
	UpdatesPerSec float64
}

// RunTwentyQuestions measures both rates over the given measurement window.
func RunTwentyQuestions(netCfg simnet.Config, window time.Duration) (TwentyResult, error) {
	cluster, err := isis.NewCluster(isis.ClusterConfig{
		Sites: 4, Net: netCfg, CallTimeout: 20 * time.Second, ReplyTimeout: 30 * time.Second,
		DisableHeartbeats: true,
	})
	if err != nil {
		return TwentyResult{}, err
	}
	defer cluster.Close()

	var gid isis.Address
	for i := 0; i < 4; i++ {
		p, err := cluster.Site(isis.SiteID(i + 1)).Spawn()
		if err != nil {
			return TwentyResult{}, err
		}
		p.BindEntry(entryEcho, func(m *isis.Message) {
			view, _ := p.CurrentView(gid)
			rank := view.RankOf(p.Address())
			switch {
			case m.GetString("kind", "") == "update":
				// updates carry no reply
			case rank == int(m.GetInt("col", 0))%4:
				_ = p.Reply(m, isis.Text("yes"))
			default:
				_ = p.NullReply(m)
			}
		})
		if i == 0 {
			v, err := p.CreateGroup("twenty-bench")
			if err != nil {
				return TwentyResult{}, err
			}
			gid = v.Group
		} else {
			if _, err := p.JoinByName("twenty-bench", isis.JoinOptions{}); err != nil {
				return TwentyResult{}, err
			}
		}
	}
	client, err := cluster.Site(1).Spawn()
	if err != nil {
		return TwentyResult{}, err
	}
	if _, err := client.Lookup("twenty-bench"); err != nil {
		return TwentyResult{}, err
	}
	time.Sleep(100 * time.Millisecond)

	// Queries.
	queries := 0
	start := time.Now()
	for time.Since(start) < window {
		q := isis.NewMessage().PutInt("col", int64(queries%6))
		if _, err := client.Cast(isis.CBCAST, []isis.Address{gid}, entryEcho, q, isis.Replies(1)); err != nil {
			return TwentyResult{}, err
		}
		queries++
	}
	qRate := float64(queries) / time.Since(start).Seconds()

	// Updates (GBCAST).
	updates := 0
	start = time.Now()
	for time.Since(start) < window {
		u := isis.NewMessage().PutString("kind", "update").PutString("row", "car gray suv 30000 Generic X")
		if _, err := client.Cast(isis.GBCAST, []isis.Address{gid}, entryEcho, u); err != nil {
			return TwentyResult{}, err
		}
		updates++
	}
	uRate := float64(updates) / time.Since(start).Seconds()
	return TwentyResult{QueriesPerSec: qRate, UpdatesPerSec: uRate}, nil
}

// ---------------------------------------------------------------------------
// Section 7 — sender CPU utilisation

// CPUResult reports the sender-site CPU utilisation for one workload.
type CPUResult struct {
	Workload    string
	Utilization float64 // fraction of wall-clock time the sender site was busy
}

// RunSenderUtilization compares an asynchronous CBCAST workload with a
// blocking ABCAST workload, reproducing the observation of Section 7 that
// asynchronous/local multicasts keep the sending site ~96-98% busy while
// protocols that wait on remote sites leave it 30-35% busy.
func RunSenderUtilization(netCfg simnet.Config, window time.Duration) ([]CPUResult, error) {
	run := func(async bool) (CPUResult, error) {
		env, err := newFig2Env(SimChoice(netCfg), 2, transport.Config{})
		if err != nil {
			return CPUResult{}, err
		}
		defer env.cluster.Close()
		net, ok := env.cluster.Fabric().(*simnet.Network)
		if !ok {
			return CPUResult{}, fmt.Errorf("bench: cpu run requires the simnet backend")
		}
		net.ResetStats()
		payload := isis.NewMessage().PutBytes("data", make([]byte, 1000))
		start := time.Now()
		for time.Since(start) < window {
			if async {
				if _, err := env.sender.Cast(isis.CBCAST, []isis.Address{env.gid}, entryEcho, payload); err != nil {
					return CPUResult{}, err
				}
			} else {
				if _, err := env.sender.Cast(isis.ABCAST, []isis.Address{env.gid}, entryEcho, payload, isis.Replies(isis.All)); err != nil {
					return CPUResult{}, err
				}
			}
		}
		elapsed := time.Since(start)
		busy := net.BusyTime(1)
		util := float64(busy) / float64(elapsed)
		if util > 1 {
			util = 1 // queued background transmissions can over-account
		}
		name := "ABCAST, wait for remote replies"
		if async {
			name = "asynchronous CBCAST"
		}
		return CPUResult{Workload: name, Utilization: util}, nil
	}
	asyncRes, err := run(true)
	if err != nil {
		return nil, err
	}
	syncRes, err := run(false)
	if err != nil {
		return nil, err
	}
	return []CPUResult{asyncRes, syncRes}, nil
}
