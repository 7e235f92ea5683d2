package isis_test

// Ablation benchmarks: each isolates one mechanism of the stack (transport
// batching, ordering strength, execution style) on a zero-delay network.
// They are plain, ungated benchmarks for use while working. The repository's
// yardstick is `go run ./bench` (BENCHMARK.json), and the paper's tables and
// figures are regenerated by cmd/isis-bench; EXPERIMENTS.md records both.

import (
	"testing"
	"time"

	isis "repro"
	"repro/internal/tools/replica"
	"repro/internal/transport"
)

func primitiveCluster(b *testing.B, sites int) (*isis.Cluster, []*isis.Process, isis.Address) {
	return primitiveClusterTr(b, sites, transport.Config{})
}

func primitiveClusterTr(b *testing.B, sites int, trCfg transport.Config) (*isis.Cluster, []*isis.Process, isis.Address) {
	b.Helper()
	// Heartbeats are disabled: at benchmark rates (tens of thousands of
	// multicasts per second on one machine) the aggressive test-grade
	// failure-detector timeouts produce false suspicions, which is not what
	// these micro-benchmarks measure.
	c, err := isis.NewCluster(isis.ClusterConfig{Sites: sites, CallTimeout: 5 * time.Second,
		ReplyTimeout: 10 * time.Second, DisableHeartbeats: true, Transport: trCfg})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	procs := make([]*isis.Process, sites)
	var gid isis.Address
	for i := 0; i < sites; i++ {
		p, err := c.Site(isis.SiteID(i + 1)).Spawn()
		if err != nil {
			b.Fatal(err)
		}
		p.BindEntry(isis.EntryUserBase, func(m *isis.Message) {
			if m.Has("@session") {
				_ = p.Reply(m, isis.NewMessage())
			}
		})
		procs[i] = p
		if i == 0 {
			v, err := p.CreateGroup("micro")
			if err != nil {
				b.Fatal(err)
			}
			gid = v.Group
		} else if _, err := p.JoinByName("micro", isis.JoinOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	return c, procs, gid
}

// BenchmarkAblationBatching compares the asynchronous CBCAST hot path with
// transport packet coalescing on (the default) and off (one frame per
// fragment, dedicated acks — the seed's behaviour). The delta is the win the
// hot-path overhaul buys on the Figure 2 throughput panel.
func BenchmarkAblationBatching(b *testing.B) {
	for _, mode := range []struct {
		name      string
		unbatched bool
	}{{"batched", false}, {"unbatched", true}} {
		b.Run(mode.name, func(b *testing.B) {
			_, procs, gid := primitiveClusterTr(b, 3, transport.Config{DisableBatching: mode.unbatched})
			payload := isis.Text("x")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := procs[0].Cast(isis.CBCAST, []isis.Address{gid}, isis.EntryUserBase, payload); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_ = procs[0].Flush()
		})
	}
}

// BenchmarkAblationOrdering compares CBCAST-mode and ABCAST-mode replicated
// updates for a single-writer item: the causal mode is sufficient there, and
// this ablation quantifies what the stronger ordering costs per update.
func BenchmarkAblationOrdering(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    replica.Mode
	}{{"causal", replica.Causal}, {"total", replica.Total}} {
		b.Run(mode.name, func(b *testing.B) {
			c, procs, gid := primitiveCluster(b, 3)
			_ = c
			items := make([]*replica.Item, len(procs))
			for i, p := range procs {
				var v int64
				items[i] = replica.Manage(p, gid, "abl",
					func(args *isis.Message) { v += args.GetInt("d", 0) }, nil,
					replica.Options{Mode: mode.m, Entry: isis.EntryUserBase + 9})
			}
			upd := isis.NewMessage().PutInt("d", 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := items[0].Update(upd); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_ = procs[0].Flush()
		})
	}
}

// BenchmarkAblationExecutionStyle compares the two request-execution styles
// of Section 3.3 for a read-style request: full replication (every member
// replies, caller waits for all) versus the coordinator-style single reply.
func BenchmarkAblationExecutionStyle(b *testing.B) {
	for _, style := range []struct {
		name string
		want int
	}{{"coordinator-single-reply", 1}, {"full-replication-all-replies", isis.All}} {
		b.Run(style.name, func(b *testing.B) {
			c, _, gid := primitiveCluster(b, 3)
			client, err := c.Site(1).Spawn()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := client.Lookup("micro"); err != nil {
				b.Fatal(err)
			}
			payload := isis.Text("q")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Cast(isis.CBCAST, []isis.Address{gid}, isis.EntryUserBase, payload, isis.Replies(style.want)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
