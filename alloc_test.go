//go:build !race

package isis

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Allocation budgets of the two data paths the benchmark measures, taken the
// way bench/ takes them (process-wide MemStats deltas over a fixed op count,
// heartbeats off) and pinned 10 % above the figure measured when the budget
// was set. MemStats deltas are meaningless under the race detector, hence
// the build tag.

// allocCluster forms a three-member group, one member per site of a
// zero-delay simnet, every member counting deliveries into got (and replying
// when asked to).
func allocCluster(t *testing.T, got *atomic.Int64) (*Process, Address) {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Sites: 3, CallTimeout: 5 * time.Second, ReplyTimeout: 5 * time.Second, DisableHeartbeats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var first *Process
	var gid Address
	for s := SiteID(1); s <= 3; s++ {
		p := spawn(t, c, s)
		p.BindEntry(EntryUserBase, func(m *Message) {
			if m.Has("@session") {
				// A Cast returns on its first reply; the others may still be
				// on their way when the test ends and the cluster closes.
				_ = p.Reply(m, NewMessage())
			}
			got.Add(1)
		})
		if s == 1 {
			v, err := p.CreateGroup("budget")
			if err != nil {
				t.Fatal(err)
			}
			first, gid = p, v.Group
		} else if _, err := p.Join(gid, JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return first, gid
}

// perOp runs op warm times, then n times between two MemStats readings, and
// returns the allocations and bytes of one op.
func perOp(warm, n int, op func(i int)) (allocs, bytes float64) {
	for i := 0; i < warm; i++ {
		op(i)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		op(warm + i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// TestAbcastRPCAllocBudget: a 100-byte ABCAST to three members at three
// sites plus one reply (the abcast_rpc workload). Before the data path was
// made lean (PR 14) this cost 320 allocations and 83 KB; before ABCAST's
// control packets and the reply left the message codec (PR 22), 123.5 and
// 18.9 KB; before the send window and the decoder stopped copying what they
// were handed (PR 23), 78.0 and 10.9 KB; before a data packet had a fixed
// header and its one decode went to the member (PR 24), 66.5 and 9.1 KB;
// before the backends carved their frames from slabs, 49.2 and 6.9 KB;
// before the view's oldest member site numbered every ABCAST in its data
// packet, replacing the proposals and the commit, 43.4 and 6.9 KB.
func TestAbcastRPCAllocBudget(t *testing.T) {
	const maxAllocs, maxBytes = 38.4, 6400 // measured 33.2–34.9 and 5.2–5.7 KB
	var got atomic.Int64
	p, gid := allocCluster(t, &got)
	payload := make([]byte, 100)
	allocs, bytes := perOp(300, 3000, func(i int) {
		m := NewMessage().PutInt("n", int64(i)).PutBytes("p", payload)
		if _, err := p.Cast(ABCAST, []Address{gid}, EntryUserBase, m, Replies(1)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ABCAST+1 reply: %.1f allocs, %.0f bytes per op", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("ABCAST+1 reply costs %.1f allocs and %.0f bytes, budget %v and %v", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestCbcastAllocBudget: a 64-deep window of asynchronous 1 KB CBCASTs to
// the same group (the cbcast_stream workload; 112 allocations and 45 KB per
// cast before PR 14, 37.8 and 15.1 KB before PR 23, 32.6 and 9.4 KB before
// PR 24).
func TestCbcastAllocBudget(t *testing.T) {
	const maxAllocs, maxBytes = 19.5, 7400 // measured 17.7 and 6.7 KB
	var got atomic.Int64
	p, gid := allocCluster(t, &got)
	payload := make([]byte, 1024)
	const window = 64
	allocs, bytes := perOp(500, 5000, func(i int) {
		for got.Load() < int64(3*(i-window)) {
			runtime.Gosched()
		}
		m := NewMessage().PutInt("n", int64(i)).PutBytes("p", payload)
		if _, err := p.Cast(CBCAST, []Address{gid}, EntryUserBase, m); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("CBCAST stream: %.1f allocs, %.0f bytes per cast", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("a streamed CBCAST costs %.1f allocs and %.0f bytes, budget %v and %v", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestJoinLeaveAllocBudget: a join with 16 KB of state in four 4 KB blocks,
// then a leave, with three members on a four-site zero-delay simnet (the
// churn_lan workload without its link delay). Before membership, lookup and
// state transfer left the message codec (PR 26) this cost 424 allocations and
// 144.8 KB; before the backends carved their frames from slabs and a
// fragmented message was reassembled at its exact length, 257.3 and 89.8 KB.
// The frames it puts on the wire are budgeted too: 28.8 when every message
// was cut at MaxPacket-38 bytes before the flusher saw it, which sent each
// state block's 65-byte tail in a frame of its own, 24.9 when the joiner's
// site announced a finished transfer to every member site, and 22.0 when the
// leave's coordinator sent the leaver's site a prepare its request could
// have answered.
func TestJoinLeaveAllocBudget(t *testing.T) {
	const maxAllocs, maxBytes = 221, 81700 // measured 157.8 and 70.4 KB
	const maxFrames = 22                   // measured 20.0
	net, joinLeave := churnGroup(t, 0)
	const warm, n = 20, 200
	var frames0 uint64
	allocs, bytes := perOp(warm, n, func(i int) {
		if i == warm {
			frames0 = net.Stats().PacketsSent
		}
		joinLeave()
	})
	frames := float64(net.Stats().PacketsSent-frames0) / n
	t.Logf("join with 16 KB of state, then leave: %.1f allocs, %.0f bytes, %.1f frames per op", allocs, bytes, frames)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("a join+leave costs %.1f allocs and %.0f bytes, budget %v and %v", allocs, bytes, maxAllocs, maxBytes)
	}
	if frames > maxFrames {
		t.Errorf("a join+leave puts %.1f frames on the wire, budget %v", frames, maxFrames)
	}
}
