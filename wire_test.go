package isis

import (
	"testing"
	"time"

	"repro/internal/simnet"
)

// churnGroup forms the group a join+leave measures (the churn_lan workload's
// shape): three members at sites 1-3 of a four-site simnet with the given
// inter-site delay, heartbeats off, each member providing 16 KB of state in
// four 4 KB blocks. It returns the network and one op: a process at site 4
// joins, receives the state and leaves.
func churnGroup(t *testing.T, delay time.Duration) (*simnet.Network, func()) {
	t.Helper()
	cfg := ClusterConfig{Sites: 4, CallTimeout: 5 * time.Second, DisableHeartbeats: true}
	if delay > 0 {
		cfg.Net = simnet.FastConfig()
		cfg.Net.InterSiteDelay = delay
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	state := make([][]byte, 4)
	for i := range state {
		state[i] = make([]byte, 4096)
	}
	var gid Address
	for s := SiteID(1); s <= 3; s++ {
		p := spawn(t, c, s)
		if s == 1 {
			v, err := p.CreateGroup("churn")
			if err != nil {
				t.Fatal(err)
			}
			gid = v.Group
		} else if _, err := p.Join(gid, JoinOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := p.SetStateProvider(gid, func() [][]byte { return state }); err != nil {
			t.Fatal(err)
		}
	}
	joiner := spawn(t, c, 4)
	done := make(chan int, 1)
	return c.Fabric().(*simnet.Network), func() {
		got := 0
		if _, err := joiner.Join(gid, JoinOptions{StateReceiver: func(block []byte, last bool) {
			if got += len(block); last {
				done <- got
			}
		}}); err != nil {
			t.Fatal(err)
		}
		if n := <-done; n != 4*4096 {
			t.Fatalf("the joiner received %d bytes of state, want %d", n, 4*4096)
		}
		if err := joiner.Leave(gid); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLANJoinLeaveAcksRideFrames counts the frames a join+leave puts on a
// LAN of 1 ms links, and the bare 17-byte acks among them. A member site's
// ack of a commit waits for the next round's prepare ack, which leaves 2-4 ms
// later, within the transport's ack delay (RetransmitInterval/4, 5 ms here).
// With a 1 ms delay that ran from the first record of a cycle, a join+leave
// put about 27.8 frames on the wire, 5 of them bare acks; about 22.6 and 0.1
// while the leave's coordinator still sent the leaver's site a prepare.
func TestLANJoinLeaveAcksRideFrames(t *testing.T) {
	const maxFrames, maxBareAcks = 25, 1.0 // measured about 20.5 and 0
	net, joinLeave := churnGroup(t, time.Millisecond)
	const warm, n = 5, 50
	for range warm {
		joinLeave()
	}
	rec := simnet.NewRecorder()
	net.SetTracer(rec)
	for range n {
		joinLeave()
	}
	net.SetTracer(nil)
	var frames, bare float64
	for _, e := range rec.Events() {
		if e.Kind == simnet.EventSend {
			frames++
			if e.Size == 17 { // a transport frame with no record: a bare ack
				bare++
			}
		}
	}
	frames, bare = frames/n, bare/n
	t.Logf("join with 16 KB of state, then leave, on 1 ms links: %.1f frames, %.2f bare acks per op", frames, bare)
	if frames >= maxFrames || bare > maxBareAcks {
		t.Errorf("a join+leave puts %.1f frames on the wire, %.2f of them bare acks; budget under %v and at most %v", frames, bare, maxFrames, maxBareAcks)
	}
}
