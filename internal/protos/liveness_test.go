package protos

// Liveness is any frame, and a dead site costs nothing: the failure detector
// polls the transport instead of sending heartbeats through the reliable
// stream, and a suspected site that no hosted view lists is forgotten by the
// transport, its send window dropped.

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/events"
	"repro/internal/simnet"
)

// unacked sums the records waiting for an ack at the given sites, and their
// retransmissions so far.
func (tc *testCluster) unacked(sites ...addr.SiteID) (records int, retransmissions uint64) {
	for _, s := range sites {
		tr := tc.daemons[s].tr
		records += tr.Unacked()
		retransmissions += tr.Stats().Retransmissions
	}
	return records, retransmissions
}

// TestDeadSiteCostsNothing crashes one site of three under the real detector.
// Once its removal has committed, the survivors forget it: nothing stays
// unacknowledged, nothing is resent to it however long it stays dead, and
// Flush — which waits for every window to drain — returns at once. While
// heartbeats went through the reliable stream, the window to the dead site
// grew by one record a heartbeat, was resent whole on every pass, and Flush
// timed out after any site crash.
func TestDeadSiteCostsNothing(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "dead", 1, 2, 3)
	tc.daemons[3].Close()
	waitFor(t, "the 2-member view at both survivors", 10*time.Second, func() bool {
		return procs[0].lastView().Size() == 2 && procs[1].lastView().Size() == 2
	})
	// The commit went to the dead site too; the next scan tick forgets it.
	waitFor(t, "the survivors' windows to drain", 5*time.Second, func() bool {
		n, _ := tc.unacked(1, 2)
		return n == 0
	})
	_, before := tc.unacked(1, 2)
	time.Sleep(time.Second)

	start := time.Now()
	if err := tc.daemons[1].Flush(procs[0].addr); err != nil {
		t.Errorf("Flush after the crash: %v after %v", err, time.Since(start))
	}
	n, after := tc.unacked(1, 2)
	if n != 0 {
		t.Errorf("%d records unacked a second after the dead site was forgotten", n)
	}
	if after != before {
		t.Errorf("%d retransmissions while the dead site stayed dead", after-before)
	}
	t.Logf("Flush returned in %v", time.Since(start))
}

// TestHealedPartitionCostsNothing cuts site 3 off from {1, 2} for two
// seconds. While the cut holds, no window on either side grows past what it
// held once the cut settled (the majority has removed site 3 and site 3 has
// gone non-primary): the majority forgets site 3, and site 3 keeps only what
// it queued before. After the heal the minority merges, and no site is
// suspected again: the detector samples a peer once a poll, so the burst of
// frames that crosses a heal cannot shrink its timeout.
func TestHealedPartitionCostsNothing(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), time.Second, scenarioDetector())
	procs := buildGroup(t, tc, "cut", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "cut")

	cut := time.Now()
	tc.net.Partition(3, 1)
	tc.net.Partition(3, 2)
	waitFor(t, "the majority to remove site 3", 10*time.Second, func() bool {
		return procs[0].lastView().Size() == 2 && procs[1].lastView().Size() == 2
	})
	waitFor(t, "the minority to go non-primary", 10*time.Second, func() bool { return !tc.daemons[3].GroupPrimary(gid) })
	majority, _ := tc.unacked(1, 2)
	minority, _ := tc.unacked(3)
	time.Sleep(time.Until(cut.Add(2 * time.Second)))
	if n, _ := tc.unacked(1, 2); n > majority {
		t.Errorf("the majority's windows grew across the cut: %d records, %d once it settled", n, majority)
	}
	if n, _ := tc.unacked(3); n > minority {
		t.Errorf("the minority's window grew across the cut: %d records, %d once it settled", n, minority)
	}

	downs := make(map[addr.SiteID]uint64)
	for s := addr.SiteID(1); s <= 3; s++ {
		downs[s] = tc.daemons[s].EventStats().ByKind[events.SiteDown]
	}
	tc.net.HealAll()
	waitFor(t, "the minority to merge", 15*time.Second, func() bool {
		v := procs[0].lastView()
		return v.Size() == 3 && v.Contains(procs[2].addr) && tc.daemons[3].GroupPrimary(gid)
	})
	time.Sleep(500 * time.Millisecond) // five minimum timeouts
	for s := addr.SiteID(1); s <= 3; s++ {
		if n := tc.daemons[s].EventStats().ByKind[events.SiteDown]; n != downs[s] {
			t.Errorf("site %d published %d SiteDown after the heal", s, n-downs[s])
		}
	}
}
