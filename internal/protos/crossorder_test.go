package protos

// An ABCAST is a CBCAST the holder stamps at rank 0, so causal delivery orders
// it against every other cast of the group: a sender's CBCAST and its next
// ABCAST are delivered in one order everywhere, and an ABCAST follows what its
// sender's site had delivered when it was cast. Each test holds the racing
// packet on a paused link, in a group of three members at sites 1-3 whose
// holder is site 1.

import (
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/fdetect"
	"repro/internal/simnet"
)

// crossCluster builds the group with a recorder on the fabric and a detector
// that suspects nobody: a paused link is a slow link.
func crossCluster(t *testing.T, name string) (*testCluster, *simnet.Recorder, []*testProc, addr.Address) {
	t.Helper()
	tc := newFaultCluster(t, 3, simnet.FastConfig(), 2*time.Second, fdetect.Config{})
	rec := simnet.NewRecorder()
	tc.net.SetTracer(rec)
	procs := buildGroup(t, tc, name, 1, 2, 3)
	return tc, rec, procs, groupOf(t, tc, procs[0], name)
}

// assertDelivered waits for every member to deliver the bodies and fails
// unless each delivered exactly them, in that order.
func assertDelivered(t *testing.T, procs []*testProc, want ...string) {
	t.Helper()
	waitFor(t, "every delivery at every member", 5*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return p.numMsgs() < len(want) })
	})
	for i, p := range procs {
		if got := p.bodies(); !slices.Equal(got, want) {
			t.Errorf("site %d delivered %v, want %v", i+1, got, want)
		}
	}
}

// TestSendersCbcastThenAbcastInOneOrder holds site 2's CBCAST c on its way to
// site 3 while site 2 casts the ABCAST a after it: the holder's stamp of a
// covers c, so site 3 delivers nothing until c arrives, and then c before a.
func TestSendersCbcastThenAbcastInOneOrder(t *testing.T) {
	tc, rec, procs, gid := crossCluster(t, "ca")
	tc.net.PauseLink(2, 3)
	if err := cast(procs[1], CBCAST, gid, "c"); err != nil {
		t.Fatal(err)
	}
	if err := cast(procs[1], ABCAST, gid, "a"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "c and a at sites 1 and 2", 5*time.Second, func() bool { return procs[0].got("a") && procs[1].got("a") })
	heldFrom(t, rec, 1, 3)
	if got := procs[2].bodies(); len(got) != 0 {
		t.Errorf("site 3 delivered %v while c was held, want nothing", got)
	}
	tc.net.ResumeLink(2, 3)
	assertDelivered(t, procs, "c", "a")
}

// TestFlushOrdersAbcastBeforeNextCbcast holds the holder's packets to site 3
// while site 2 casts the ABCAST a, flushes, and casts the CBCAST c: Flush
// returns once a came back stamped and was delivered, so c follows it, and
// site 3 holds c until a arrives.
func TestFlushOrdersAbcastBeforeNextCbcast(t *testing.T) {
	tc, rec, procs, gid := crossCluster(t, "ac")
	tc.net.PauseLink(1, 3)
	if err := cast(procs[1], ABCAST, gid, "a"); err != nil {
		t.Fatal(err)
	}
	if err := procs[1].d.Flush(procs[1].addr); err != nil {
		t.Fatal(err)
	}
	if !procs[1].got("a") {
		t.Fatal("Flush returned before the sender delivered its ABCAST")
	}
	if err := cast(procs[1], CBCAST, gid, "c"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a and c at sites 1 and 2", 5*time.Second, func() bool { return procs[0].got("c") && procs[1].got("c") })
	heldFrom(t, rec, 2, 3)
	if got := procs[2].bodies(); len(got) != 0 {
		t.Errorf("site 3 delivered %v while a was held, want nothing", got)
	}
	tc.net.ResumeLink(1, 3)
	assertDelivered(t, procs, "a", "c")
}

// heldAbcast has site 3 cast the CBCAST x with its link to the holder paused,
// then site 2 cast the ABCAST a once it has delivered x: the holder must not
// stamp a before it has delivered x, so it delivers neither while the link is
// held.
func heldAbcast(t *testing.T, tc *testCluster, rec *simnet.Recorder, procs []*testProc, gid addr.Address) {
	t.Helper()
	tc.net.PauseLink(3, 1)
	if err := cast(procs[2], CBCAST, gid, "x"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "x at site 2", 5*time.Second, func() bool { return procs[1].got("x") })
	if err := cast(procs[1], ABCAST, gid, "a"); err != nil {
		t.Fatal(err)
	}
	heldFrom(t, rec, 2, 1)
	holder := tc.daemons[1]
	waitFor(t, "the submission waiting at the holder, or delivered", 5*time.Second, func() bool {
		holder.mu.Lock()
		defer holder.mu.Unlock()
		return holder.groups[gid].causal.PendingCount() == 1 || procs[0].numMsgs() > 0
	})
	if got := procs[0].bodies(); len(got) != 0 {
		t.Errorf("the holder delivered %v while x was held, want nothing", got)
	}
}

// TestAbcastFollowsWhatItsSenderDelivered is heldAbcast, then the link
// resumes: every site delivers x, then a.
func TestAbcastFollowsWhatItsSenderDelivered(t *testing.T) {
	tc, rec, procs, gid := crossCluster(t, "xa")
	heldAbcast(t, tc, rec, procs, gid)
	tc.net.ResumeLink(3, 1)
	assertDelivered(t, procs, "x", "a")
}

// TestHeldSubmissionAcrossUserGbcast is heldAbcast with a user GBCAST
// requested while a waits at the holder: its flush re-disseminates x to the
// holder, which releases a there while nothing may be stamped, and site 2
// sends a again after the commit. a is delivered once at every site, after x,
// and on the same side of the marker everywhere.
func TestHeldSubmissionAcrossUserGbcast(t *testing.T) {
	tc, rec, procs, gid := crossCluster(t, "xga")
	heldAbcast(t, tc, rec, procs, gid)
	marker := make(chan error, 1)
	go func() {
		_, err := tc.daemons[1].Multicast(procs[0].addr, GBCAST, addr.List{gid}, addr.EntryUserBase, body("marker"))
		marker <- err
	}()
	waitFor(t, "the flush open at every site", 5*time.Second, func() bool {
		for _, d := range tc.daemons {
			d.mu.Lock()
			flushing := d.groups[gid].phase == phaseFlushing
			d.mu.Unlock()
			if !flushing {
				return false
			}
		}
		return true
	})
	tc.net.ResumeLink(3, 1)
	if err := <-marker; err != nil {
		t.Fatalf("marker GBCAST: %v", err)
	}
	waitFor(t, "a at every site", 5*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return !p.got("a") })
	})
	// One more ABCAST from the same sender flushes out a second delivery, if any.
	if err := cast(procs[1], ABCAST, gid, "after"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the next ABCAST everywhere", 5*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return !p.got("after") })
	})
	for i, p := range procs {
		if n := countBody(p, "a"); n != 1 {
			t.Errorf("site %d delivered a %d times, want 1", i+1, n)
		}
		if xi, ai := bodyIndex(p, "x"), bodyIndex(p, "a"); xi < 0 || ai < xi {
			t.Errorf("site %d delivered %v: a before x", i+1, p.bodies())
		}
	}
	assertSameSideOfMarker(t, procs, "a", "marker")
}
