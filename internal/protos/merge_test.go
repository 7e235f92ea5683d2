package protos

// Regression test for merge parking: a partition merge that has already
// discarded the minority's local group copy can still fail in its rejoin
// phase (the primary may become unreachable, or wedge, between the survey
// and the joins). Before parking was added the failed rejoin left a live
// process unhosted forever — no group copy, no retry, invisible to the
// application. The daemon must park the member and complete the rejoin by
// itself once a recovery event or scan tick finds the primary again.

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/simnet"
)

// TestMergeRejoinExhaustionParksAndRetries drives a merge into rejoin
// exhaustion deterministically. Members sit on sites 1–4; site 3's member is
// excised by the majority {1,2,4}, leaving a three-member primary view. Then
// site 2 is cut off from its fellow members an instant before the minority
// heals toward it: site 2 still answers the merge survey as primary (its
// detector has not yet suspected anyone), so site 3 discards its stale copy
// and starts rejoining — but site 2 holds only one of the primary view's
// three members, so it wedges once its detector catches up and every rejoin
// attempt is refused. The member must be parked. After the full heal the
// surviving primary {1,4} is reachable again and the parked rejoin must
// complete without application intervention.
func TestMergeRejoinExhaustionParksAndRetries(t *testing.T) {
	tc := newFaultCluster(t, 4, simnet.FastConfig(), 500*time.Millisecond, scenarioDetector())
	procs := buildGroup(t, tc, "parked", 1, 2, 3, 4)
	gid := groupOf(t, tc, procs[0], "parked")

	// Phase 1: isolate site 3; the majority excises its member and the
	// stranded copy wedges non-primary.
	for _, s := range []simnet.SiteID{1, 2, 4} {
		tc.net.Partition(3, s)
	}
	waitFor(t, "majority excises the isolated member", 10*time.Second, func() bool {
		return procs[0].lastView().Size() == 3 && !tc.daemons[3].GroupPrimary(gid)
	})

	// Phase 2: cut site 2 off from the other members, heal the minority
	// toward site 2 only, and merge. The survey's answer arrives
	// milliseconds after the heal — long before site 2's detector can
	// suspect its peers and wedge — so the merge proceeds past the survey
	// and discards the local copy; the rejoins then route to site 2 (the
	// only reachable member site), which wedges with one of three members
	// and refuses them all.
	tc.net.Partition(2, 1)
	tc.net.Partition(2, 4)
	tc.net.Heal(3, 2)
	_ = tc.daemons[3].MergeGroup(gid)
	waitFor(t, "exhausted rejoin parks the member", 20*time.Second, func() bool {
		pending := tc.daemons[3].PendingMerges()
		return len(pending) == 1 && pending[0] == gid.Base()
	})

	// Phase 3: full heal. The surviving primary {1,4} becomes reachable,
	// site 2 merges its wedged copy back by itself, and the parked rejoin
	// must complete automatically (recovery event or scan tick), re-hosting
	// the member under a full four-member view.
	tc.net.HealAll()
	waitFor(t, "parked rejoin completes after the heal", 30*time.Second, func() bool {
		return len(tc.daemons[3].PendingMerges()) == 0 && procs[2].lastView().Size() == 4
	})

	// The re-hosted member is a full group citizen again.
	waitFor(t, "re-hosted member receives multicasts", 10*time.Second, func() bool {
		if _, err := tc.daemons[1].Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("post-park")); err != nil {
			return false
		}
		time.Sleep(50 * time.Millisecond)
		return procs[2].got("post-park")
	})
}

// TestStaleCommitAfterMergeDropIsIgnored pins a merge race: a pre-partition
// view commit, retransmitted across the heal, reaches the minority site after
// the merge has discarded its group copy and cached the primary's (newer)
// view. The commit lists the site's member, so it used to be installed as if
// it were the member's join — resurrecting the stale membership and consuming
// the pending join (with its state receiver) the merge had just registered;
// the state transfer of the real rejoin then found nobody waiting for it.
func TestStaleCommitAfterMergeDropIsIgnored(t *testing.T) {
	tc := newTestCluster(t, 2)
	p := tc.newProc(2)
	d := tc.daemons[2]
	gid := addr.NewGroup(1, 0, 1)
	other := addr.NewProcess(1, 0, 1)
	view := func(id core.ViewID, members ...addr.Address) core.View {
		return core.View{Group: gid, Name: "bank", ID: id, Members: members}
	}
	commit := func(v core.View, kind int64, procs ...addr.Address) *msg.Message {
		c := msg.New()
		c.PutAddress(fGroup, gid)
		c.PutInt(fGbID, int64(v.ID))
		c.PutInt(fKind, kind)
		c.PutAddressList(fProcs, procs)
		c.PutMessage(fView, encodeView(v))
		c.PutMessage(fRebcast, encodePendingReport(pendingReport{}))
		return c
	}
	hosted := func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		_, ok := d.groups[gid]
		return ok
	}

	// What the merge leaves behind: no local copy, the primary's view 7.
	d.mu.Lock()
	d.remoteViews[gid] = view(7, other)
	d.mu.Unlock()

	// View 6 removed somebody else and still lists our member.
	d.applyGbCommit(1, commit(view(6, other, p.addr), gbFail, addr.NewProcess(1, 0, 9)))
	if hosted() {
		t.Fatal("a commit older than the known primary view was installed")
	}
	// The merge's own join commit is newer and must land.
	d.applyGbCommit(1, commit(view(8, other, p.addr), gbJoin, p.addr))
	if !hosted() {
		t.Fatal("the join commit that follows was not installed")
	}
	if v, ok := d.CurrentView(gid); !ok || v.ID != 8 {
		t.Fatalf("installed view = %v, want view 8", v)
	}
}
