package protos

// Primary-partition and merge scenarios at the protocol level: a minority
// partition must wedge read-only instead of minting a split-brain view, the
// majority must keep committing, and a healed minority must merge back in
// through the join machinery without a restart. Also the regression test for
// the per-requester GBCAST dedupe high-water marks.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/events"
	"repro/internal/msg"
	"repro/internal/simnet"
)

// TestMinorityPartitionWedgesThenMerges cuts one site of a three-member
// group off from the other two. The majority side must remove the stranded
// member and keep working; the minority side must refuse to install a
// split-brain view and reject writes (ErrNonPrimary); and after the
// partition heals, the stranded member must rejoin automatically — same
// process, no restart — and carry traffic again.
func TestMinorityPartitionWedgesThenMerges(t *testing.T) { minorityPartitionWedgesThenMerges(t) }

func minorityPartitionWedgesThenMerges(t *testing.T) *testCluster {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), time.Second, scenarioDetector())
	procs := buildGroup(t, tc, "prim", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "prim")

	// The minority's primary-status transitions; few enough to wait in the
	// subscription's queue until the end of the test.
	transitions, cancel := tc.daemons[3].Events(events.Filter{
		Kinds: []events.Kind{events.PrimaryLost, events.PrimaryResumed},
		Group: gid,
	}, 0)

	tc.net.Partition(3, 1)
	tc.net.Partition(3, 2)

	waitFor(t, "majority removes the stranded member", 10*time.Second, func() bool {
		v := procs[0].lastView()
		return v.Size() == 2 && !v.Contains(procs[2].addr)
	})
	waitFor(t, "minority wedges into non-primary mode", 10*time.Second, func() bool {
		return !tc.daemons[3].GroupPrimary(gid)
	})

	// The minority is read-only: writes are refused, and no split-brain view
	// was installed (the member still holds the last agreed 3-member view).
	if _, err := tc.daemons[3].Multicast(procs[2].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("rejected")); !errors.Is(err, ErrNonPrimary) {
		t.Errorf("minority write err = %v, want ErrNonPrimary", err)
	}
	// Membership changes surface the same sentinel through the GBCAST reply
	// path (the error text is reconstructed into the sentinel on arrival).
	if err := tc.daemons[3].Leave(procs[2].addr, gid); !errors.Is(err, ErrNonPrimary) {
		t.Errorf("minority Leave err = %v, want ErrNonPrimary", err)
	}
	if v := procs[2].lastView(); v.Size() != 3 {
		t.Errorf("minority installed a split-brain view: %v", v)
	}

	// The majority keeps committing.
	if _, err := tc.daemons[1].Multicast(procs[0].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("during-partition")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "majority-side delivery during the partition", 5*time.Second, func() bool {
		return procs[0].got("during-partition") && procs[1].got("during-partition")
	})

	// Heal: the minority must merge back automatically, through the ordinary
	// join machinery, keeping its process address.
	tc.net.HealAll()
	ok3 := func() bool {
		v := procs[0].lastView()
		return v.Size() == 3 && v.Contains(procs[2].addr) && tc.daemons[3].GroupPrimary(gid)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && !ok3() {
		time.Sleep(2 * time.Millisecond)
	}
	if !ok3() {
		t.Fatalf("merge did not converge: v1=%v v2=%v v3=%v prim3=%v",
			procs[0].lastView(), procs[1].lastView(), procs[2].lastView(), tc.daemons[3].GroupPrimary(gid))
	}

	// The merged member carries traffic again.
	if _, err := tc.daemons[3].Multicast(procs[2].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("after-merge")); err != nil {
		t.Fatalf("write after merge: %v", err)
	}
	waitFor(t, "post-merge delivery everywhere", 5*time.Second, func() bool {
		return procs[0].got("after-merge") && procs[1].got("after-merge") && procs[2].got("after-merge")
	})

	cancel() // closes the channel; what is queued stays readable
	var kinds []events.Kind
	for e := range transitions {
		kinds = append(kinds, e.Kind)
	}
	if len(kinds) < 2 || kinds[0] != events.PrimaryLost || kinds[len(kinds)-1] != events.PrimaryResumed {
		t.Errorf("primary-status transitions at the minority = %v, want primary-lost ... primary-resumed", kinds)
	}
	return tc
}

// TestGbDedupeSurvivesLongHistory pins the per-requester high-water dedupe:
// a requester that re-submits an already-committed GBCAST after hundreds of
// other requests have committed in between must still be answered from the
// commit record instead of re-executing. (The previous bounded 256-entry
// request-id history forgot the request and delivered its payload twice.)
func TestGbDedupeSurvivesLongHistory(t *testing.T) {
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "hw", 1, 2)
	gid := groupOf(t, tc, procs[0], "hw")
	d1 := tc.daemons[1]

	mkReq := func(reqID int64, text string) *msg.Message {
		req := msg.New()
		req.PutInt(fKind, gbUser)
		req.PutAddress(fGroup, gid)
		req.PutAddress(fSender, procs[0].addr)
		req.PutInt(fEntry, int64(addr.EntryUserBase))
		req.PutMessage(fPayload, body(text))
		req.PutInt(fReqID, reqID)
		return req
	}

	first := int64(77)<<32 | 1
	if _, err := d1.localGbRequest(gid, mkReq(first, "hw-once")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first GBCAST delivery", 5*time.Second, func() bool {
		return procs[0].got("hw-once") && procs[1].got("hw-once")
	})

	// Hundreds of commits from other requesters — far beyond any bounded
	// history — land in between.
	for k := 0; k < 300; k++ {
		id := int64(100+k)<<32 | 1
		if _, err := d1.localGbRequest(gid, mkReq(id, fmt.Sprintf("filler-%03d", k))); err != nil {
			t.Fatalf("filler %d: %v", k, err)
		}
	}

	// The slow retrier re-submits the committed request.
	if _, err := d1.localGbRequest(gid, mkReq(first, "hw-once")); err != nil {
		t.Fatalf("re-submission: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	for i, p := range procs {
		if n := countBody(p, "hw-once"); n != 1 {
			t.Errorf("member %d delivered the re-submitted GBCAST %d times, want 1", i+1, n)
		}
	}
}

// TestTotalWedgeResumesAfterHeal splits a five-member group three ways so
// that NO partition retains half of the view: every copy wedges
// non-primary, and there is no primary to merge into. After the heal, the
// reachable wedged copies — which all still hold the same last agreed view,
// since nothing can have committed past it — must resume in place,
// coordinated by the site hosting the oldest member, and carry traffic
// again.
func TestTotalWedgeResumesAfterHeal(t *testing.T) { totalWedgeResumesAfterHeal(t) }

func totalWedgeResumesAfterHeal(t *testing.T) *testCluster {
	tc := newFaultCluster(t, 5, simnet.FastConfig(), time.Second, scenarioDetector())
	procs := buildGroup(t, tc, "wedge", 1, 2, 3, 4, 5)
	gid := groupOf(t, tc, procs[0], "wedge")

	// Three-way split: {1,2} | {3,4} | {5}.
	groups := [][]addr.SiteID{{1, 2}, {3, 4}, {5}}
	for i, ga := range groups {
		for j, gb := range groups {
			if i >= j {
				continue
			}
			for _, a := range ga {
				for _, b := range gb {
					tc.net.Partition(a, b)
				}
			}
		}
	}

	waitFor(t, "every fragment wedges non-primary", 10*time.Second, func() bool {
		for s := addr.SiteID(1); s <= 5; s++ {
			if tc.daemons[s].GroupPrimary(gid) {
				return false
			}
		}
		return true
	})

	tc.net.HealAll()
	waitFor(t, "all copies resume in place after the heal", 15*time.Second, func() bool {
		for s := addr.SiteID(1); s <= 5; s++ {
			if !tc.daemons[s].GroupPrimary(gid) {
				return false
			}
		}
		return true
	})
	// The resume installs no new view: everyone still holds the last agreed
	// five-member view, and nothing was lost.
	for i, p := range procs {
		if v := p.lastView(); v.Size() != 5 {
			t.Errorf("member %d view after resume = %v, want the intact 5-member view", i+1, v)
		}
	}

	if _, err := tc.daemons[5].Multicast(procs[4].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("resumed")); err != nil {
		t.Fatalf("write after resume: %v", err)
	}
	waitFor(t, "post-resume delivery at every member", 10*time.Second, func() bool {
		for _, p := range procs {
			if !p.got("resumed") {
				return false
			}
		}
		return true
	})
	return tc
}

// TestAsymmetricPartitionRejoinsRemovedMember cuts only the link between
// the coordinator's site and one member's site. The coordinator removes the
// member (its site is unreachable from the coordinator, so the removal is
// not corroborated away), but the member's own copy never wedges — its
// acting coordinator is elsewhere. When the link heals and the removal
// commit finally reaches the member's site, the daemon must notice it hosts
// the removed process alive and rejoin it instead of silently dropping it.
func TestAsymmetricPartitionRejoinsRemovedMember(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), time.Second, scenarioDetector())
	procs := buildGroup(t, tc, "asym", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "asym")

	tc.net.Partition(1, 3)
	waitFor(t, "coordinator removes the unreachable member", 10*time.Second, func() bool {
		v := procs[0].lastView()
		return v.Size() == 2 && !v.Contains(procs[2].addr)
	})

	tc.net.Heal(1, 3)
	waitFor(t, "wrongly removed member rejoins after the heal", 15*time.Second, func() bool {
		v := procs[0].lastView()
		return v.Size() == 3 && v.Contains(procs[2].addr)
	})

	if _, err := tc.daemons[3].Multicast(procs[2].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("back")); err != nil {
		t.Fatalf("write from the rejoined member: %v", err)
	}
	waitFor(t, "rejoined member's traffic delivered", 5*time.Second, func() bool {
		return procs[0].got("back") && procs[1].got("back")
	})
}

// TestWriteToNonPrimaryCopyNeverWaitsOnWedge hands a non-primary copy the one
// packet the reliable transport is sure to retransmit across a heal: a flush
// prepare from the majority's coordinator. The prepare is answered, but the
// copy must stay what it is — read-only, nothing held — so a write is refused
// at once. (It used to wedge the copy as well; the commit that ends a flush
// is never applied to a non-primary copy, so only the 4x CallTimeout watchdog
// released it, and the refusal took that long.)
func TestWriteToNonPrimaryCopyNeverWaitsOnWedge(t *testing.T) {
	const callTimeout = time.Second
	tc := newFaultCluster(t, 3, simnet.FastConfig(), callTimeout, scenarioDetector())
	procs := buildGroup(t, tc, "stale-prepare", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "stale-prepare")
	d3 := tc.daemons[3]

	tc.net.Partition(3, 1)
	tc.net.Partition(3, 2)
	waitFor(t, "minority goes non-primary", 10*time.Second, func() bool { return !d3.GroupPrimary(gid) })

	// The first heartbeat across a heal clears the suspicion; the prepare is
	// right behind it.
	d3.mu.Lock()
	delete(d3.suspected, 1)
	d3.mu.Unlock()
	prepare := msg.New()
	prepare.PutAddress(fGroup, gid)
	prepare.PutInt(fGbID, 99)
	prepare.PutInt(fCall, 4242)
	begun := d3.EventStats().ByKind[events.FlushBegin]
	d3.handleGbPrepare(1, prepare)
	if now := d3.EventStats().ByKind[events.FlushBegin]; now != begun {
		t.Errorf("the prepare opened a flush at the non-primary copy (%d FlushBegin, then %d)", begun, now)
	}

	start := time.Now()
	_, err := d3.Multicast(procs[2].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("refused"))
	took := time.Since(start)
	if !errors.Is(err, ErrNonPrimary) || took >= callTimeout {
		t.Errorf("write at the non-primary copy: err = %v after %v, want ErrNonPrimary at once", err, took)
	}
	t.Logf("refused after %v", took)
	if d3.GroupPrimary(gid) {
		t.Error("the prepare took the copy out of non-primary mode")
	}
}

// TestLifecycleResumeDuringMergeRetiresTheAttempt pins what the merging phase
// alone cannot say: that a merge goroutine may still be running after the
// phase has ended. A resume notice reaches a copy whose merge attempt is out
// surveying; the copy goes non-primary again and a second attempt starts
// before the first comes back. The first must then leave the copy alone — its
// abandon would otherwise cancel the second's merge mid-run.
func TestLifecycleResumeDuringMergeRetiresTheAttempt(t *testing.T) {
	const callTimeout = time.Second
	tc := newFaultCluster(t, 3, simnet.FastConfig(), callTimeout, scenarioDetector())
	procs := buildGroup(t, tc, "two-merges", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "two-merges")
	d3 := tc.daemons[3]
	phaseIs := func(want phase) func() bool {
		return func() bool {
			d3.mu.Lock()
			defer d3.mu.Unlock()
			return d3.groups[gid].phase == want
		}
	}
	notice := func(kind int64) {
		view, _ := d3.CurrentView(gid)
		n := msg.New()
		n.PutAddress(fGroup, gid)
		n.PutInt(fKind, kind)
		n.PutMessage(fView, encodeView(view))
		d3.applyGbCommit(1, n)
	}

	// The partition holds throughout: every survey reaches nobody, lasts
	// CallTimeout and ends in an abandoned attempt.
	tc.net.Partition(3, 1)
	tc.net.Partition(3, 2)
	waitFor(t, "minority goes non-primary", 10*time.Second, phaseIs(phaseNonPrimary))

	firstDone := make(chan struct{})
	go func() { _ = d3.mergeGroup(gid); close(firstDone) }()
	waitFor(t, "first attempt surveying", time.Second, phaseIs(phaseMerging))
	notice(gbResume)
	if !phaseIs(phaseNormal)() {
		t.Fatal("the resume notice did not resume the merging copy")
	}
	notice(gbNonPrimary)
	time.Sleep(callTimeout / 4) // the second attempt outlasts the first by this much
	go d3.mergeGroup(gid)
	waitFor(t, "second attempt surveying", time.Second, phaseIs(phaseMerging))

	<-firstDone
	if !phaseIs(phaseMerging)() {
		t.Error("the first attempt, back from its survey, ended the second attempt's merging phase")
	}
	waitFor(t, "second attempt abandons its own merge", 2*callTimeout, phaseIs(phaseNonPrimary))
}

// TestEveryFlushBeginIsClosed runs the partition and takeover scenarios and
// then counts, at every site still up: each FlushBegin the site published
// must have its FlushComplete — whether the flush ended by its commit, a
// non-primary notice or the watchdog — and a takeover's prepare reaching a
// copy already flushing must not have opened a second one. (Each scenario
// has one group, so a site's counts are the group's.)
func TestEveryFlushBeginIsClosed(t *testing.T) {
	for name, scenario := range map[string]func(*testing.T) *testCluster{
		"minority partition merges":   minorityPartitionWedgesThenMerges,
		"total wedge resumes":         totalWedgeResumesAfterHeal,
		"coordinator crash mid-flush": coordinatorCrashMidFlushJoinCompletes,
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tc := scenario(t)
			var open string
			flushes := uint64(0)
			balanced := func() bool {
				open, flushes = "", 0
				for site, d := range tc.daemons {
					d.mu.Lock()
					closed := d.closed
					d.mu.Unlock()
					if closed {
						continue // crashed mid-scenario, possibly mid-flush
					}
					by := d.EventStats().ByKind
					flushes += by[events.FlushBegin]
					if by[events.FlushBegin] != by[events.FlushComplete] {
						open += fmt.Sprintf(" site %d: %d begun, %d completed;", site, by[events.FlushBegin], by[events.FlushComplete])
					}
				}
				return open == ""
			}
			deadline := time.Now().Add(10 * time.Second)
			for !balanced() && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if open != "" {
				t.Errorf("flushes left open at quiescence:%s", open)
			}
			if flushes == 0 {
				t.Error("the scenario published no FlushBegin at all: the check saw nothing")
			}
			t.Logf("%d flushes begun at the sites still up", flushes)
		})
	}
}
