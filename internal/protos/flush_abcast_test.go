package protos

// Scenario suite for the flush/ABCAST ordering guarantees: a GBCAST flush
// treats in-progress ABCASTs as part of the flushed state (it completes them
// before the view change when every member site has seen phase 1, and fences
// them behind it otherwise), so an ABCAST in flight across a wedge is
// delivered at every member site on the same side of the GBCAST — the
// "shifted marker" of examples/quickstart can no longer occur. Also the
// receiver-side re-solicitation of straggler commits, which stops a slow
// proposal round from blocking later committed deliveries until the next
// flush.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/simnet"
)

// quietDetector is a failure-detector configuration that never suspects a
// site within the lifetime of a test: link pauses must look like slow links,
// not crashes.
func quietDetector() fdetect.Config {
	return fdetect.Config{
		HeartbeatInterval: 20 * time.Millisecond,
		InitialTimeout:    time.Minute,
		MinTimeout:        time.Minute,
		MaxTimeout:        2 * time.Minute,
		DeviationFactor:   4,
	}
}

// bodyIndex returns the position of the first delivery with the given body
// at a process, or -1.
func bodyIndex(p *testProc, body string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, m := range p.msgs {
		if m.GetString("body", "") == body {
			return i
		}
	}
	return -1
}

// assertSameSideOfMarker fails unless every member delivered the body on the
// same side of the marker as member 0 did.
func assertSameSideOfMarker(t *testing.T, procs []*testProc, body, marker string) {
	t.Helper()
	ref := bodyIndex(procs[0], body) < bodyIndex(procs[0], marker)
	for i, p := range procs[1:] {
		mi, bi := bodyIndex(p, marker), bodyIndex(p, body)
		if mi < 0 || bi < 0 {
			t.Fatalf("member %d missing a delivery: marker at %d, %q at %d", i+1, mi, body, bi)
		}
		if (bi < mi) != ref {
			t.Errorf("%q delivered on different sides of the marker: member 0 before=%v, member %d before=%v",
				body, ref, i+1, bi < mi)
		}
	}
}

// TestScenarioFlushDrivesFullySeenAbcast plants an uncommitted ABCAST
// phase-1 entry at every member site (the initiator's commit never arrives —
// the degenerate form of a watchdog that lost its race) and then runs a
// user GBCAST. The flush must drive the in-flight ABCAST to commit before
// the view-change point: every member delivers it exactly once, before the
// marker, and a late low-priority commit changes nothing.
func TestScenarioFlushDrivesFullySeenAbcast(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "drive", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "drive")

	view, ok := tc.daemons[1].CurrentView(gid)
	if !ok {
		t.Fatal("no view at site 1")
	}
	id := core.MsgID{Sender: procs[0].addr, Seq: 400}
	pkt := dataPkt(t, ABCAST, gid, view.ID, id, view.RankOf(procs[0].addr), body("undelivered"))
	tc.daemons[1].handleTransport(3, pkt.raw)
	tc.daemons[2].handleTransport(1, pkt.raw)
	tc.daemons[3].handleTransport(1, pkt.raw)
	time.Sleep(50 * time.Millisecond)
	for i, p := range procs {
		if p.got("undelivered") {
			t.Fatalf("member %d delivered the uncommitted ABCAST before the flush", i)
		}
	}

	if _, err := tc.daemons[1].Multicast(procs[0].addr, GBCAST, addr.List{gid}, addr.EntryUserBase, body("marker")); err != nil {
		t.Fatalf("marker GBCAST: %v", err)
	}
	waitFor(t, "driven ABCAST and marker everywhere", 5*time.Second, func() bool {
		for _, p := range procs {
			if !p.got("undelivered") || !p.got("marker") {
				return false
			}
		}
		return true
	})
	for i, p := range procs {
		if bi, mi := bodyIndex(p, "undelivered"), bodyIndex(p, "marker"); bi > mi {
			t.Errorf("member %d delivered the driven ABCAST after the marker (%d > %d): flush must complete it before the view change", i, bi, mi)
		}
	}

	// A late commit from the (imaginary) initiator's watchdog — with a
	// priority below the one the flush chose — must be a no-op.
	tc.daemons[2].handleTransport(1, abRecord{group: gid, id: id, prio: 1}.encode(ptAbCommit))
	time.Sleep(100 * time.Millisecond)
	for i, p := range procs {
		if n := countBody(p, "undelivered"); n != 1 {
			t.Errorf("member %d delivered the driven ABCAST %d times, want 1", i, n)
		}
	}
}

// TestScenarioFlushFencesUndeliveredAbcast starts a real ABCAST whose
// phase 1 cannot reach one member site (the initiator's link to it is
// paused) and wedges the group with a user GBCAST while it is in flight.
// The flush cannot complete the ABCAST — one report has never seen it — so
// it must fence it behind the view change: every member delivers the marker
// first and the ABCAST after it (via the initiator's deterministic restart),
// exactly once, including the site whose phase 1 was frozen.
func TestScenarioFlushFencesUndeliveredAbcast(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), time.Second, quietDetector())
	procs := buildGroup(t, tc, "fence", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "fence")

	// Phase 1 from the site-2 member reaches site 1 but never site 3.
	tc.net.PauseLink(2, 3)
	if _, err := tc.daemons[2].Multicast(procs[1].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("fenced")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // phase 1 reaches site 1; site 3 stays blind

	// The wedge: a user GBCAST through the site-1 coordinator (whose links
	// are all healthy, so the flush itself completes).
	if _, err := tc.daemons[1].Multicast(procs[0].addr, GBCAST, addr.List{gid}, addr.EntryUserBase, body("marker")); err != nil {
		t.Fatalf("marker GBCAST: %v", err)
	}
	waitFor(t, "marker at every member", 5*time.Second, func() bool {
		for _, p := range procs {
			if !p.got("marker") {
				return false
			}
		}
		return true
	})
	for i, p := range procs {
		if p.got("fenced") {
			t.Fatalf("member %d delivered the fenced ABCAST before (or with) the marker", i)
		}
	}

	// Release the frozen link: the restarted protocol round completes and
	// every member — including site 3 — delivers the message after the
	// marker.
	tc.net.ResumeLink(2, 3)
	waitFor(t, "fenced ABCAST everywhere after the restart", 10*time.Second, func() bool {
		for _, p := range procs {
			if !p.got("fenced") {
				return false
			}
		}
		return true
	})
	for i, p := range procs {
		if n := countBody(p, "fenced"); n != 1 {
			t.Errorf("member %d delivered the fenced ABCAST %d times, want 1", i, n)
		}
		if bi, mi := bodyIndex(p, "fenced"), bodyIndex(p, "marker"); bi < mi {
			t.Errorf("member %d delivered the fenced ABCAST before the marker (%d < %d)", i, bi, mi)
		}
	}
	assertSameSideOfMarker(t, procs, "fenced", "marker")
}

// TestFencedAbcastReachesJoiner fences an ABCAST behind the view change that
// adds a member and holds the round's first phase 1 on the wire to the
// joiner's site until the view is installed there. The stale packet then
// arrives ahead of the restart's: filed, it would shadow the restart, the
// message would be delivered as one of the closed view, and the joiner — alone
// among the members — would be refused it.
func TestFencedAbcastReachesJoiner(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), 2*time.Second, quietDetector())
	procs := buildGroup(t, tc, "fencejoin", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "fencejoin")

	tc.net.PauseLink(2, 3)
	if err := cast(procs[1], ABCAST, gid, "fenced"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "phase 1 at site 1", 5*time.Second, func() bool {
		d := tc.daemons[1]
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.groups[gid].total.PendingCount() == 1
	})
	joiner := tc.newProc(3)
	if _, err := tc.daemons[3].Join(joiner.addr, gid, JoinOptions{}); err != nil {
		t.Fatalf("join: %v", err)
	}
	tc.net.ResumeLink(2, 3)

	all := append(slices.Clone(procs), joiner)
	waitFor(t, "the fenced ABCAST at every member, the joiner included", 5*time.Second, func() bool {
		return !slices.ContainsFunc(all, func(p *testProc) bool { return !p.got("fenced") })
	})
	// One more from the same sender flushes out a second delivery, if any.
	if err := cast(procs[1], ABCAST, gid, "after"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the next ABCAST everywhere", 5*time.Second, func() bool {
		return !slices.ContainsFunc(all, func(p *testProc) bool { return !p.got("after") })
	})
	for _, p := range all {
		if n := countBody(p, "fenced"); n != 1 {
			t.Errorf("%v delivered the fenced ABCAST %d times, want 1", p.addr, n)
		}
	}
}

// TestCompletedRoundIsPendingOrApplied pins the window a flush report could
// once look into: between an initiator retiring its round and applying its own
// commit, the message was vouched for by nobody. With both in one hold of the
// lock, what the report is built from shows the commit applied — delivered and
// in recent with its final, or committed in the queue behind an older entry —
// the moment the round has left the copy's rounds.
func TestCompletedRoundIsPendingOrApplied(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		t.Run(fmt.Sprintf("behind an uncommitted entry=%v", blocked), func(t *testing.T) {
			tc := newFaultCluster(t, 2, simnet.FastConfig(), 2*time.Second, quietDetector())
			procs := buildGroup(t, tc, "window", 1, 2)
			gid := groupOf(t, tc, procs[0], "window")
			d := tc.daemons[1]

			d.mu.Lock()
			defer d.mu.Unlock()
			gs := d.groups[gid]
			if blocked {
				other := core.MsgID{Sender: procs[1].addr, Seq: 900}
				gs.total.Propose(other, dataPkt(t, ABCAST, gid, gs.view.ID, other, 1, body("older")))
			}
			id := core.MsgID{Sender: procs[0].addr, Seq: 901}
			d.initiateAbcastLocked(gs, dataPkt(t, ABCAST, gid, gs.view.ID, id, 0, body("m")))
			st := gs.rounds[id]
			if st == nil || st.done {
				t.Fatal("the round completed with site 2's proposal still out")
			}
			st.done = true
			d.completeAbcastLocked(gs, st)

			if _, pending := gs.rounds[id]; pending {
				t.Error("the completed round is still in the copy's rounds")
			}
			rec, delivered := gs.recent.Get(id)
			committed := slices.ContainsFunc(d.buildReportLocked(gs).Abcasts, func(ab abPendingWire) bool { return ab.ID == id && ab.Committed && ab.Priority == st.maxPrio })
			if delivered == blocked || committed != blocked || delivered && rec.prio != st.maxPrio {
				t.Errorf("after completeAbcastLocked: delivered=%v (final %d, want %d), reported committed=%v", delivered, rec.prio, st.maxPrio, committed)
			}
		})
	}
}

// TestScenarioFlushCompletesDeliveredStraggler pins the limbo class the
// quickstart marker invariant first exposed: ABCAST A was delivered at one
// member site before the wedge but is still an uncommitted pending entry at
// the others (its commit is in flight), while ABCAST B — which the flush
// drives to commit — sits behind A in their priority queues. The delivering
// site's Recent report carries A's final priority, so the flush must
// complete A everywhere (not merely re-disseminate its payload) and deliver
// both A and B before the marker at every member; without it, B stays
// blocked behind A's unresolved entry and surfaces after the view change at
// exactly the sites that missed A's commit.
func TestScenarioFlushCompletesDeliveredStraggler(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "limbo", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "limbo")
	view, ok := tc.daemons[1].CurrentView(gid)
	if !ok {
		t.Fatal("no view at site 1")
	}

	// ABCAST A from the site-2 member: phase 1 everywhere, commit applied at
	// site 2 only (sites 1 and 3 hold uncommitted entries).
	idA := core.MsgID{Sender: procs[1].addr, Seq: 77}
	pktA := dataPkt(t, ABCAST, gid, view.ID, idA, view.RankOf(procs[1].addr), body("limbo-a"))
	tc.daemons[1].handleTransport(2, pktA.raw)
	tc.daemons[2].handleTransport(1, pktA.raw)
	tc.daemons[3].handleTransport(2, pktA.raw)
	commitA := abRecord{group: gid, id: idA, prio: 1}
	tc.daemons[2].handleTransport(2, commitA.encode(ptAbCommit))
	waitFor(t, "A delivered at site 2", 2*time.Second, func() bool { return procs[1].got("limbo-a") })

	// ABCAST B: phase 1 at every site, no commit — the flush will drive it.
	// Its proposals land above A's, so at sites 1 and 3 it queues behind A.
	idB := core.MsgID{Sender: procs[0].addr, Seq: 78}
	pktB := dataPkt(t, ABCAST, gid, view.ID, idB, view.RankOf(procs[0].addr), body("limbo-b"))
	tc.daemons[1].handleTransport(3, pktB.raw)
	tc.daemons[2].handleTransport(1, pktB.raw)
	tc.daemons[3].handleTransport(1, pktB.raw)

	if _, err := tc.daemons[1].Multicast(procs[0].addr, GBCAST, addr.List{gid}, addr.EntryUserBase, body("marker")); err != nil {
		t.Fatalf("marker GBCAST: %v", err)
	}
	waitFor(t, "A, B, and the marker at every member", 5*time.Second, func() bool {
		for _, p := range procs {
			if !p.got("limbo-a") || !p.got("limbo-b") || !p.got("marker") {
				return false
			}
		}
		return true
	})
	for i, p := range procs {
		mi := bodyIndex(p, "marker")
		if ai := bodyIndex(p, "limbo-a"); ai > mi {
			t.Errorf("member %d delivered the limbo straggler after the marker (%d > %d)", i, ai, mi)
		}
		if bi := bodyIndex(p, "limbo-b"); bi > mi {
			t.Errorf("member %d delivered the driven ABCAST after the marker (%d > %d): blocked behind the unresolved straggler", i, bi, mi)
		}
	}

	// The straggler's in-flight commit finally thaws: no duplicates.
	tc.daemons[1].handleTransport(2, commitA.encode(ptAbCommit))
	tc.daemons[3].handleTransport(2, commitA.encode(ptAbCommit))
	time.Sleep(100 * time.Millisecond)
	for i, p := range procs {
		if n := countBody(p, "limbo-a"); n != 1 {
			t.Errorf("member %d delivered the straggler %d times, want 1", i, n)
		}
	}
}

// TestScenarioAbcastNeverStraddlesWedge races concurrent ABCASTs against a
// GBCAST marker, repeatedly, and pins the quickstart invariant: whatever
// side of the marker an ABCAST lands on, it is the same side at every
// member site, and every member delivers it exactly once.
func TestScenarioAbcastNeverStraddlesWedge(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "straddle", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "straddle")

	for round := 0; round < 5; round++ {
		a0 := fmt.Sprintf("ab-%d-0", round)
		a1 := fmt.Sprintf("ab-%d-1", round)
		marker := fmt.Sprintf("marker-%d", round)
		if _, err := tc.daemons[1].Multicast(procs[0].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body(a0)); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.daemons[2].Multicast(procs[1].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body(a1)); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.daemons[1].Multicast(procs[0].addr, GBCAST, addr.List{gid}, addr.EntryUserBase, body(marker)); err != nil {
			t.Fatalf("round %d marker: %v", round, err)
		}
		waitFor(t, "round deliveries everywhere", 10*time.Second, func() bool {
			for _, p := range procs {
				if !p.got(a0) || !p.got(a1) || !p.got(marker) {
					return false
				}
			}
			return true
		})
		for _, ab := range []string{a0, a1} {
			assertSameSideOfMarker(t, procs, ab, marker)
			for i, p := range procs {
				if n := countBody(p, ab); n != 1 {
					t.Errorf("round %d: member %d delivered %q %d times, want 1", round, i, ab, n)
				}
			}
		}
	}
}

// TestScenarioStragglerResolicitation reproduces the watchdog priority
// divergence: a member site holds an uncommitted ABCAST at the head of its
// total-order queue whose commit is frozen on the initiator's link, while a
// later, fully committed ABCAST queues up behind it. The member must
// re-solicit the commit record — and, because the initiator's link never
// answers, rotate to another member site that has applied the commit — and
// deliver both messages in priority order without waiting for a flush.
func TestScenarioStragglerResolicitation(t *testing.T) {
	net := simnet.New(simnet.FastConfig())
	tc := &testCluster{t: t, net: net, daemons: make(map[addr.SiteID]*Daemon)}
	for i := 1; i <= 3; i++ {
		d, err := New(Config{
			Site:           addr.SiteID(i),
			Network:        net,
			CallTimeout:    time.Second,
			ResolicitAfter: 150 * time.Millisecond,
			Detector:       quietDetector(),
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.daemons[addr.SiteID(i)] = d
	}
	t.Cleanup(func() {
		for _, d := range tc.daemons {
			d.Close()
		}
		net.Close()
	})

	procs := buildGroup(t, tc, "straggle", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "straggle")
	view, ok := tc.daemons[1].CurrentView(gid)
	if !ok {
		t.Fatal("no view at site 1")
	}

	// Everything from site 1 toward site 3 freezes: site 3 will see neither
	// the original phase 1 nor the commit from the site-1 initiator.
	tc.net.PauseLink(1, 3)
	mid, err := tc.daemons[1].Multicast(procs[0].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("slow"))
	if err != nil {
		t.Fatal(err)
	}
	// Hand site 3 the phase-1 packet directly (as if it had squeaked through
	// just before the pause): its member proposes, and the proposal reaches
	// the initiator — which commits, but whose commit is now frozen.
	tc.daemons[3].handleTransport(1, dataPkt(t, ABCAST, gid, view.ID, mid, view.RankOf(procs[0].addr), body("slow")).raw)

	waitFor(t, "commit at sites 1 and 2", 5*time.Second, func() bool {
		return procs[0].got("slow") && procs[1].got("slow")
	})

	// A later ABCAST from site 2 commits everywhere, but at site 3 it queues
	// behind the uncommitted straggler.
	if _, err := tc.daemons[2].Multicast(procs[1].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("later")); err != nil {
		t.Fatal(err)
	}

	// Re-solicitation must unblock site 3 while the initiator link is STILL
	// frozen: the first ask (to the sender's site 1) gets no answer back,
	// the rotation reaches site 2, which answers from its commit record.
	waitFor(t, "straggler resolved at site 3 via re-solicitation", 10*time.Second, func() bool {
		return procs[2].got("slow") && procs[2].got("later")
	})
	if si, li := bodyIndex(procs[2], "slow"), bodyIndex(procs[2], "later"); si > li {
		t.Errorf("site 3 delivered the straggler after the later ABCAST (%d > %d): total order violated", si, li)
	}

	// Releasing the frozen original commit must not re-deliver.
	tc.net.ResumeLink(1, 3)
	time.Sleep(200 * time.Millisecond)
	for i, p := range procs {
		if n := countBody(p, "slow"); n != 1 {
			t.Errorf("member %d delivered the straggler %d times, want 1", i, n)
		}
	}
}
