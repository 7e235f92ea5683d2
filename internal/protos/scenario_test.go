package protos

// Fault-injection scenario suite: drives the GBCAST/ABCAST protocols through
// coordinator crashes, partial commits, lossy links, and stale retransmitted
// packets using the simnet link faults (Partition, PauseLink). These are the
// failure claims of the paper (Sections 2.2, 4): a membership change never
// gets lost when its coordinator dies mid-protocol, and the ABCAST atomicity
// rule ("committed anywhere means committed everywhere; uncommitted from a
// failed sender means nowhere") holds across site crashes.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/msg"
	"repro/internal/simnet"
)

// scenarioDetector is the failure-detector configuration used by the crash
// scenarios: fast enough that takeover happens within a few hundred ms.
func scenarioDetector() fdetect.Config {
	return fdetect.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		InitialTimeout:    150 * time.Millisecond,
		MinTimeout:        100 * time.Millisecond,
		MaxTimeout:        500 * time.Millisecond,
		DeviationFactor:   4,
	}
}

// newFaultCluster is newTestCluster with the network, call timeout, and
// detector under the test's control. The zero detector is one the test steps:
// heartbeats are off and nobody is suspected until crash says so.
func newFaultCluster(t *testing.T, sites int, netCfg simnet.Config, callTimeout time.Duration, det fdetect.Config) *testCluster {
	t.Helper()
	net := simnet.New(netCfg)
	tc := &testCluster{t: t, net: net, daemons: make(map[addr.SiteID]*Daemon)}
	for i := 1; i <= sites; i++ {
		d, err := New(Config{
			Site:              addr.SiteID(i),
			Network:           net,
			CallTimeout:       callTimeout,
			Detector:          det,
			DisableHeartbeats: det == fdetect.Config{},
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
	return tc
}

// crash closes a site's daemon and has every other site's failure detector
// report it at once, for clusters whose detector the test steps.
func (tc *testCluster) crash(site addr.SiteID) {
	tc.daemons[site].Close()
	for s, d := range tc.daemons {
		if s != site {
			d.onDetectorEvent(fdetect.Event{Site: site, Kind: fdetect.SiteFailed})
		}
	}
}

// assertViewIDsStrictlyIncreasing fails if the process observed the same (or
// an older) view id twice — the signature of a duplicate deliverView callback
// from a re-applied commit.
func assertViewIDsStrictlyIncreasing(t *testing.T, name string, p *testProc) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 1; i < len(p.views); i++ {
		if p.views[i].ID <= p.views[i-1].ID {
			t.Errorf("%s: view ids not strictly increasing at position %d: %d then %d",
				name, i, p.views[i-1].ID, p.views[i].ID)
		}
	}
}

// countBody counts deliveries of a given payload body at a process.
func countBody(p *testProc, body string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, m := range p.msgs {
		if m.GetString("body", "") == body {
			n++
		}
	}
	return n
}

type joinResult struct {
	view core.View
	err  error
}

// TestScenarioCoordinatorCrashMidFlushJoinCompletes crashes the coordinator
// site while its phase-1 prepare for a join is frozen in the network. The
// next-oldest member must take over, re-run the wedge/flush, and the join —
// re-submitted by the requester with its stable request id — must complete at
// the survivors with exactly one view installation per change.
func TestScenarioCoordinatorCrashMidFlushJoinCompletes(t *testing.T) {
	coordinatorCrashMidFlushJoinCompletes(t)
}

func coordinatorCrashMidFlushJoinCompletes(t *testing.T) *testCluster {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), time.Second, scenarioDetector())
	procs := buildGroup(t, tc, "takeover", 1, 2)
	gid := groupOf(t, tc, procs[0], "takeover")

	joiner := tc.newProc(3)
	if _, err := tc.daemons[3].Lookup("takeover"); err != nil {
		t.Fatal(err)
	}

	// Freeze the coordinator's traffic toward the other member so the flush
	// cannot finish, then crash the coordinator mid-protocol.
	tc.net.PauseLink(1, 2)
	done := make(chan joinResult, 1)
	go func() {
		v, err := tc.daemons[3].Join(joiner.addr, gid, JoinOptions{})
		done <- joinResult{v, err}
	}()
	time.Sleep(200 * time.Millisecond) // request reaches site 1; its prepare is held
	tc.daemons[1].Close()
	tc.net.ResumeAll()

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("join across coordinator crash: %v", r.err)
		}
		if !r.view.Contains(joiner.addr) {
			t.Errorf("join returned a view without the joiner: %v", r.view)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("join never completed after the coordinator crash")
	}

	// Survivors converge on {old member at site 2, joiner}.
	waitFor(t, "final takeover view at the survivors", 10*time.Second, func() bool {
		v2, v3 := procs[1].lastView(), joiner.lastView()
		return v2.Size() == 2 && v2.Contains(joiner.addr) && !v2.Contains(procs[0].addr) &&
			v3.Size() == 2 && v3.Contains(joiner.addr)
	})
	assertViewIDsStrictlyIncreasing(t, "survivor", procs[1])
	assertViewIDsStrictlyIncreasing(t, "joiner", joiner)

	// The group keeps working under its new coordinator.
	if _, err := tc.daemons[2].Multicast(procs[1].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("post-takeover")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-takeover delivery at the joiner", 5*time.Second, func() bool {
		return joiner.got("post-takeover")
	})
	return tc
}

// TestScenarioCoordinatorCrashAfterPartialCommitDedupes crashes the
// coordinator after its commit reached the surviving member but before its
// answer reached the requester. The re-submitted request (same stable id)
// must be answered by the successor from the commit record — executed zero
// additional times — and the requester's site must still converge on the
// final view via the successor's forced takeover flush.
func TestScenarioCoordinatorCrashAfterPartialCommitDedupes(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), time.Second, scenarioDetector())
	procs := buildGroup(t, tc, "dedupe", 1, 2)
	gid := groupOf(t, tc, procs[0], "dedupe")

	joiner := tc.newProc(3)
	if _, err := tc.daemons[3].Lookup("dedupe"); err != nil {
		t.Fatal(err)
	}

	// Hold everything from the coordinator toward the requester: the commit
	// reaches site 2, but neither the commit nor the gbDone answer reaches
	// site 3.
	tc.net.PauseLink(1, 3)
	done := make(chan joinResult, 1)
	go func() {
		v, err := tc.daemons[3].Join(joiner.addr, gid, JoinOptions{})
		done <- joinResult{v, err}
	}()
	waitFor(t, "join commit at the surviving member", 5*time.Second, func() bool {
		return procs[1].lastView().Size() == 3
	})
	tc.daemons[1].Close()

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("re-submitted join: %v", r.err)
		}
		if !r.view.Contains(joiner.addr) {
			t.Errorf("join answered with a view without the joiner: %v", r.view)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("re-submitted join never completed")
	}

	waitFor(t, "final views after the takeover flush", 10*time.Second, func() bool {
		v2, v3 := procs[1].lastView(), joiner.lastView()
		return v2.Size() == 2 && v2.Contains(joiner.addr) &&
			v3.Size() == 2 && v3.Contains(joiner.addr)
	})

	// The successor must have executed exactly one GBCAST protocol run: the
	// forced takeover flush. The re-submitted join was answered from the
	// commit record (gbSeq/gbDone dedupe), not executed a second time.
	if got := tc.daemons[2].Counters().GBCASTs; got != 1 {
		t.Errorf("successor executed %d GBCAST protocol runs, want 1 (takeover flush only)", got)
	}
	assertViewIDsStrictlyIncreasing(t, "survivor", procs[1])
	assertViewIDsStrictlyIncreasing(t, "joiner", joiner)

	// Release the dead coordinator's held commit: it is a stale view (same
	// id as one already superseded) and a completed request id, so it must
	// change nothing.
	tc.net.ResumeAll()
	time.Sleep(300 * time.Millisecond)
	assertViewIDsStrictlyIncreasing(t, "survivor after stale commit", procs[1])
	assertViewIDsStrictlyIncreasing(t, "joiner after stale commit", joiner)
	if v := procs[1].lastView(); v.Size() != 2 {
		t.Errorf("stale commit disturbed the final view: %v", v)
	}

	if _, err := tc.daemons[2].Multicast(procs[1].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("settled")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery at the joiner after settling", 5*time.Second, func() bool {
		return joiner.got("settled")
	})
}

// TestScenarioCoordinatorLeaveCrashResyncsStaleMember has the coordinator's
// own member leave the group; the commit reaches the successor but not the
// third member, and the coordinator site then crashes. The successor's
// current view holds no member at the dead site, but it must still run a
// forced re-sync flush (the dead site hosted members one view ago) so the
// member left behind catches up instead of keeping the stale view forever.
func TestScenarioCoordinatorLeaveCrashResyncsStaleMember(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), time.Second, scenarioDetector())
	procs := buildGroup(t, tc, "resync", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "resync")

	// The commit removing the coordinator's member reaches site 2 only.
	tc.net.PauseLink(1, 3)
	if err := tc.daemons[1].Leave(procs[0].addr, gid); err != nil {
		t.Fatalf("leave: %v", err)
	}
	waitFor(t, "leave commit at the successor", 5*time.Second, func() bool {
		return procs[1].lastView().Size() == 2
	})
	tc.daemons[1].Close()

	waitFor(t, "stale member resynced by the takeover flush", 10*time.Second, func() bool {
		v := procs[2].lastView()
		return v.Size() == 2 && !v.Contains(procs[0].addr)
	})
	assertViewIDsStrictlyIncreasing(t, "successor", procs[1])
	assertViewIDsStrictlyIncreasing(t, "resynced member", procs[2])

	// The resynced member participates in new traffic.
	if _, err := tc.daemons[2].Multicast(procs[1].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("caught-up")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery at the resynced member", 5*time.Second, func() bool {
		return procs[2].got("caught-up")
	})
}

// TestScenarioAbcastFromCrashedSenderDiscarded crashes an ABCAST sender's
// site during phase 1, before any member learned a final priority. The
// takeover flush must apply the "none" branch of the atomicity rule: the
// message is discarded everywhere and never delivered.
func TestScenarioAbcastFromCrashedSenderDiscarded(t *testing.T) {
	// Nobody is suspected while the link is held (a detector timing out on the
	// silent link used to race the round): the crash is the only event.
	tc := newFaultCluster(t, 3, simnet.FastConfig(), 5*time.Second, fdetect.Config{})
	procs := buildGroup(t, tc, "atomic", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "atomic")

	// Phase 1 reaches site 2 (a pending, uncommitted proposal) but never
	// site 3; the sender dies before its watchdog can commit.
	tc.net.PauseLink(1, 3)
	if _, err := tc.daemons[1].Multicast(procs[0].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("doomed")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "phase 1 at site 2", 5*time.Second, func() bool {
		d := tc.daemons[2]
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.groups[gid].total.PendingCount() == 1
	})
	tc.crash(1)

	waitFor(t, "failure views at the survivors", 10*time.Second, func() bool {
		return procs[1].lastView().Size() == 2 && procs[2].lastView().Size() == 2
	})
	// Release the held phase-1 straggler: the sender is now a known-failed
	// process, so it must be dropped on arrival.
	tc.net.ResumeAll()
	time.Sleep(300 * time.Millisecond)
	if procs[1].got("doomed") || procs[2].got("doomed") {
		t.Error("uncommitted ABCAST from the crashed sender was delivered")
	}

	// The survivors' total order still works.
	if _, err := tc.daemons[2].Multicast(procs[1].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("alive")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-crash ABCAST at the survivors", 10*time.Second, func() bool {
		return procs[1].got("alive") && procs[2].got("alive")
	})
}

// TestScenarioAbcastPartialCommitFinishedByTakeoverFlush crashes an ABCAST
// sender's site after its commit reached one member but not the other. The
// takeover flush must apply the "all" branch of the atomicity rule: the
// member that missed the commit delivers the message (exactly once) through
// the flush's re-dissemination, before the failure view.
func TestScenarioAbcastPartialCommitFinishedByTakeoverFlush(t *testing.T) {
	// Nobody is suspected while the link is held (a detector timing out on the
	// silent link used to race the watchdog): only the round's deadline can end
	// the round, and only the crash the view.
	tc := newFaultCluster(t, 3, simnet.FastConfig(), time.Second, fdetect.Config{})
	procs := buildGroup(t, tc, "finish", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "finish")

	// Site 3 sees neither phase 1 nor the commit; site 2 commits and
	// delivers once the sender's watchdog fires.
	tc.net.PauseLink(1, 3)
	if _, err := tc.daemons[1].Multicast(procs[0].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("keep")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "commit at site 2", 5*time.Second, func() bool { return procs[1].got("keep") })
	tc.crash(1)

	waitFor(t, "failure views at the survivors", 10*time.Second, func() bool {
		return procs[1].lastView().Size() == 2 && procs[2].lastView().Size() == 2
	})
	waitFor(t, "flush re-dissemination at site 3", 5*time.Second, func() bool {
		return procs[2].got("keep")
	})

	// Releasing the held phase-1/commit stragglers must not re-deliver.
	tc.net.ResumeAll()
	time.Sleep(300 * time.Millisecond)
	if n := countBody(procs[1], "keep"); n != 1 {
		t.Errorf("site 2 delivered the ABCAST %d times, want 1", n)
	}
	if n := countBody(procs[2], "keep"); n != 1 {
		t.Errorf("site 3 delivered the ABCAST %d times, want 1", n)
	}
}

// TestScenarioLossyLinkViewChange runs a membership change over links that
// drop a fifth of all packets: the transport's retransmission must carry the
// GBCAST through, every survivor must converge on the same final view, and
// no view may be installed twice.
func TestScenarioLossyLinkViewChange(t *testing.T) {
	det := fdetect.Config{
		HeartbeatInterval: 20 * time.Millisecond,
		InitialTimeout:    time.Second,
		MinTimeout:        800 * time.Millisecond,
		MaxTimeout:        2 * time.Second,
		DeviationFactor:   6,
	}
	tc := newFaultCluster(t, 3, simnet.LossyConfig(0.2, 11), 2*time.Second, det)
	procs := buildGroup(t, tc, "lossy", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "lossy")

	const k = 10
	for i := 0; i < k; i++ {
		if _, err := tc.daemons[1].Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body(fmt.Sprintf("l%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tc.daemons[2].Leave(procs[1].addr, gid); err != nil {
		t.Fatalf("leave under loss: %v", err)
	}
	waitFor(t, "converged post-leave views", 10*time.Second, func() bool {
		v1, v3 := procs[0].lastView(), procs[2].lastView()
		return v1.Size() == 2 && v3.Size() == 2 &&
			!v1.Contains(procs[1].addr) && !v3.Contains(procs[1].addr)
	})
	waitFor(t, "all pre-leave CBCASTs despite loss", 10*time.Second, func() bool {
		for i := 0; i < k; i++ {
			if !procs[2].got(fmt.Sprintf("l%02d", i)) {
				return false
			}
		}
		return true
	})
	assertViewIDsStrictlyIncreasing(t, "member 1", procs[0])
	assertViewIDsStrictlyIncreasing(t, "member 3", procs[2])
}

// TestDuplicateGbCommitReplayIsStale replays GBCAST commits directly into a
// member site: a membership commit carrying the already-installed view id
// must not re-install it or re-notify members, and a user-payload commit
// with an already-applied request id must not deliver its payload again.
func TestDuplicateGbCommitReplayIsStale(t *testing.T) {
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "replay", 1, 2)
	gid := groupOf(t, tc, procs[0], "replay")
	d2 := tc.daemons[2]

	before := procs[1].numViews()
	v, ok := d2.CurrentView(gid)
	if !ok {
		t.Fatal("no current view at site 2")
	}
	commit := msg.New()
	commit.PutAddress(fGroup, gid)
	commit.PutInt(fGbID, 99)
	commit.PutInt(fKind, gbJoin)
	commit.PutAddressList(fProcs, addr.List{procs[1].addr})
	commit.PutMessage(fView, encodeView(v))
	d2.applyGbCommit(1, commit)
	time.Sleep(100 * time.Millisecond)
	if got := procs[1].numViews(); got != before {
		t.Errorf("replayed view commit re-notified the member: %d views -> %d", before, got)
	}

	uc := msg.New()
	uc.PutAddress(fGroup, gid)
	uc.PutInt(fKind, gbUser)
	uc.PutInt(fReqID, 4242)
	uc.PutAddress(fSender, procs[0].addr)
	uc.PutInt(fEntry, int64(addr.EntryUserBase))
	uc.PutMessage(fPayload, body("once"))
	d2.applyGbCommit(1, uc)
	d2.applyGbCommit(1, uc.Clone())
	waitFor(t, "user GBCAST payload", 2*time.Second, func() bool { return procs[1].got("once") })
	time.Sleep(100 * time.Millisecond)
	if n := countBody(procs[1], "once"); n != 1 {
		t.Errorf("replayed user GBCAST delivered %d times, want 1", n)
	}
}

// TestFlushRedeliveryDoesNotDuplicateAbcast injects a pending ABCAST at a
// member site, applies a GBCAST flush commit that re-disseminates the same
// message (another member site delivered it before the flush), and then
// hands the member the late ABCAST commit that was in flight when the group
// wedged: the member must see the message exactly once.
func TestFlushRedeliveryDoesNotDuplicateAbcast(t *testing.T) {
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "noDup", 1, 2)
	gid := groupOf(t, tc, procs[0], "noDup")
	d2 := tc.daemons[2]

	// A phase-1 ABCAST from the member at site 1 leaves a pending,
	// uncommitted entry in the site-2 member's total queue.
	id := core.MsgID{Sender: procs[0].addr, Seq: 77}
	v, ok := d2.CurrentView(gid)
	if !ok {
		t.Fatal("no view at site 2")
	}
	pkt := dataPkt(t, ABCAST, gid, v.ID, id, v.RankOf(procs[0].addr), body("exactly-once")).raw
	d2.handleTransport(1, pkt)

	// The flush re-disseminates it because some member site delivered it
	// before the flush point, so the commit's report lists it under Recent.
	rec := pendingReport{Recent: []recentWire{{ID: id, Packet: pkt}}}
	commit := msg.New()
	commit.PutAddress(fGroup, gid)
	commit.PutInt(fKind, gbUser)
	commit.PutMessage(fRebcast, encodePendingReport(rec))
	d2.applyGbCommit(1, commit)
	waitFor(t, "flush re-dissemination", 2*time.Second, func() bool {
		return procs[1].got("exactly-once")
	})

	// The late commit for the still-pending entry must only advance the
	// queue state, not deliver a second copy.
	d2.handleAbCommit(1, abRecord{group: gid, id: id, prio: 9})
	time.Sleep(100 * time.Millisecond)
	if n := countBody(procs[1], "exactly-once"); n != 1 {
		t.Errorf("member delivered the flushed ABCAST %d times, want exactly 1", n)
	}
}

// TestFailedRelayDoesNotConsumeSequence forces an external-sender CBCAST
// relay to fail at view resolution (the group is unreachable) and then
// verifies that later relays from the same sender are delivered: a sequence
// number consumed by the failed attempt would leave a permanent hole and
// stall every later relayed CBCAST in the receiver's causal queue.
func TestFailedRelayDoesNotConsumeSequence(t *testing.T) {
	tc := newFaultCluster(t, 2, simnet.FastConfig(), 300*time.Millisecond, scenarioDetector())
	member := tc.newProc(1)
	view, err := tc.daemons[1].CreateGroup(member.addr, "gap")
	if err != nil {
		t.Fatal(err)
	}
	gid := view.Group
	client := tc.newProc(2)

	// The client's daemon has never resolved the group; with the link cut,
	// the relay fails during view resolution.
	tc.net.Partition(1, 2)
	if _, err := tc.daemons[2].Multicast(client.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("lost")); err == nil {
		t.Fatal("relay to an unreachable group should fail")
	}
	tc.net.Heal(1, 2)
	waitFor(t, "suspicion to clear after heal", 5*time.Second, func() bool {
		return len(tc.daemons[2].SuspectedSites()) == 0
	})

	for _, b := range []string{"first", "second"} {
		if _, err := tc.daemons[2].Multicast(client.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body(b)); err != nil {
			t.Fatalf("relay after heal: %v", err)
		}
	}
	waitFor(t, "relayed CBCASTs at the member", 5*time.Second, func() bool {
		return member.numMsgs() >= 2
	})
	bs := member.bodies()
	if bs[0] != "first" || bs[1] != "second" {
		t.Fatalf("relayed deliveries = %v (a hole in the FIFO sequence stalls the causal queue)", bs)
	}
}

// TestClosedViewCbcastIsDropped delivers a CBCAST twice across a view change:
// first through the flush, which re-disseminates it to the site its own
// packet has not reached, then — in the new view — the packet itself, stamped
// in the view the flush closed. The stale copy must be dropped at the door: as
// its sender's first message of the old view it reads as the sender's first of
// the new one, and once it has advanced the new clock the real first message
// is a duplicate for good.
func TestClosedViewCbcastIsDropped(t *testing.T) {
	tc := newFaultCluster(t, 4, simnet.FastConfig(), 2*time.Second, slowDetector())
	procs := buildGroup(t, tc, "closedview", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "closedview")
	cast := func(b string) {
		t.Helper()
		if _, err := tc.daemons[2].Multicast(procs[1].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body(b)); err != nil {
			t.Fatal(err)
		}
	}

	tc.net.PauseLink(2, 3)
	cast("x")
	waitFor(t, "x at the sites its packet reaches", 5*time.Second, func() bool { return procs[0].got("x") })
	joiner := tc.newProc(4)
	if _, err := tc.daemons[4].Lookup("closedview"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.daemons[4].Join(joiner.addr, gid, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the join's flush to carry x to site 3", 5*time.Second, func() bool {
		return procs[2].got("x") && procs[2].lastView().Size() == 4
	})

	tc.net.ResumeAll() // x's own packet, stamped in the closed view, arrives now
	cast("y")
	cast("z")
	waitFor(t, "z, and so y before it, at site 3", 5*time.Second, func() bool { return procs[2].got("z") })
	if bs := procs[2].bodies(); !slices.Equal(bs, []string{"x", "y", "z"}) {
		t.Errorf("site 3 delivered %v, want [x y z]", bs)
	}
}
