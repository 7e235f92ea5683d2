package protos

// A GBCAST request from a site that hosts a primary copy of the group carries
// that copy's answer to the round's prepare: the copy wedges when the request
// leaves, and the coordinator files the answer as its own when the round opens
// in the hold that receives the request, so it prepares only the other member
// sites. An answer the round cannot use is ignored and the site is prepared as
// before; the coordinator's answer to the carrying try ends the flush the try
// opened, if nothing else has. Each test holds the racing packet on a paused
// link, in a group of three members at sites 1-3 whose coordinator is site 1.

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/events"
)

// carryCluster builds the group on a shapeNet with the given call timeouts,
// one per site, and returns once every site's packets are acknowledged, so a
// snapshot taken then holds everything sent before.
func carryCluster(t *testing.T, name string, callTimeouts ...time.Duration) (*testCluster, *shapeNet, []*testProc, addr.Address) {
	t.Helper()
	tc, fab := newShapeCluster(t, callTimeouts...)
	procs := buildGroup(t, tc, name, 1, 2, 3)
	waitFor(t, "every site's packets acknowledged", 5*time.Second, func() bool {
		return !slices.ContainsFunc([]addr.SiteID{1, 2, 3}, func(s addr.SiteID) bool { return tc.daemons[s].tr.Unacked() != 0 })
	})
	return tc, fab, procs, groupOf(t, tc, procs[0], name)
}

// countSent counts the packets of type pt among what since listed, from one site
// to another.
func countSent(sent []string, from, to addr.SiteID, pt byte) int {
	return len(slices.DeleteFunc(slices.Clone(sent), func(s string) bool { return s != fmt.Sprintf("%d>%d type %d", from, to, pt) }))
}

// silentSites reads the sites the coordinator's open round waits for, and
// whether a round is open.
func silentSites(d *Daemon, gid addr.Address) ([]addr.SiteID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r := d.groups[gid].round; r != nil {
		return slices.Clone(r.silent), true
	}
	return nil, false
}

func phaseAt(d *Daemon, gid addr.Address) phase {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.groups[gid].phase
}

// TestMemberLeaveSendsItsSiteNoPrepare has the member at site 3 leave, with
// site 1's link to site 2 paused. The leave's round must wait for site 2 alone:
// the request carried site 3's answer. Site 3 is sent the commit and the done,
// and no prepare, and sends nothing but the request.
func TestMemberLeaveSendsItsSiteNoPrepare(t *testing.T) {
	tc, fab, procs, gid := carryCluster(t, "carry", 2*time.Second, 2*time.Second, 2*time.Second)
	before := fab.snapshot()
	tc.net.PauseLink(1, 2)
	left := make(chan error, 1)
	go func() { left <- tc.daemons[3].Leave(procs[2].addr, gid) }()
	waitFor(t, "the leave's round open", 5*time.Second, func() bool { _, open := silentSites(tc.daemons[1], gid); return open })
	if silent, _ := silentSites(tc.daemons[1], gid); !slices.Equal(silent, []addr.SiteID{2}) {
		t.Errorf("the leave's round waits for sites %v, want site 2 alone", silent)
	}
	tc.net.ResumeLink(1, 2)
	if err := <-left; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the leave's view at sites 1 and 2", 5*time.Second, func() bool {
		return procs[0].lastView().Size() == 2 && procs[1].lastView().Size() == 2
	})
	want := []string{"1>2 type 51", "1>2 type 53", "1>3 type 50", "1>3 type 53", "2>1 type 52", "3>1 type 49"}
	if got := fab.since(before); !slices.Equal(got, want) {
		t.Errorf("a member's leave sent\n%s\nwant\n%s", strings.Join(got, ", "), strings.Join(want, ", "))
	}
}

// TestSendersCastsBeforeItsSitesLeaveReachEveryMember has the member at site 3
// cast a CBCAST c and an ABCAST a and then leave, with site 3's link to site 2
// paused until the leave has committed everywhere. Site 3's carried answer
// reports c, the holder's own reports a, and the commit hands both to site 2:
// every member delivers c, then a, once each, before the leave's view.
func TestSendersCastsBeforeItsSitesLeaveReachEveryMember(t *testing.T) {
	tc, _, procs, gid := carryCluster(t, "castleave", 2*time.Second, 2*time.Second, 2*time.Second)
	tc.net.PauseLink(3, 2)
	if err := cast(procs[2], CBCAST, gid, "c"); err != nil {
		t.Fatal(err)
	}
	if err := cast(procs[2], ABCAST, gid, "a"); err != nil {
		t.Fatal(err)
	}
	if err := tc.daemons[3].Leave(procs[2].addr, gid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the leave's view at sites 1 and 2", 5*time.Second, func() bool {
		return procs[0].lastView().Size() == 2 && procs[1].lastView().Size() == 2
	})
	left := procs[0].lastView().ID
	for i, p := range procs[:2] {
		if !beforeView(p, left, "c", "a") {
			t.Errorf("site %d delivered %v with the link from site 3 held, want c and a before view %d", i+1, p.bodies(), left)
		}
	}
	tc.net.ResumeLink(3, 2)
	// One more cast flushes out a second delivery of the held c, if any.
	if err := cast(procs[0], CBCAST, gid, "after"); err != nil {
		t.Fatal(err)
	}
	assertDelivered(t, procs[:2], "c", "a", "after")
	if got := procs[2].bodies(); !slices.Equal(got, []string{"c", "a"}) {
		t.Errorf("the leaver delivered %v, want c then a", got)
	}
}

// TestRequestBehindAnOpenRoundIsPrepared holds site 1's user GBCAST round on
// its paused link to site 3 and has site 3 leave meanwhile: site 3's copy,
// not yet prepared, carries its answer, but the request is queued behind the
// open round, whose commit site 3 delivers after it answered. The leave's
// round must ignore that answer and prepare site 3 again.
func TestRequestBehindAnOpenRoundIsPrepared(t *testing.T) {
	tc, fab, procs, gid := carryCluster(t, "behind", 2*time.Second, 2*time.Second, 2*time.Second)
	d1 := tc.daemons[1]
	before := fab.snapshot()
	tc.net.PauseLink(1, 3)
	marker := make(chan error, 1)
	go func() { marker <- cast(procs[0], GBCAST, gid, "marker") }()
	waitFor(t, "the marker's round waiting for site 3", 5*time.Second, func() bool {
		silent, _ := silentSites(d1, gid)
		return slices.Equal(silent, []addr.SiteID{3})
	})
	left := make(chan error, 1)
	go func() { left <- tc.daemons[3].Leave(procs[2].addr, gid) }()
	waitFor(t, "the leave queued behind the marker", 5*time.Second, func() bool {
		d1.mu.Lock()
		defer d1.mu.Unlock()
		return len(d1.groups[gid].gbQueue) == 1
	})
	tc.net.ResumeLink(1, 3)
	for _, ch := range []chan error{marker, left} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the leave's view at sites 1 and 2", 5*time.Second, func() bool {
		return procs[0].lastView().Size() == 2 && procs[1].lastView().Size() == 2
	})
	sent := fab.since(before)
	if n, m := countSent(sent, 1, 3, ptGbPrepare), countSent(sent, 3, 1, ptGbAck); n != 2 || m != 2 {
		t.Errorf("site 3 was sent %d prepares and answered %d, want one of each for the marker and for the leave:\n%s", n, m, strings.Join(sent, ", "))
	}
	assertDelivered(t, procs, "marker")
}

// TestNoOpRequestEndsItsSitesFlushAtTheAnswer has site 3 ask for the leave of a
// process of its own that is not a member, with the coordinator's link back to
// site 3 paused. The request carried site 3's answer, so its copy flushes and a
// sender there waits; the coordinator answers at once, with no round. When the
// answer arrives the flush ends and the sender goes on, long before the
// watchdog's 4 x CallTimeout.
func TestNoOpRequestEndsItsSitesFlushAtTheAnswer(t *testing.T) {
	const callTimeout = 2 * time.Second
	tc, _, procs, gid := carryCluster(t, "noop", callTimeout, callTimeout, callTimeout)
	d3 := tc.daemons[3]
	flushes, cancel := d3.Events(events.Filter{Kinds: []events.Kind{events.FlushComplete}, Group: gid}, 4)
	defer cancel()
	tc.net.PauseLink(1, 3)
	left := make(chan error, 1)
	go func() { left <- d3.Leave(tc.newProc(3).addr, gid) }()
	waitFor(t, "site 3's copy flushing", 5*time.Second, func() bool { return phaseAt(d3, gid) == phaseFlushing })
	sent := make(chan error, 1)
	go func() { sent <- cast(procs[2], CBCAST, gid, "held") }()
	if len(sent) > 0 || procs[2].got("held") || phaseAt(d3, gid) != phaseFlushing {
		t.Fatal("site 3's sender went through with the answer held")
	}
	tc.net.ResumeLink(1, 3)
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(callTimeout):
		t.Fatal("the sender still waits a CallTimeout after the answer was let through")
	}
	if err := <-left; err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-flushes:
		if ev.Detail != "request answered" {
			t.Errorf("site 3's flush ended with %v, want FlushComplete request answered", ev)
		}
	default:
		t.Error("site 3 published no FlushComplete")
	}
	assertDelivered(t, procs, "held")
}

// TestCarryingTryTimedOutWaitsForTheCommit has site 3 join a second process of
// its own with its link to the coordinator paused: the first try carries site
// 3's answer and times out, the next carries nothing. A CBCAST x that site 2
// casts meanwhile is parked at site 3, whose copy delivers nothing until the
// commit. Once the link resumes, the first request runs with the answer it
// carried, the commit hands x to site 3 before the join's view, the second
// request is answered from the commit record, and every member holds one
// view sequence.
func TestCarryingTryTimedOutWaitsForTheCommit(t *testing.T) {
	const tryTimeout = 500 * time.Millisecond // the watchdog's 4x leaves room to resume
	tc, _, procs, gid := carryCluster(t, "timedout", 2*time.Second, 2*time.Second, tryTimeout)
	d3 := tc.daemons[3]
	tc.net.PauseLink(3, 1)
	second := tc.newProc(3)
	joined := make(chan joinResult, 1)
	go func() {
		v, err := d3.Join(second.addr, gid, JoinOptions{})
		joined <- joinResult{v, err}
	}()
	waitFor(t, "site 3's copy flushing", 5*time.Second, func() bool { return phaseAt(d3, gid) == phaseFlushing })
	if err := cast(procs[1], CBCAST, gid, "x"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "x at site 1 and parked at site 3", 5*time.Second, func() bool { return procs[0].got("x") && parkedAt(d3, gid) == 1 })
	waitFor(t, "site 3's second try in flight", 5*time.Second, func() bool {
		d3.mu.Lock()
		defer d3.mu.Unlock()
		q := d3.requests[gid]
		return len(q) == 1 && q[0].tries >= 2 && q[0].call != 0
	})
	if got := procs[2].bodies(); len(got) != 0 || phaseAt(d3, gid) != phaseFlushing {
		t.Fatalf("site 3 delivered %v after its first try timed out, want nothing while it flushes", got)
	}
	tc.net.ResumeLink(3, 1)
	r := <-joined
	if r.err != nil {
		t.Fatal(r.err)
	}
	waitFor(t, "the join's view at every member", 5*time.Second, func() bool {
		return !slices.ContainsFunc(append(procs, second), func(p *testProc) bool { return p.lastView().ID < r.view.ID })
	})
	for i, p := range procs {
		if !beforeView(p, r.view.ID, "x") {
			t.Errorf("site %d delivered %v, want x once, before view %d", i+1, p.bodies(), r.view.ID)
		}
		assertViewIDsStrictlyIncreasing(t, fmt.Sprintf("member %d", i+1), p)
		if v := p.lastView(); v.ID != r.view.ID || !slices.Equal(v.Members, r.view.Members) {
			t.Errorf("member %d holds view %v, the join committed %v", i+1, v, r.view)
		}
	}
	if v := second.lastView(); v.ID != r.view.ID || second.numViews() != 1 {
		t.Errorf("the joiner saw %d views, the last %v; want the join's view %v alone", second.numViews(), v, r.view)
	}
}
