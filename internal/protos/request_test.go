package protos

// A GBCAST request is a value on the requester: an entry of the group's queue
// at the requesting site, moved by the steps that answer, end or file it. The
// held-state tests below pause links so that requests wait, step the detector
// by hand (newFaultCluster's zero detector) and read what waits: the queues,
// and the goroutines, of which a held request adds none.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/fdetect"
	"repro/internal/simnet"
)

// heldRequestTimeout is the held-request tests' CallTimeout: long enough that
// nothing a held request waits for times out while the test reads it.
const heldRequestTimeout = time.Second

// buildGroups builds n groups named prefix0… with a member at each listed
// site, the first site's the creator, and returns each group's members.
func buildGroups(t *testing.T, tc *testCluster, prefix string, n int, sites ...addr.SiteID) (gids []addr.Address, members [][]*testProc) {
	t.Helper()
	for i := range n {
		name := fmt.Sprintf("%s%d", prefix, i)
		procs := buildGroup(t, tc, name, sites...)
		gids, members = append(gids, groupOf(t, tc, procs[0], name)), append(members, procs)
	}
	return gids, members
}

// heldHeads checks that a daemon's request queues hold one entry for each of
// the groups, with its try in flight, and renders them for a failure.
func heldHeads(t *testing.T, d *Daemon, gids []addr.Address) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, gid := range gids {
		if q := d.requests[gid]; len(q) != 1 || q[0].call == 0 {
			t.Errorf("the requests of group %v are not one entry in flight:%s", gid, requestState(d))
			return
		}
	}
	queued := 0
	for _, q := range d.requests {
		queued += len(q)
	}
	if queued != len(gids) {
		t.Errorf("%d requests queued, want one for each of %d groups:%s", queued, len(gids), requestState(d))
	}
}

// TestSiteCrashUnder20GroupsParksNoGoroutine crashes site 4 under 20 groups
// with a member at each of sites 1 to 4, with site 1 — every group's
// coordinator — cut off from sites 2 and 3 by paused links, and feeds each
// survivor the failure by hand. Site 1 files one removal per group, whose
// round waits for sites 2 and 3: while they are held no goroutine is added,
// and each group's queue at site 1 holds its removal, in flight. Once the
// links resume, every survivor installs the three-member view in all 20.
func TestSiteCrashUnder20GroupsParksNoGoroutine(t *testing.T) {
	tc := newFaultCluster(t, 4, simnet.FastConfig(), heldRequestTimeout, fdetect.Config{})
	gids, members := buildGroups(t, tc, "crash", 20, 1, 2, 3, 4)
	tc.daemons[4].Close()
	tc.net.PauseLink(1, 2)
	tc.net.PauseLink(1, 3)
	before := fewestGoroutines()
	for s := addr.SiteID(1); s <= 3; s++ {
		tc.daemons[s].onDetectorEvent(fdetect.Event{Site: 4, Kind: fdetect.SiteFailed})
	}
	if n := fewestGoroutines(); n > before {
		t.Errorf("%d goroutines while 20 removals are held, %d before the failure", n, before)
	}
	heldHeads(t, tc.daemons[1], gids)

	tc.net.ResumeAll()
	waitFor(t, "the three-member view at every survivor in all 20 groups", 10*time.Second, func() bool {
		for _, procs := range members {
			for _, p := range procs[:3] {
				if v := p.lastView(); v.Size() != 3 || v.Contains(procs[3].addr) {
					return false
				}
			}
		}
		return true
	})
}

// TestKillProcessUnder20GroupsParksNoGoroutine kills a process that is a
// member of 20 groups, with its site's link to the groups' coordinator
// paused. The removals are entries of the 20 queues at the member's site,
// each in flight, and no goroutine is added while they are held; once the
// link resumes, every group removes the member.
func TestKillProcessUnder20GroupsParksNoGoroutine(t *testing.T) {
	tc := newFaultCluster(t, 2, simnet.FastConfig(), heldRequestTimeout, fdetect.Config{})
	d2 := tc.daemons[2]
	member := tc.newProc(2)
	var gids []addr.Address
	var creators []*testProc
	for i := range 20 {
		creator := tc.newProc(1)
		view, err := tc.daemons[1].CreateGroup(creator.addr, fmt.Sprintf("kill%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d2.Join(member.addr, view.Group, JoinOptions{}); err != nil {
			t.Fatal(err)
		}
		gids, creators = append(gids, view.Group), append(creators, creator)
	}
	waitFor(t, "site 2's packets acknowledged", 5*time.Second, func() bool { return d2.tr.Unacked() == 0 })
	tc.net.PauseLink(2, 1)
	before := fewestGoroutines()
	if err := d2.KillProcess(member.addr); err != nil {
		t.Fatal(err)
	}
	if n := fewestGoroutines(); n > before {
		t.Errorf("%d goroutines while 20 removals are held, %d before the kill", n, before)
	}
	heldHeads(t, d2, gids)

	tc.net.ResumeAll()
	waitFor(t, "the member removed from all 20 groups", 10*time.Second, func() bool {
		return !slices.ContainsFunc(creators, func(c *testProc) bool { return c.lastView().Contains(member.addr) })
	})
}

// TestRequestsFromOneSiteRunInOrder joins two processes of one site to one
// group while the site's link to the coordinator is paused. Both requests are
// filed, ids in filing order, but the second is not sent before the first is
// answered — the queue is the per-group serialisation the dedupe marks rest
// on — and the two commit in id order.
func TestRequestsFromOneSiteRunInOrder(t *testing.T) {
	// The transport retransmits nothing within the test, so each frame sent is
	// a packet sent once.
	tc := newFaultCluster(t, 2, simnet.FastConfig(), heldRequestTimeout, fdetect.Config{}, func(c *Config) {
		c.Transport.RetransmitInterval = time.Minute
	})
	creator := tc.newProc(1)
	view, err := tc.daemons[1].CreateGroup(creator.addr, "serial")
	if err != nil {
		t.Fatal(err)
	}
	gid, d2 := view.Group, tc.daemons[2]
	if _, err := d2.Lookup("serial"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "site 2's packets acknowledged", 5*time.Second, func() bool { return d2.tr.Unacked() == 0 })
	rec := simnet.NewRecorder()
	tc.net.SetTracer(rec)
	requests := func() (sent []simnet.Event) {
		for _, e := range rec.Events() {
			if e.Kind == simnet.EventSend && e.From == 2 && e.To == 1 && e.Size > 17 {
				sent = append(sent, e)
			}
		}
		return sent
	}
	tc.net.PauseLink(2, 1)
	done := make(chan joinResult, 2)
	for range 2 {
		go func() {
			v, err := d2.Join(tc.newProc(2).addr, gid, JoinOptions{})
			done <- joinResult{v, err}
		}()
	}
	var queued []*request
	waitFor(t, "both joins filed", 5*time.Second, func() bool {
		d2.mu.Lock()
		defer d2.mu.Unlock()
		queued = slices.Clone(d2.requests[gid])
		return len(queued) == 2
	})
	time.Sleep(50 * time.Millisecond)
	if n := len(requests()); n != 1 {
		t.Fatalf("site 2 sent %d requests with the first unanswered, want 1", n)
	}
	if queued[0].reqID >= queued[1].reqID {
		t.Errorf("the second request's id %#x is not above the first's %#x", queued[1].reqID, queued[0].reqID)
	}

	tc.net.ResumeAll()
	for range 2 {
		if r := <-done; r.err != nil {
			t.Fatalf("join: %v", r.err)
		}
	}
	sent := requests()
	if len(sent) < 2 { // the second is followed by the ack of its prepare
		t.Fatalf("site 2 sent %d frames, want both requests", len(sent))
	}
	evs := rec.Events()
	answered := slices.IndexFunc(evs, func(e simnet.Event) bool {
		return e.Kind == simnet.EventDeliver && e.From == 1 && e.To == 2 && e.Size > 17
	})
	if answered < 0 || sent[1].When.Before(evs[answered].When) {
		t.Error("site 2 sent the second request before the first was answered")
	}
	if first, second := queued[0].resp.view.ID, queued[1].resp.view.ID; first >= second {
		t.Errorf("the first request committed view %d, the second %d: not in id order", first, second)
	}
}
