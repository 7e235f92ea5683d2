package protos

// Regression tests for the relayed multicast. The acknowledgement: a relay
// arriving at a coordinator that cannot fan it out — a non-primary minority
// copy, or a site that no longer hosts the group — is refused with the
// sentinel error travelling back over the wire, instead of being dropped
// with the sender none the wiser. The order: a relayed CBCAST is a CBCAST of
// the member that relays it, so a joiner, a flush and a crashed relay site
// need nothing of their own, and one sender's casts stay in order across
// relay sites because each relay names the stamp of the one before it.

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/simnet"
)

// relay sends one CBCAST to the group from a process that is not a member.
func relay(tc *testCluster, client *testProc, gid addr.Address, b string) error {
	_, err := client.d.Multicast(client.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body(b))
	return err
}

// slowDetector never suspects anybody within a test, so a paused link shows
// as nothing worse than silence.
func slowDetector() fdetect.Config {
	return fdetect.Config{
		HeartbeatInterval: 20 * time.Millisecond,
		InitialTimeout:    time.Minute,
		MinTimeout:        time.Minute,
		MaxTimeout:        2 * time.Minute,
		DeviationFactor:   4,
	}
}

// TestRelayRefusedByNonPrimaryCoordinator strands a group member and an
// external client together in a minority partition. The client's relay
// reaches the minority coordinator, whose copy is wedged read-only; the
// refusal must surface to the client as ErrNonPrimary (reconstructed from
// the wire), and after the partition heals and the minority merges back the
// client's next relay must be delivered — proof the refused relay consumed
// no FIFO sequence number.
func TestRelayRefusedByNonPrimaryCoordinator(t *testing.T) {
	tc := newFaultCluster(t, 4, simnet.FastConfig(), time.Second, scenarioDetector())
	procs := buildGroup(t, tc, "refuse", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "refuse")

	// The client resolves the group before the partition so its daemon holds
	// a cached view naming all three member sites.
	client := tc.newProc(4)
	if _, err := tc.daemons[4].Lookup("refuse"); err != nil {
		t.Fatal(err)
	}

	// Partition {3,4} away from {1,2}: the member at site 3 becomes a
	// minority of one and wedges non-primary; the client can only reach it.
	for _, cut := range [][2]simnet.SiteID{{3, 1}, {3, 2}, {4, 1}, {4, 2}} {
		tc.net.Partition(cut[0], cut[1])
	}
	waitFor(t, "minority copy wedges non-primary", 10*time.Second, func() bool {
		return !tc.daemons[3].GroupPrimary(gid)
	})
	waitFor(t, "client suspects the majority sites", 10*time.Second, func() bool {
		suspected := map[addr.SiteID]bool{}
		for _, s := range tc.daemons[4].Snapshot().Suspected {
			suspected[s] = true
		}
		return suspected[1] && suspected[2]
	})

	if _, err := tc.daemons[4].Multicast(client.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("refused")); !errors.Is(err, ErrNonPrimary) {
		t.Fatalf("relay into a non-primary partition returned %v, want ErrNonPrimary", err)
	}

	// Heal: the minority merges back; the client's next relay must carry the
	// first FIFO sequence number and reach the members.
	tc.net.HealAll()
	waitFor(t, "minority merges back into the primary", 20*time.Second, func() bool {
		v := procs[0].lastView()
		return v.Size() == 3 && v.Contains(procs[2].addr) && tc.daemons[3].GroupPrimary(gid)
	})
	waitFor(t, "post-heal relay delivered", 10*time.Second, func() bool {
		if _, err := tc.daemons[4].Multicast(client.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("after-heal")); err != nil {
			return false
		}
		time.Sleep(50 * time.Millisecond)
		return procs[0].got("after-heal")
	})
	if procs[0].got("refused") || procs[1].got("refused") {
		t.Error("a refused relay was delivered anyway")
	}
}

// TestRelayToVanishedGroupSurfacesError relays to a group whose only member
// has left: the stale cached view routes the relay to a site that no longer
// hosts the group, the refusal comes back as ErrUnknownGroup, the automatic
// view refresh finds the group gone, and the sender gets the sentinel
// instead of a silent drop.
func TestRelayToVanishedGroupSurfacesError(t *testing.T) {
	tc := newTestCluster(t, 2)
	member := tc.newProc(1)
	if _, err := tc.daemons[1].CreateGroup(member.addr, "vanish"); err != nil {
		t.Fatal(err)
	}
	client := tc.newProc(2)
	gid, err := tc.daemons[2].Lookup("vanish")
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.daemons[1].Leave(member.addr, gid); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.daemons[2].Multicast(client.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("ghost")); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("relay to a vanished group returned %v, want ErrUnknownGroup", err)
	}
}

// TestLateJoinerReceivesExternalCbcast has a member join after a client has
// already cast to the group: the client's later CBCASTs must reach it. (Under
// the per-sender sequence a joiner expected number 1 and stalled on every later
// relay for good.)
func TestLateJoinerReceivesExternalCbcast(t *testing.T) {
	tc := newTestCluster(t, 4)
	procs := buildGroup(t, tc, "latejoin", 1, 2)
	gid := groupOf(t, tc, procs[0], "latejoin")
	client := tc.newProc(4)
	if err := relay(tc, client, gid, "before"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first relay at the members", 5*time.Second, func() bool {
		return procs[0].got("before") && procs[1].got("before")
	})

	joiner := tc.newProc(3)
	if _, err := tc.daemons[3].Lookup("latejoin"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.daemons[3].Join(joiner.addr, gid, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := relay(tc, client, gid, "after"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the relay sent after the join at every member, the joiner included", 5*time.Second, func() bool {
		return procs[0].got("after") && procs[1].got("after") && joiner.got("after")
	})
	if joiner.got("before") {
		t.Error("the joiner was handed a cast from before it joined")
	}
}

// TestLateJoinerReceivesExternalAbcast is the same for an ABCAST whose sender
// still holds the view cached before the join: the round runs under the relay
// site's view, not the one the client named, or the member sites would turn
// its phase 1 away as a closed view's (and, delivered under that view's id,
// the joiner would be refused it).
func TestLateJoinerReceivesExternalAbcast(t *testing.T) {
	tc := newTestCluster(t, 4)
	procs := buildGroup(t, tc, "latejoinab", 1, 2)
	gid := groupOf(t, tc, procs[0], "latejoinab")
	client := tc.newProc(4)
	if _, err := tc.daemons[4].Lookup("latejoinab"); err != nil {
		t.Fatal(err)
	}
	joiner := tc.newProc(3)
	if _, err := tc.daemons[3].Lookup("latejoinab"); err != nil {
		t.Fatal(err)
	}
	joined, err := tc.daemons[3].Join(joiner.addr, gid, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cached, _ := tc.daemons[4].CurrentView(gid); cached.ID >= joined.ID {
		t.Fatalf("the client's site already knows view %d: the relay below would not name a closed view", cached.ID)
	}
	if err := cast(client, ABCAST, gid, "after"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the relayed ABCAST at every member, the joiner included", 5*time.Second, func() bool {
		return procs[0].got("after") && procs[1].got("after") && joiner.got("after")
	})
}

// TestRelaySiteCrashDoesNotStallSender crashes the relay site with a relay
// in flight. That relay's outcome is unknown and its Multicast said so; the
// sender's next relay, through the surviving coordinator, must be delivered
// all the same — nothing may wait for an answer the dead site will never send.
func TestRelaySiteCrashDoesNotStallSender(t *testing.T) {
	tc := newFaultCluster(t, 4, simnet.FastConfig(), 500*time.Millisecond, scenarioDetector())
	procs := buildGroup(t, tc, "relaycrash", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "relaycrash")
	client := tc.newProc(4)
	if _, err := tc.daemons[4].Lookup("relaycrash"); err != nil {
		t.Fatal(err)
	}

	for _, s := range []simnet.SiteID{2, 3, 4} {
		tc.net.Partition(1, s)
	}
	if err := relay(tc, client, gid, "in-flight"); err == nil {
		t.Fatal("relay to an isolated coordinator unexpectedly succeeded")
	}
	tc.daemons[1].Close()
	waitFor(t, "majority reforms without site 1", 10*time.Second, func() bool {
		return procs[1].lastView().Size() == 2 && procs[2].lastView().Size() == 2
	})
	waitFor(t, "client suspects the crashed coordinator", 10*time.Second, func() bool {
		return slices.Contains(tc.daemons[4].Snapshot().Suspected, 1)
	})

	if err := relay(tc, client, gid, "next"); err != nil {
		t.Fatalf("relay via the surviving coordinator: %v", err)
	}
	waitFor(t, "the next relay at the survivors", 5*time.Second, func() bool {
		return procs[1].got("next") && procs[2].got("next")
	})
}

// TestRelaySiteSwitchKeepsSenderOrder moves a client from one relay site to
// another while its previous cast has not reached the new one: the second
// cast must not be fanned out — by a member whose clock has not seen the
// first — until it has, and every member then delivers the two in the order
// sent. This is the rule that replaces the per-sender sequence and its repair
// protocol; without the hold in relayMulticastLocked it fails.
func TestRelaySiteSwitchKeepsSenderOrder(t *testing.T) {
	tc := newFaultCluster(t, 4, simnet.FastConfig(), 3*time.Second, slowDetector())
	procs := buildGroup(t, tc, "switch", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "switch")
	client := tc.newProc(4)
	if _, err := tc.daemons[4].Lookup("switch"); err != nil {
		t.Fatal(err)
	}

	tc.net.PauseLink(1, 2)
	if err := relay(tc, client, gid, "a"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a where the relay site can reach", 5*time.Second, func() bool {
		return procs[0].got("a") && procs[2].got("a")
	})
	// The client's daemon comes to believe site 1 failed and relays through
	// the next-oldest member's site.
	tc.daemons[4].mu.Lock()
	tc.daemons[4].suspected[1] = true
	tc.daemons[4].mu.Unlock()
	sent := make(chan error, 1)
	go func() { sent <- relay(tc, client, gid, "b") }()
	time.Sleep(200 * time.Millisecond)
	for i, p := range procs {
		if bs := p.bodies(); len(bs) > 0 && bs[0] != "a" {
			t.Fatalf("member %d delivered %v while a had not reached the site relaying b", i, bs)
		}
	}

	tc.net.ResumeAll()
	if err := <-sent; err != nil {
		t.Fatalf("relay through the second site: %v", err)
	}
	waitFor(t, "both casts everywhere", 5*time.Second, func() bool {
		return procs[0].numMsgs() == 2 && procs[1].numMsgs() == 2 && procs[2].numMsgs() == 2
	})
	for i, p := range procs {
		if bs := p.bodies(); bs[0] != "a" || bs[1] != "b" {
			t.Errorf("member %d delivered %v, want [a b]", i, bs)
		}
	}
}

// TestRelayFromKilledClientKeepsMemberClock kills a client while its relayed
// cast is on its way back to the client's own site, which also hosts a
// member. That site has observed the failure and must not hand the cast to
// the application — but the cast holds a slot in the relaying member's clock,
// and dropped at the door it would leave every later CBCAST of that member
// undeliverable there until some unrelated view change.
func TestRelayFromKilledClientKeepsMemberClock(t *testing.T) {
	tc := newFaultCluster(t, 2, simnet.FastConfig(), 3*time.Second, slowDetector())
	procs := buildGroup(t, tc, "killed", 1, 2)
	gid := groupOf(t, tc, procs[0], "killed")
	client := tc.newProc(2)

	tc.net.PauseLink(1, 2) // holds the fan-out to site 2, and the acknowledgement
	sent := make(chan error, 1)
	go func() { sent <- relay(tc, client, gid, "x") }()
	waitFor(t, "x at the relay site", 5*time.Second, func() bool { return procs[0].got("x") })
	if err := tc.daemons[2].KillProcess(client.addr); err != nil {
		t.Fatal(err)
	}
	tc.net.ResumeAll()
	<-sent // acknowledged or not, the cast was fanned out

	if _, err := tc.daemons[1].Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("y")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the relay member's next cast at the killed client's site", 5*time.Second, func() bool {
		return procs[1].got("y")
	})
	if procs[1].got("x") {
		t.Error("a cast from a process observed to have failed was delivered")
	}
}

// TestRelayMalformedPredecessorStamp feeds a relay site predecessor stamps no
// daemon would send. One that names an entry the current view's clock does not
// have is refused at once; one of a view the copy has yet to install waits for
// the copy's next flush, which never comes here, so its call times out; one
// with sequence 0, or from no view at all, holds nothing back. A relay whose
// sender is not at the site it comes from is dropped unanswered. None may
// panic.
func TestRelayMalformedPredecessorStamp(t *testing.T) {
	tc := newTestCluster(t, 1)
	procs := buildGroup(t, tc, "stamp", 1)
	gid := groupOf(t, tc, procs[0], "stamp")
	d := tc.daemons[1]
	view, _ := d.CurrentView(gid)
	rows := []struct {
		site  addr.SiteID // the client's
		after relayStamp
		want  error
	}{
		{1, relayStamp{view: view.ID, rank: 99, seq: 1}, ErrBadProtocol},
		{1, relayStamp{view: view.ID, rank: -3, seq: 1}, ErrBadProtocol},
		{1, relayStamp{view: view.ID + 7, rank: 0, seq: 0}, ErrTimeout},
		{1, relayStamp{view: view.ID, rank: 99, seq: 0}, nil},
		{1, relayStamp{view: 0, rank: -1, seq: 1 << 40}, nil},
		{9, relayStamp{}, ErrTimeout},
	}
	// Every relay is in before any answer is read, so the two timeouts run
	// out together.
	calls := make([]*waiter, len(rows))
	for i, tt := range rows {
		pkt := dataPkt(t, CBCAST, gid, view.ID, core.MsgID{Sender: addr.NewProcess(tt.site, 0, 1), Seq: uint64(i + 1)}, -1, body("m"))
		d.mu.Lock()
		calls[i] = &waiter{}
		pkt.call, pkt.after = d.newCallLocked(d.site, ptRelayAck, calls[i]), tt.after
		d.mu.Unlock()
		if err := pkt.encode(); err != nil {
			t.Fatal(err)
		}
		d.handleTransport(d.site, pkt.raw) // from site 1's link, answered at the client's site
	}
	d.mu.Lock()
	for i, w := range calls {
		for !w.done {
			d.wake.Wait()
		}
		if !errors.Is(w.err, rows[i].want) {
			t.Errorf("stamp %+v from site %d: relay returned %v, want %v", rows[i].after, rows[i].site, w.err, rows[i].want)
		}
	}
	d.mu.Unlock()
	waitFor(t, "the two relays that were let through", 2*time.Second, func() bool { return procs[0].numMsgs() == 2 })
}

// heldRelay builds a group of members at sites 1 to 3 and a client at site 4,
// with no timer that fires within a test and no detector but the test's
// (tc.crash). The client relays a through site 1, whose links to the paused
// sites are held, and comes to suspect site 1; it relays b through site 2,
// whose copy holds b until it has delivered a. heldRelay returns once b's
// request has reached site 2, with b's Multicast waiting for its answer, and
// a recorder that has seen every frame since b was cast.
func heldRelay(t *testing.T, paused ...addr.SiteID) (*testCluster, *simnet.Recorder, []*testProc, addr.Address, <-chan error) {
	t.Helper()
	tc := newFaultCluster(t, 4, simnet.FastConfig(), time.Minute, fdetect.Config{}, func(c *Config) {
		c.Transport.RetransmitInterval = time.Minute
	})
	procs := buildGroup(t, tc, "held", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "held")
	client := tc.newProc(4)
	if _, err := tc.daemons[4].Lookup("held"); err != nil {
		t.Fatal(err)
	}
	for _, s := range paused {
		tc.net.PauseLink(1, s)
	}
	answered(t, "a", relayed(tc, client, gid, "a"))
	d4 := tc.daemons[4]
	d4.mu.Lock()
	d4.suspected[1] = true
	d4.mu.Unlock()
	rec := simnet.NewRecorder()
	tc.net.SetTracer(rec)
	sent := relayed(tc, client, gid, "b")
	waitFor(t, "b's request at site 2", 5*time.Second, func() bool {
		return slices.ContainsFunc(rec.Events(), func(e simnet.Event) bool {
			return e.Kind == simnet.EventDeliver && e.From == 4 && e.To == 2 && dataFrame(e)
		})
	})
	return tc, rec, procs, gid, sent
}

// heldAt2 waits until site 2's copy holds b.
func heldAt2(t *testing.T, tc *testCluster, gid addr.Address) {
	t.Helper()
	d2 := tc.daemons[2]
	waitFor(t, "b held at site 2", 5*time.Second, func() bool {
		d2.mu.Lock()
		defer d2.mu.Unlock()
		return d2.groups[gid].causal.PendingCount() == 1
	})
}

// relayed relays one CBCAST from the client, as relay does, and returns
// where its Multicast's error will come.
func relayed(tc *testCluster, client *testProc, gid addr.Address, b string) <-chan error {
	sent := make(chan error, 1)
	go func() { sent <- relay(tc, client, gid, b) }()
	return sent
}

// answered waits for the relay of b's Multicast to return, and fails unless it
// succeeded.
func answered(t *testing.T, b string, sent <-chan error) {
	t.Helper()
	var err error
	waitFor(t, "the answer to the relay of "+b, 5*time.Second, func() bool {
		select {
		case err = <-sent:
			return true
		default:
			return false
		}
	})
	if err != nil {
		t.Fatalf("relay %s: %v", b, err)
	}
}

// framesSent counts the frames the recorder saw one site send another that
// carry a packet, a relay's short acknowledgement included.
func framesSent(rec *simnet.Recorder, from, to addr.SiteID) (n int) {
	for _, e := range rec.Events() {
		n += int(bit(e.Kind == simnet.EventSend && e.From == from && e.To == to && dataFrame(e)))
	}
	return n
}

// TestHeldRelayIsOneRequestAndOneAnswer holds b at site 2 for ten of its scan
// ticks: the client's site sends the request once and site 2 answers nothing
// while it holds b, where a relay site that refused b as early and a client
// that asked again at every tick would send ten of each. Once a arrives, b
// goes out after it and is answered once.
func TestHeldRelayIsOneRequestAndOneAnswer(t *testing.T) {
	tc, rec, procs, _, sent := heldRelay(t, 2)
	d2 := tc.daemons[2]
	tick := func() uint64 {
		d2.mu.Lock()
		defer d2.mu.Unlock()
		return d2.tick
	}
	from := tick()
	waitFor(t, "ten of site 2's scan ticks", 5*time.Second, func() bool { return tick() >= from+10 })
	if req, ans := framesSent(rec, 4, 2), framesSent(rec, 2, 4); req != 1 || ans != 0 {
		t.Errorf("while b was held: %d data frames 4→2 and %d answer frames 2→4, want 1 and 0", req, ans)
	}
	tc.net.ResumeAll()
	answered(t, "b", sent)
	assertDelivered(t, procs, "a", "b")
	if ans := framesSent(rec, 2, 4); ans != 1 {
		t.Errorf("%d answer frames 2→4, want 1", ans)
	}
}

// TestHeldRelayDroppedByTheInstall crashes site 1, the only site that
// delivered a, while site 2 holds b. The failure flush finds a nowhere, and
// the install of the view without site 1 hands b back from the causal queue:
// the flush's end stamps it under the new view, whose clock a closed view's
// stamp holds nothing back in. b is answered, and delivered once at sites 2
// and 3, and a at neither.
func TestHeldRelayDroppedByTheInstall(t *testing.T) {
	tc, _, procs, gid, sent := heldRelay(t, 2, 3)
	heldAt2(t, tc, gid)
	tc.crash(1)
	answered(t, "b", sent)
	if err := cast(procs[1], CBCAST, gid, "c"); err != nil { // behind a second copy of b, if any
		t.Fatal(err)
	}
	assertDelivered(t, procs[1:], "b", "c")
}

// TestHeldRelayReleasedByTheFlush crashes site 1 while site 2 holds b, with a
// delivered at site 3 too: site 3's report re-disseminates a, which releases
// b at site 2 inside the flush; it is parked there and stamped when the
// flush ends. Sites 2 and 3 deliver a, then b, each once.
func TestHeldRelayReleasedByTheFlush(t *testing.T) {
	tc, _, procs, gid, sent := heldRelay(t, 2)
	heldAt2(t, tc, gid)
	waitFor(t, "a at site 3", 5*time.Second, func() bool { return procs[2].got("a") })
	tc.crash(1)
	answered(t, "b", sent)
	if err := cast(procs[1], CBCAST, gid, "c"); err != nil {
		t.Fatal(err)
	}
	assertDelivered(t, procs[1:], "a", "b", "c")
}
