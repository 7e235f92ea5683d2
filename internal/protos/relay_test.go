package protos

// Regression tests for the relayed-multicast acknowledgement: a relay
// arriving at a coordinator that cannot fan it out — a non-primary minority
// copy, or a site that no longer hosts the group — is refused with the
// sentinel error travelling back over the wire, instead of being dropped
// with the sender none the wiser. A refused CBCAST relay also rolls its
// per-sender FIFO sequence back, so the refusal leaves no hole that would
// stall later relays in the receivers' causal queues.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/simnet"
)

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
		for _, s := range tc.daemons[4].SuspectedSites() {
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

// TestRelayTimeoutLateRefusalRollsBack pins the FIFO reconciliation for a
// relay whose refusal arrives only after the caller timed out. The client's
// relay to the coordinator is cut off mid-flight, so the call gives up while
// the request sits queued in the reliable transport; when the link heals the
// isolated coordinator — wedged non-primary by then — finally refuses it.
// No later sequence number was handed out, so the late refusal must roll the
// client's FIFO counter back (observable as the CBCAST counter returning to
// zero), and the client's next relay must reuse the number and be delivered.
// Before the repair machinery the late refusal was silently dropped and the
// consumed number stalled every later relay in the receivers' causal queues.
func TestRelayTimeoutLateRefusalRollsBack(t *testing.T) {
	tc := newFaultCluster(t, 4, simnet.FastConfig(), 500*time.Millisecond, scenarioDetector())
	procs := buildGroup(t, tc, "latehole", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "latehole")

	client := tc.newProc(4)
	if _, err := tc.daemons[4].Lookup("latehole"); err != nil {
		t.Fatal(err)
	}

	// Isolate the coordinator site and relay immediately, before the client's
	// detector can suspect it: the relay is addressed to site 1, queued in the
	// transport, and the call fails with timeout or a detector abort — either
	// way the sequence number stands and the call remains tracked.
	for _, s := range []simnet.SiteID{2, 3, 4} {
		tc.net.Partition(1, s)
	}
	if _, err := tc.daemons[4].Multicast(client.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("lost")); err == nil {
		t.Fatal("relay to an isolated coordinator unexpectedly succeeded")
	}
	if got := tc.daemons[4].Counters().CBCASTs; got != 1 {
		t.Fatalf("timed-out relay consumed %d sequence numbers, want 1 (kept pending the outcome)", got)
	}

	// The majority excises the member at site 1; the isolated copy wedges
	// non-primary, which is what will refuse the queued relay.
	waitFor(t, "majority reforms without site 1", 10*time.Second, func() bool {
		return procs[1].lastView().Size() == 2 && !tc.daemons[1].GroupPrimary(gid)
	})

	// Heal only the client↔coordinator link: the transport retransmits the
	// relay, the wedged minority copy refuses it, and the late refusal must
	// roll the client's FIFO sequence back.
	tc.net.Heal(4, 1)
	waitFor(t, "late refusal rolls the FIFO sequence back", 10*time.Second, func() bool {
		return tc.daemons[4].Counters().CBCASTs == 0
	})

	// Full heal: after the minority merges back the client's next relay must
	// reuse the rolled-back number and reach the members.
	tc.net.HealAll()
	waitFor(t, "minority merges back into the primary", 20*time.Second, func() bool {
		v := procs[0].lastView()
		return v.Size() == 3 && tc.daemons[1].GroupPrimary(gid)
	})
	waitFor(t, "post-repair relay delivered", 10*time.Second, func() bool {
		if _, err := tc.daemons[4].Multicast(client.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("after-repair")); err != nil {
			return false
		}
		time.Sleep(50 * time.Millisecond)
		return procs[0].got("after-repair") && procs[1].got("after-repair")
	})
	if procs[0].got("lost") || procs[1].got("lost") {
		t.Error("the refused relay was delivered anyway")
	}
}

// TestRelayTimeoutLateRefusalFillsHole pins the null-filler path: by the
// time the late refusal lands, the client has already relayed again through
// the surviving coordinator, so its FIFO counter cannot be rolled back. The
// second relay sits undeliverable in every receiver's external-sender queue
// behind the orphaned first number until the repair machinery relays a null
// filler that consumes the hole without delivering anything.
func TestRelayTimeoutLateRefusalFillsHole(t *testing.T) {
	tc := newFaultCluster(t, 4, simnet.FastConfig(), 500*time.Millisecond, scenarioDetector())
	procs := buildGroup(t, tc, "fillhole", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "fillhole")

	client := tc.newProc(4)
	if _, err := tc.daemons[4].Lookup("fillhole"); err != nil {
		t.Fatal(err)
	}

	// Relay #1 (sequence 1) dies against the freshly isolated coordinator.
	for _, s := range []simnet.SiteID{2, 3, 4} {
		tc.net.Partition(1, s)
	}
	if _, err := tc.daemons[4].Multicast(client.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("first")); err == nil {
		t.Fatal("relay to an isolated coordinator unexpectedly succeeded")
	}

	waitFor(t, "majority reforms without site 1", 10*time.Second, func() bool {
		return procs[1].lastView().Size() == 2 && !tc.daemons[1].GroupPrimary(gid)
	})
	waitFor(t, "client suspects the isolated coordinator", 10*time.Second, func() bool {
		for _, s := range tc.daemons[4].SuspectedSites() {
			if s == 1 {
				return true
			}
		}
		return false
	})

	// Relay #2 (sequence 2) routes around the suspected coordinator to the
	// surviving members and is accepted — but cannot be delivered: every
	// receiver is waiting for sequence 1.
	if _, err := tc.daemons[4].Multicast(client.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("second")); err != nil {
		t.Fatalf("relay via the surviving coordinator: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	if procs[1].got("second") || procs[2].got("second") {
		t.Fatal("sequence 2 delivered before sequence 1 was resolved: FIFO order broken")
	}

	// Heal only the client↔old-coordinator link. The queued relay #1 is
	// refused by the wedged minority copy; the counter is at 2, so the repair
	// must fill sequence 1 with a null message, which unblocks relay #2 at
	// every receiver without delivering relay #1 anywhere.
	tc.net.Heal(4, 1)
	waitFor(t, "null filler unblocks the held relay", 15*time.Second, func() bool {
		return procs[1].got("second") && procs[2].got("second")
	})
	if procs[1].got("first") || procs[2].got("first") {
		t.Error("the refused relay was delivered anyway")
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
