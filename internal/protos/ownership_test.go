package protos

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/msg"
	"repro/internal/simnet"
)

// pendingRounds snapshots the initiator rounds a daemon has open.
func pendingRounds(d *Daemon) []*abSendState {
	d.mu.Lock()
	defer d.mu.Unlock()
	var sts []*abSendState
	for _, st := range d.pendingAb {
		sts = append(sts, st)
	}
	return sts
}

// TestAbcastWatchdogStopsWithItsRound is what is left of the un-stopped
// watchdog regression: every ABCAST used to leave a CallTimeout timer behind
// that kept its send state and packet reachable (and, after Close, the whole
// daemon) until it fired. A round's deadline is now a field the scan tick
// reads, so a round is reachable exactly as long as it is in pendingAb.
// Rounds are held open by pausing the link the proposals come back on, and
// then neither way a round ends may leave it there.
func TestAbcastWatchdogStopsWithItsRound(t *testing.T) {
	const rounds = 25
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "watchdog", 1, 2)
	gid := groupOf(t, tc, procs[0], "watchdog")
	d := tc.daemons[1]
	open := func(tag string) {
		t.Helper()
		// Brief enough that the failure detector never notices.
		tc.net.PauseLink(2, 1)
		for i := 0; i < rounds; i++ {
			if _, err := d.Multicast(procs[0].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body(fmt.Sprintf("%s%d", tag, i))); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(pendingRounds(d)); n != rounds {
			t.Fatalf("%d rounds open, want %d", n, rounds)
		}
	}

	// Normal completion.
	open("a")
	tc.net.ResumeLink(2, 1)
	waitFor(t, "the rounds to complete", 5*time.Second, func() bool { return len(pendingRounds(d)) == 0 })
	waitFor(t, "delivery everywhere", 5*time.Second, func() bool {
		return procs[0].numMsgs() == rounds && procs[1].numMsgs() == rounds
	})

	// Close with rounds in flight.
	open("b")
	d.Close()
	if n := len(pendingRounds(d)); n != 0 {
		t.Errorf("%d rounds still pending after Close", n)
	}
}

// scribbleDelivery mutates a delivered message every way a handler can: in
// place, through the slices the getters hand out, then through the Put calls.
func scribbleDelivery(m *msg.Message) {
	for _, b := range [][]byte{m.GetBytes("p"), m.GetMessage("sub").GetBytes("p")} {
		copy(b, "XXXXXXXX")
	}
	m.PutBytes("p", []byte("scribbled")).PutString("body", "gone").PutInt("extra", 1)
	m.GetMessage("sub").PutBytes("p", nil)
	m.Delete(msg.FSender)
}

// userBytes marshals a delivery without the system fields the toolkit added.
func userBytes(m *msg.Message) []byte {
	c := m.Clone()
	c.StripSystemFields()
	raw, _ := c.Marshal()
	return raw
}

// TestHandlerMutationDoesNotReachRecentBuffer covers the ownership rule the
// flush depends on: a delivered packet's record (gs.recent) is the bytes it
// travelled as, and its one decoded payload is handed to the site's last
// member (a clone to each before it), so nothing a handler does to the message
// it was handed may change what a later flush re-sends, what the member next
// to it received, or what a retransmission carries. The sender (site 2) hosts
// two members and site 1 one, so the scribbled deliveries are the sender's own
// payload or its clone, and a decoded payload itself; site 3's link from the
// sender is held throughout, and the join's flush must carry it the original.
func TestHandlerMutationDoesNotReachRecentBuffer(t *testing.T) {
	payload := func() *msg.Message {
		return body("kept").PutBytes("p", []byte("original")).
			PutMessage("sub", msg.New().PutBytes("p", []byte("nested")))
	}
	want, _ := payload().Marshal()
	for _, proto := range []Protocol{CBCAST, ABCAST} {
		t.Run(proto.String(), func(t *testing.T) {
			tc := newFaultCluster(t, 3, simnet.FastConfig(), 2*time.Second, quietDetector())
			procs := buildGroup(t, tc, "recent", 1, 2, 2, 3)
			gid := groupOf(t, tc, procs[0], "recent")
			tc.net.PauseLink(2, 3)
			id, err := procs[1].d.Multicast(procs[1].addr, proto, addr.List{gid}, addr.EntryUserBase, payload())
			if err != nil {
				t.Fatal(err)
			}
			if proto == ABCAST {
				// Site 3 cannot propose; its answer is supplied, and the commit
				// joins phase 1 on the held link.
				tc.daemons[2].handleAbPropose(3, abRecord{group: gid, id: id, prio: 1})
			}
			waitFor(t, "delivery at sites 1 and 2", 5*time.Second, func() bool {
				return procs[0].numMsgs() == 1 && procs[1].numMsgs() == 1 && procs[2].numMsgs() == 1
			})
			for _, p := range procs[:2] {
				p.mu.Lock()
				scribbleDelivery(p.msgs[0])
				p.mu.Unlock()
			}
			procs[2].mu.Lock()
			neighbour := procs[2].msgs[0]
			procs[2].mu.Unlock()
			if got := userBytes(neighbour); !bytes.Equal(got, want) {
				t.Errorf("the neighbouring member's delivery changed: %s", neighbour.Format())
			}
			for _, s := range []addr.SiteID{1, 2} {
				d := tc.daemons[s]
				d.mu.Lock()
				e, _ := d.groups[gid.Base()].recent.Get(id)
				d.mu.Unlock()
				pkt, ok := parseDataPacket(e.raw)
				if !ok {
					t.Fatalf("site %d kept no recent record (%x)", s, e.raw)
				}
				if !bytes.Equal(e.raw[pkt.body:], want) {
					t.Errorf("site %d would re-disseminate %s", s, pkt.payload.Format())
				}
			}
			if procs[3].numMsgs() != 0 {
				t.Fatal("site 3 was delivered the cast over a held link")
			}
			joiner := tc.newProc(1)
			if _, err := joiner.d.Join(joiner.addr, gid, JoinOptions{}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the flush's re-dissemination at site 3", 5*time.Second, func() bool { return procs[3].numMsgs() == 1 })
			procs[3].mu.Lock()
			late := procs[3].msgs[0]
			procs[3].mu.Unlock()
			if got := userBytes(late); !bytes.Equal(got, want) {
				t.Errorf("the flush carried site 3 %s", late.Format())
			}
			tc.net.ResumeLink(2, 3)
		})
	}
	t.Run("retransmission", func(t *testing.T) {
		tc := newFaultCluster(t, 2, simnet.FastConfig(), 2*time.Second, quietDetector())
		procs := buildGroup(t, tc, "resend", 1, 2)
		gid := groupOf(t, tc, procs[0], "resend")
		tc.net.Partition(1, 2)
		if _, err := procs[0].d.Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, payload()); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the sender's own delivery", 5*time.Second, func() bool { return procs[0].numMsgs() == 1 })
		procs[0].mu.Lock()
		scribbleDelivery(procs[0].msgs[0]) // the very message Multicast was given
		procs[0].mu.Unlock()
		tc.net.Heal(1, 2)
		waitFor(t, "the retransmission at site 2", 5*time.Second, func() bool { return procs[1].numMsgs() == 1 })
		procs[1].mu.Lock()
		defer procs[1].mu.Unlock()
		if got := userBytes(procs[1].msgs[0]); !bytes.Equal(got, want) {
			t.Errorf("the retransmission delivered %s", procs[1].msgs[0].Format())
		}
	})
}
