package protos

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/msg"
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

// TestHandlerMutationDoesNotReachRecentBuffer covers the ownership rule the
// flush depends on: the packet kept for re-dissemination (gs.recent) shares
// its payload's values with every local delivery, so nothing a handler does
// to the message it was handed may change what a later flush re-sends, nor
// what the member next to it received.
func TestHandlerMutationDoesNotReachRecentBuffer(t *testing.T) {
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "recent", 1, 2, 2)
	gid := groupOf(t, tc, procs[0], "recent")
	payload := func() *msg.Message {
		return body("kept").PutBytes("p", []byte("original")).
			PutMessage("sub", msg.New().PutBytes("p", []byte("nested")))
	}
	want, _ := payload().Marshal()
	for _, proto := range []Protocol{CBCAST, ABCAST} {
		before := procs[1].numMsgs()
		id, err := procs[0].d.Multicast(procs[0].addr, proto, addr.List{gid}, addr.EntryUserBase, payload())
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "delivery at both members of site 2", 5*time.Second, func() bool {
			return procs[1].numMsgs() > before && procs[2].numMsgs() > before
		})
		procs[1].mu.Lock()
		m := procs[1].msgs[before]
		procs[1].mu.Unlock()
		// First in place, through the slices the getters hand out...
		for _, b := range [][]byte{m.GetBytes("p"), m.GetMessage("sub").GetBytes("p")} {
			copy(b, "XXXXXXXX")
		}
		// ...then through the Put calls.
		m.PutBytes("p", []byte("scribbled")).PutString("body", "gone").PutInt("extra", 1)
		m.GetMessage("sub").PutBytes("p", nil)
		m.Delete(msg.FSender)

		procs[2].mu.Lock()
		neighbour := procs[2].msgs[before].Clone()
		procs[2].mu.Unlock()
		neighbour.StripSystemFields()
		if got, _ := neighbour.Marshal(); !bytes.Equal(got, want) {
			t.Errorf("%v: the neighbouring member's delivery changed: %s", proto, neighbour.Format())
		}
		for _, d := range tc.daemons {
			d.mu.Lock()
			e, _ := d.groups[gid.Base()].recent.Get(id)
			pkt := e.pkt
			d.mu.Unlock()
			if pkt == nil {
				t.Fatalf("%v: site %d kept no recent record", proto, d.site)
			}
			if got, _ := pkt.GetMessage(fPayload).Marshal(); !bytes.Equal(got, want) {
				t.Errorf("%v: site %d would re-disseminate %s", proto, d.site, pkt.GetMessage(fPayload).Format())
			}
		}
	}
}
