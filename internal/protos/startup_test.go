package protos

import (
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/netback"
	"repro/internal/simnet"
)

// heldRestart is a fabric on which a packet held on the link from one site
// reaches a site restarting at the other end at the worst moment, and New is
// kept from finishing until the restarting site has dealt with it. Attach
// releases the link and returns once the packet sits in the new endpoint's
// queue, so the transport's receive loop has it the instant it starts;
// WatchLinks — the last thing New does — returns once the restarting site has
// sent a packet of its own, the ack of what it received. Nothing orders New's
// goroutine against the receive loop in between, which is what lets the race
// detector see a daemon that is read before it is written.
type heldRestart struct {
	*simnet.Network
	from, to addr.SiteID
	once     sync.Once
	answered chan struct{}
}

func (n *heldRestart) Trace(e simnet.Event) {
	if e.Kind == simnet.EventSend && e.From == n.to {
		n.once.Do(func() { close(n.answered) })
	}
}

func (n *heldRestart) Attach(id addr.SiteID, epoch uint64) (netback.Endpoint, error) {
	ep, err := n.Network.Attach(id, epoch)
	if err == nil {
		n.SetTracer(n)
		n.ResumeLink(n.from, n.to)
		for deadline := time.Now().Add(5 * time.Second); len(ep.Recv()) == 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return ep, err
}

func (n *heldRestart) WatchLinks(cb func(netback.LinkEvent)) func() {
	select {
	case <-n.answered:
	case <-time.After(5 * time.Second):
	}
	return n.Network.WatchLinks(cb)
}

// TestPacketInFlightToARestartingSite: a daemon must be whole before it is
// handed a packet. New used to start the transport — whose receive loop may
// call handleTransport at once — before it had a detector and a transport to
// its name; a packet already on its way to the restarting site then met a
// half-built daemon (a nil dereference when New lost the race, a data race
// whenever the packet was there at all, which is what -race reports here).
func TestPacketInFlightToARestartingSite(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.net.PauseLink(1, 2)
	before := tc.net.Stats().PacketsSent
	_ = tc.daemons[1].sendRaw(2, lookupPacket{call: -1}.encode(ptLookupResp)) // answers no call
	waitFor(t, "a packet held on its way to site 2", 2*time.Second, func() bool { return tc.net.Stats().PacketsSent > before })
	tc.daemons[2].Close()

	fab := &heldRestart{Network: tc.net, from: 1, to: 2, answered: make(chan struct{})}
	tc.fabric = fab
	d := tc.addSite(2)
	select {
	case <-fab.answered:
	default:
		t.Fatal("New returned before the restarted site answered the held packet")
	}
	if n := d.tr.Stats().MessagesDelivered; n == 0 {
		t.Error("the restarted site did not take the held packet in")
	}
}
