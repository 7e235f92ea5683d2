package protos

// Table tests for the pure half of the GBCAST flush — decideFlush, reconcile
// and the commit's fan-out order — with no daemon and no network.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
)

func TestReconcile(t *testing.T) {
	sender := addr.NewProcess(1, 0, 1)
	id := func(seq uint64) core.MsgID { return core.MsgID{Sender: sender, Seq: seq} }
	pkt := []byte("the packet, as encoded")
	cb := func(seq uint64) recentWire { return recentWire{ID: id(seq), Packet: pkt} }
	ab := func(seq, n uint64) recentWire { return recentWire{ID: id(seq), Packet: pkt, Seq: n} }

	for _, tc := range []struct {
		name    string
		reports map[addr.SiteID]pendingReport
		want    pendingReport
	}{
		{
			name: "delivered at some sites only: re-disseminated, and never fenced",
			reports: map[addr.SiteID]pendingReport{
				1: {cb(1), cb(2)},
				2: {cb(2)},
			},
			want: pendingReport{cb(1)}, // seq 2 reached everybody
		},
		{
			name: "an ABCAST delivered somewhere goes with the holder's number for it",
			reports: map[addr.SiteID]pendingReport{
				1: {ab(1, 7), ab(2, 8)},
				2: {ab(1, 7)},
				3: {},
			},
			want: pendingReport{ab(1, 7), ab(2, 8)},
		},
		{
			name: "delivered somewhere, unknown elsewhere: re-disseminated at the recorded final",
			reports: map[addr.SiteID]pendingReport{
				1: {ab(1, 7)},
				2: {},
				3: {},
			},
			want: pendingReport{ab(1, 7)},
		},
		{
			// Site 3's copy is still on the holder's link to it.
			name: "delivered somewhere, pending elsewhere: completed at the exact recorded final",
			reports: map[addr.SiteID]pendingReport{
				1: {ab(1, 7), cb(2)},
				2: {cb(2), ab(1, 7)},
				3: {cb(2)},
			},
			want: pendingReport{ab(1, 7)},
		},
		{
			name: "delivered everywhere: nothing to re-disseminate",
			reports: map[addr.SiteID]pendingReport{
				1: {ab(1, 7), cb(2)},
				2: {cb(2), ab(1, 7)},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := reconcile(tc.reports)
			slices.SortFunc(out, func(x, y recentWire) int { return int(x.ID.Seq) - int(y.ID.Seq) })
			if !slices.EqualFunc(out, tc.want, func(x, y recentWire) bool {
				return x.ID == y.ID && x.Seq == y.Seq && bytes.Equal(x.Packet, y.Packet)
			}) {
				t.Errorf("re-disseminated %+v, want %+v", out, tc.want)
			}
		})
	}
}

// TestCommitFansOutInRankOrder pins the commit's fan-out order: each member
// site of the new, base and old views once, in the order the views rank their
// members, so a site that only the old view lists comes last.
func TestCommitFansOutInRankOrder(t *testing.T) {
	gid := addr.NewGroup(1, 0, 1)
	p := func(site addr.SiteID, seq uint32) addr.Address { return addr.NewProcess(site, 0, seq) }
	old := core.View{Group: gid, ID: 4, Members: []addr.Address{p(3, 1), p(1, 1), p(3, 2), p(2, 1)}}
	next := old.WithRemoved(p(2, 1)).WithJoined(p(4, 1))
	if got, want := unionSites(next, old, old), []addr.SiteID{3, 1, 4, 2}; !slices.Equal(got, want) {
		t.Errorf("unionSites = %v, want %v", got, want)
	}
}

func TestDecideFlush(t *testing.T) {
	gid := addr.NewGroup(1, 0, 1)
	p1, p2, p3, p4 := addr.NewProcess(1, 0, 1), addr.NewProcess(2, 0, 1), addr.NewProcess(3, 0, 1), addr.NewProcess(4, 0, 1)
	view := func(id core.ViewID, members ...addr.Address) core.View {
		return core.View{Group: gid, Name: "g", ID: id, Members: members}
	}
	answered := func(sites ...addr.SiteID) map[addr.SiteID]prepareAck {
		acks := make(map[addr.SiteID]prepareAck)
		for _, s := range sites {
			acks[s] = prepareAck{}
		}
		return acks
	}

	t.Run("a minority goes non-primary and decides nothing else", func(t *testing.T) {
		dec := decideFlush(flushRound{
			kind: gbFail, procs: []addr.Address{p1, p2}, view: view(3, p1, p2, p3),
			self: 3, acks: answered(3),
		})
		if !dec.nonPrimary {
			t.Fatal("1 of 3 members reached, and the round was allowed to commit")
		}
	})
	t.Run("exactly half passes", func(t *testing.T) {
		dec := decideFlush(flushRound{
			kind: gbFail, procs: []addr.Address{p1}, view: view(2, p1, p2),
			self: 2, acks: answered(2),
		})
		if dec.nonPrimary || dec.newView.ID != 3 || !slices.Equal(dec.newView.Members, []addr.Address{p2}) {
			t.Fatalf("nonPrimary=%v newView=%v, want view 3 of p2 alone", dec.nonPrimary, dec.newView)
		}
	})
	t.Run("a removal target its hosting site vouches for is dropped", func(t *testing.T) {
		acks := answered(1, 2, 3, 4)
		acks[2] = prepareAck{dead: addr.List{p2}} // its host confirms the death
		acks[1] = prepareAck{dead: addr.List{p4}} // the coordinator's own evidence
		delete(acks, 3)                           // p3's host is unreachable: the claim stands
		dec := decideFlush(flushRound{
			kind: gbFail, procs: []addr.Address{p1, p2, p3, p4}, view: view(5, p1, p2, p3, p4),
			self: 1, acks: acks,
		})
		// p1 is hosted by the coordinator itself, which answered and does not
		// list it dead.
		if want := []addr.Address{p2, p3, p4}; !slices.Equal(dec.procs, want) {
			t.Fatalf("corroborated targets = %v, want %v", dec.procs, want)
		}
		if dec.newView.ID != 6 || !slices.Equal(dec.newView.Members, []addr.Address{p1}) {
			t.Fatalf("newView = %v, want view 6 of p1 alone", dec.newView)
		}
	})
	t.Run("a removal nobody corroborates re-announces the view without minting an id", func(t *testing.T) {
		dec := decideFlush(flushRound{
			kind: gbFail, procs: []addr.Address{p2}, view: view(5, p1, p2),
			self: 1, acks: answered(1, 2),
		})
		if len(dec.procs) != 0 || dec.newView.ID != 5 || dec.newView.Size() != 2 {
			t.Fatalf("procs=%v newView=%v, want nobody removed and view 5 as it was", dec.procs, dec.newView)
		}
	})
	t.Run("a takeover bases the view on the most advanced reported copy", func(t *testing.T) {
		// The dead coordinator (site 1) got its join of p4 to site 2 only.
		acks := answered(2, 3)
		acks[2] = prepareAck{view: view(4, p1, p2, p3, p4)}
		acks[3] = prepareAck{view: view(3, p1, p2, p3)}
		dec := decideFlush(flushRound{
			kind: gbFail, procs: []addr.Address{p1}, view: view(3, p1, p2, p3),
			self: 3, acks: acks,
		})
		if dec.base.ID != 4 {
			t.Fatalf("base = %v, want the view 4 site 2 reported", dec.base)
		}
		if dec.newView.ID != 5 || !slices.Equal(dec.newView.Members, []addr.Address{p2, p3, p4}) {
			t.Fatalf("newView = %v, want view 5 of p2 p3 p4", dec.newView)
		}
	})
	t.Run("a removal already in the most advanced view mints no id", func(t *testing.T) {
		acks := answered(2, 3)
		acks[2] = prepareAck{view: view(4, p2, p3)} // the dead coordinator's leave reached site 2
		dec := decideFlush(flushRound{
			kind: gbFail, procs: []addr.Address{p1}, view: view(3, p1, p2, p3),
			self: 3, acks: acks,
		})
		if !dec.newView.Equal(view(4, p2, p3)) {
			t.Fatalf("newView = %v, want view 4 re-announced", dec.newView)
		}
	})
	t.Run("a join of present members mints no id, of a new one does", func(t *testing.T) {
		r := flushRound{kind: gbJoin, procs: []addr.Address{p2}, view: view(2, p1, p2), self: 1, acks: answered(1, 2)}
		if dec := decideFlush(r); dec.newView.ID != 2 {
			t.Fatalf("re-joined member: newView = %v, want view 2", dec.newView)
		}
		r.procs = []addr.Address{p3}
		if dec := decideFlush(r); dec.newView.ID != 3 || !dec.newView.Contains(p3) {
			t.Fatalf("new member: newView = %v, want view 3 with p3", dec.newView)
		}
	})
	t.Run("one committed vote settles a seal, none aborts it", func(t *testing.T) {
		acks := answered(1, 2, 3)
		r := flushRound{kind: gbSeal, view: view(2, p1, p2, p3), self: 1, acks: acks}
		if dec := decideFlush(r); dec.outcome != voteAborted || dec.newView.ID != 2 {
			t.Fatalf("outcome=%d newView=%v, want aborted and the view unchanged", dec.outcome, dec.newView)
		}
		acks[3] = prepareAck{vote: voteCommitted}
		acks[2] = prepareAck{vote: voteAborted}
		if dec := decideFlush(r); dec.outcome != voteCommitted {
			t.Fatalf("outcome = %d, want committed", dec.outcome)
		}
	})
	t.Run("the rebroadcast set is the reconciliation of the acks' reports", func(t *testing.T) {
		id := core.MsgID{Sender: p1, Seq: 1}
		pkt := []byte{wireVersion, ptData}
		acks := answered(1, 2)
		acks[1] = prepareAck{report: pendingReport{{ID: id, Packet: pkt}}}
		dec := decideFlush(flushRound{kind: gbUser, view: view(2, p1, p2), self: 1, acks: acks})
		if len(dec.rebcast) != 1 || dec.rebcast[0].ID != id {
			t.Fatalf("rebcast = %+v, want the message site 2 missed re-disseminated", dec.rebcast)
		}
	})
}
