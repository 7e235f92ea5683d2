package protos

// Table tests for the pure half of the GBCAST flush — decideFlush and
// reconcile — with no daemon and no network.

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
)

func TestReconcile(t *testing.T) {
	sender := addr.NewProcess(1, 0, 1)
	failed := addr.NewProcess(2, 0, 1)
	id := func(from addr.Address, seq uint64) core.MsgID { return core.MsgID{Sender: from, Seq: seq} }
	pkt := []byte("the packet, as encoded")
	pending := func(id core.MsgID, prio uint64) abPendingWire {
		return abPendingWire{ID: id, Priority: prio, Packet: pkt}
	}
	initiator := func(id core.MsgID, prio uint64) abPendingWire {
		return abPendingWire{ID: id, Priority: prio, Packet: pkt, Init: true}
	}
	committed := func(id core.MsgID, final uint64) abPendingWire {
		return abPendingWire{ID: id, Committed: true, Priority: final, Packet: pkt}
	}
	a := id(sender, 1)

	for _, tc := range []struct {
		name    string
		reports map[addr.SiteID]pendingReport
		failed  []addr.Address // the removal's targets, when it is a failure removal
		abcasts []abPendingWire
		fenced  []core.MsgID
		recent  []core.MsgID
		finals  []uint64 // the final each Recent entry carries, when any does
	}{
		{
			name: "committed anywhere: forced everywhere at the final priority",
			reports: map[addr.SiteID]pendingReport{
				1: {Abcasts: []abPendingWire{committed(a, 9)}},
				2: {Abcasts: []abPendingWire{pending(a, 4)}},
				3: {},
			},
			abcasts: []abPendingWire{{ID: a, Committed: true, Priority: 9, Packet: pkt}},
		},
		{
			name: "delivered somewhere, pending elsewhere: completed at the exact recorded final",
			reports: map[addr.SiteID]pendingReport{
				1: {Recent: []recentWire{{ID: a, Packet: pkt, Priority: 7}}},
				2: {Abcasts: []abPendingWire{pending(a, 11)}}, // a higher proposal must not win
				3: {Abcasts: []abPendingWire{pending(a, 3)}},
			},
			abcasts: []abPendingWire{{ID: a, Committed: true, Priority: 7, Packet: pkt}},
			recent:  []core.MsgID{a},
			finals:  []uint64{7},
		},
		{
			name: "delivered somewhere, unknown elsewhere: re-disseminated at the recorded final",
			reports: map[addr.SiteID]pendingReport{
				1: {Recent: []recentWire{{ID: a, Packet: pkt, Priority: 7}}},
				2: {},
				3: {},
			},
			recent: []core.MsgID{a},
			finals: []uint64{7},
		},
		{
			name: "uncommitted from the failed sender: discarded everywhere",
			reports: map[addr.SiteID]pendingReport{
				1: {Abcasts: []abPendingWire{pending(id(failed, 1), 5)}},
				3: {Abcasts: []abPendingWire{pending(id(failed, 1), 6)}},
			},
			failed:  []addr.Address{failed},
			abcasts: []abPendingWire{{ID: id(failed, 1)}},
		},
		{
			name: "a failure removal of somebody else does not discard",
			reports: map[addr.SiteID]pendingReport{
				1: {Abcasts: []abPendingWire{initiator(a, 5)}},
				3: {Abcasts: []abPendingWire{pending(a, 6)}},
			},
			failed:  []addr.Address{failed},
			abcasts: []abPendingWire{{ID: a, Committed: true, Priority: 6, Packet: pkt}},
		},
		{
			name: "seen in every report: completed at the maximum proposal",
			reports: map[addr.SiteID]pendingReport{
				1: {Abcasts: []abPendingWire{initiator(a, 2)}},
				2: {Abcasts: []abPendingWire{pending(a, 8)}},
				3: {Abcasts: []abPendingWire{pending(a, 5)}},
			},
			abcasts: []abPendingWire{{ID: a, Committed: true, Priority: 8, Packet: pkt}},
		},
		{
			name: "missing from a report, initiator present: fenced",
			reports: map[addr.SiteID]pendingReport{
				1: {Abcasts: []abPendingWire{initiator(a, 2)}},
				2: {Abcasts: []abPendingWire{pending(a, 8)}},
				3: {},
			},
			fenced: []core.MsgID{a},
		},
		{
			name: "missing from a report, no initiator: left pending",
			reports: map[addr.SiteID]pendingReport{
				2: {Abcasts: []abPendingWire{pending(a, 8)}},
				3: {},
			},
		},
		{
			name: "delivered at some sites only: re-disseminated, and never fenced",
			reports: map[addr.SiteID]pendingReport{
				1: {Recent: []recentWire{{ID: a, Packet: pkt}, {ID: id(sender, 2), Packet: pkt}}},
				2: {Recent: []recentWire{{ID: id(sender, 2), Packet: pkt}}},
			},
			recent: []core.MsgID{a}, // seq 2 reached everybody
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := reconcile(tc.reports, tc.failed != nil, tc.failed)
			if !slices.EqualFunc(out.Abcasts, tc.abcasts, func(x, y abPendingWire) bool {
				return x.ID == y.ID && x.Committed == y.Committed && x.Priority == y.Priority && bytes.Equal(x.Packet, y.Packet)
			}) {
				t.Errorf("Abcasts = %+v, want %+v", out.Abcasts, tc.abcasts)
			}
			if !slices.Equal(out.Fenced, tc.fenced) {
				t.Errorf("Fenced = %v, want %v", out.Fenced, tc.fenced)
			}
			var recent []core.MsgID
			var finals []uint64
			for _, r := range out.Recent {
				if !bytes.Equal(r.Packet, pkt) {
					t.Errorf("Recent entry %v carries no packet to re-deliver", r.ID)
				}
				recent = append(recent, r.ID)
				if r.Priority != 0 {
					finals = append(finals, r.Priority)
				}
			}
			if !slices.Equal(recent, tc.recent) {
				t.Errorf("Recent = %v, want %v", recent, tc.recent)
			}
			if !slices.Equal(finals, tc.finals) {
				t.Errorf("finals carried by Recent = %v, want %v", finals, tc.finals)
			}
		})
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
		acks[1] = prepareAck{report: pendingReport{Recent: []recentWire{{ID: id, Packet: pkt}}}}
		dec := decideFlush(flushRound{kind: gbUser, view: view(2, p1, p2), self: 1, acks: acks})
		if len(dec.rebcast.Recent) != 1 || dec.rebcast.Recent[0].ID != id {
			t.Fatalf("rebcast = %+v, want the message site 2 missed re-disseminated", dec.rebcast)
		}
	})
}
