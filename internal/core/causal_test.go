package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/vclock"
)

// sim is a tiny in-memory harness that runs the sender side of CBCAST for a
// set of members and lets tests deliver the resulting messages to receivers
// in arbitrary network orders.
type cbMsg struct {
	in   CausalIncoming
	from int // sender rank
}

func mkID(rank int, seq uint64) MsgID {
	return MsgID{Sender: addr.NewProcess(addr.SiteID(rank+1), 0, uint32(rank+1)), Seq: seq}
}

func TestCausalFIFOFromSingleSender(t *testing.T) {
	// Sender rank 0, receiver rank 1 in a 2-member view.
	sender := NewCausalQueue(0, 2)
	recv := NewCausalQueue(1, 2)

	var msgs []CausalIncoming
	for i := 1; i <= 3; i++ {
		vt := sender.PrepareSend()
		msgs = append(msgs, CausalIncoming{ID: mkID(0, uint64(i)), SenderRank: 0, VT: vt, Payload: i})
	}
	// Deliver out of order: 2, 3, 1. Nothing may be delivered until 1
	// arrives, then all three come out in send order.
	if out := recv.Receive(msgs[1]); len(out) != 0 {
		t.Fatalf("message 2 delivered before 1: %v", out)
	}
	if out := recv.Receive(msgs[2]); len(out) != 0 {
		t.Fatalf("message 3 delivered before 1: %v", out)
	}
	if recv.PendingCount() != 2 {
		t.Fatalf("PendingCount = %d", recv.PendingCount())
	}
	out := recv.Receive(msgs[0])
	if len(out) != 3 {
		t.Fatalf("expected 3 deliveries, got %d", len(out))
	}
	for i, m := range out {
		if m.Payload.(int) != i+1 {
			t.Errorf("delivery %d = %v", i, m.Payload)
		}
	}
}

func TestCausalCrossSenderDependency(t *testing.T) {
	// Three members. Member 0 multicasts m1; member 1 delivers m1 and then
	// multicasts m2 (so m1 -> m2 causally). Member 2 receives m2 first: it
	// must be buffered until m1 arrives.
	q0 := NewCausalQueue(0, 3)
	q1 := NewCausalQueue(1, 3)
	q2 := NewCausalQueue(2, 3)

	vt1 := q0.PrepareSend()
	m1 := CausalIncoming{ID: mkID(0, 1), SenderRank: 0, VT: vt1, Payload: "m1"}

	// Member 1 receives and delivers m1, then sends m2.
	if out := q1.Receive(m1); len(out) != 1 {
		t.Fatalf("member 1 did not deliver m1: %v", out)
	}
	vt2 := q1.PrepareSend()
	m2 := CausalIncoming{ID: mkID(1, 1), SenderRank: 1, VT: vt2, Payload: "m2"}

	// Member 2 gets m2 before m1.
	if out := q2.Receive(m2); len(out) != 0 {
		t.Fatal("m2 delivered before its causal predecessor m1")
	}
	out := q2.Receive(m1)
	if len(out) != 2 || out[0].Payload != "m1" || out[1].Payload != "m2" {
		t.Fatalf("causal order violated: %v", out)
	}
}

func TestConcurrentMessagesDeliverInAnyOrder(t *testing.T) {
	// Members 0 and 1 multicast concurrently; member 2 may deliver them in
	// either order but must deliver both.
	q0 := NewCausalQueue(0, 3)
	q1 := NewCausalQueue(1, 3)
	q2 := NewCausalQueue(2, 3)

	a := CausalIncoming{ID: mkID(0, 1), SenderRank: 0, VT: q0.PrepareSend(), Payload: "a"}
	b := CausalIncoming{ID: mkID(1, 1), SenderRank: 1, VT: q1.PrepareSend(), Payload: "b"}

	out := slices.Clone(q2.Receive(b)) // a result is the queue's until its next Receive
	out = append(out, q2.Receive(a)...)
	if len(out) != 2 {
		t.Fatalf("expected both concurrent messages delivered, got %v", out)
	}
}

func TestOwnMessagesAreSkipped(t *testing.T) {
	q := NewCausalQueue(0, 2)
	vt := q.PrepareSend()
	in := CausalIncoming{ID: mkID(0, 1), SenderRank: 0, VT: vt, Payload: "self"}
	if out := q.Receive(in); out != nil {
		t.Errorf("own message was re-delivered: %v", out)
	}
}

// A second copy of a message — one a flush re-disseminates beside the
// original — is turned away whether the original was delivered or still
// waits, and the waiting original is released in its place all the same.
func TestSecondCopyIsTurnedAway(t *testing.T) {
	sender := NewCausalQueue(0, 2)
	recv := NewCausalQueue(1, 2)
	var msgs []CausalIncoming
	for i := 1; i <= 3; i++ {
		msgs = append(msgs, CausalIncoming{ID: mkID(0, uint64(i)), SenderRank: 0, VT: sender.PrepareSend(), Payload: i})
	}
	if out := recv.Receive(msgs[0]); len(out) != 1 {
		t.Fatalf("message 1 not delivered: %v", out)
	}
	if out := recv.Receive(msgs[0]); out != nil {
		t.Errorf("second copy of a delivered message released %v", out)
	}
	if out := recv.Receive(msgs[2]); len(out) != 0 {
		t.Fatalf("message 3 delivered before 2: %v", out)
	}
	if out := recv.Receive(msgs[2]); out != nil || recv.PendingCount() != 1 {
		t.Errorf("second copy of a waiting message released %v, %d waiting", out, recv.PendingCount())
	}
	out := recv.Receive(msgs[1])
	if len(out) != 2 || out[0].Payload != 2 || out[1].Payload != 3 {
		t.Errorf("after the copies, message 2 released %v, want 2 then 3", out)
	}
}

// A queue ordering for several members of one site stamps for whichever of
// them sends: only that member's entry moves.
func TestStampTicksTheGivenRankOnly(t *testing.T) {
	q := NewCausalQueue(-1, 3)
	if vt := q.Stamp(2); !vt.Equal(vclock.VC{0, 0, 1}) {
		t.Errorf("Stamp(2) = %v", vt)
	}
	if vt := q.Stamp(0); !vt.Equal(vclock.VC{1, 0, 1}) {
		t.Errorf("Stamp(0) after Stamp(2) = %v", vt)
	}
	if vt := q.Stamp(2); !vt.Equal(vclock.VC{1, 0, 2}) || !q.Clock().Equal(vt) {
		t.Errorf("second Stamp(2) = %v, clock %v", vt, q.Clock())
	}
}

func TestInstallViewResetsState(t *testing.T) {
	q := NewCausalQueue(1, 3)
	// Buffer an undeliverable message (depends on an unseen one).
	vt := vclock.VC{2, 0, 0}
	in := CausalIncoming{ID: mkID(0, 2), SenderRank: 0, VT: vt, Payload: "late"}
	if out := q.Receive(in); len(out) != 0 {
		t.Fatal("unexpectedly deliverable")
	}
	dropped := q.InstallView(0, 2)
	if len(dropped) != 1 || dropped[0].Payload != "late" {
		t.Errorf("InstallView dropped = %v", dropped)
	}
	if q.PendingCount() != 0 || q.selfRank != 0 {
		t.Error("InstallView did not reset state")
	}
	if !q.Clock().Equal(vclock.New(2)) {
		t.Errorf("clock not reset: %v", q.Clock())
	}
	// The queue works normally in the new view.
	q2 := NewCausalQueue(1, 2)
	m := CausalIncoming{ID: mkID(1, 1), SenderRank: 1, VT: q2.PrepareSend(), Payload: "fresh"}
	if out := q.Receive(m); len(out) != 1 {
		t.Errorf("delivery in new view failed: %v", out)
	}
}

func TestPendingSorted(t *testing.T) {
	q := NewCausalQueue(2, 3)
	// Two undeliverable messages with gaps.
	m2 := CausalIncoming{ID: mkID(1, 2), SenderRank: 1, VT: vclock.VC{0, 2, 0}, Payload: "b2"}
	m5 := CausalIncoming{ID: mkID(0, 5), SenderRank: 0, VT: vclock.VC{5, 0, 0}, Payload: "a5"}
	q.Receive(m5)
	q.Receive(m2)
	pend := q.Pending()
	if len(pend) != 2 {
		t.Fatalf("Pending = %v", pend)
	}
	if !pend[0].ID.Less(pend[1].ID) {
		t.Error("Pending not sorted by id")
	}
}

// Property-style test: for random interleavings of per-sender FIFO streams,
// every receiver delivers all messages, respects per-sender FIFO order, and
// respects causality chains created by alternating senders.
func TestCausalRandomInterleavings(t *testing.T) {
	const members = 4
	const perSender = 5
	rng := rand.New(rand.NewSource(3))

	for trial := 0; trial < 50; trial++ {
		queues := make([]*CausalQueue, members)
		for i := range queues {
			queues[i] = NewCausalQueue(i, members)
		}
		// Build a causal history: senders take turns; each sender delivers
		// everything available to it before sending (simulated by merging
		// clocks through a shared "omniscient" sequence, which produces a
		// totally ordered causal chain — the strongest causality case).
		var stream []cbMsg
		for round := 0; round < perSender; round++ {
			for s := 0; s < members; s++ {
				// Before sending, sender s receives everything sent so far.
				for _, m := range stream {
					queues[s].Receive(m.in)
				}
				vt := queues[s].PrepareSend()
				in := CausalIncoming{
					ID:         mkID(s, uint64(round*members+s+1)),
					SenderRank: s,
					VT:         vt,
					Payload:    len(stream),
				}
				stream = append(stream, cbMsg{in: in, from: s})
			}
		}
		// Deliver the whole stream to a fresh observer in random order;
		// since the history is a single causal chain, the observer must
		// deliver in exactly stream order.
		obs := NewCausalQueue(members, members+1)
		perm := rng.Perm(len(stream))
		var delivered []int
		for _, idx := range perm {
			for _, d := range obs.Receive(stream[idx].in) {
				delivered = append(delivered, d.Payload.(int))
			}
		}
		if len(delivered) != len(stream) {
			t.Fatalf("trial %d: delivered %d of %d", trial, len(delivered), len(stream))
		}
		for i, v := range delivered {
			if v != i {
				t.Fatalf("trial %d: causal chain broken at %d: %v", trial, i, delivered)
			}
		}
	}
}
