package core

import (
	"sort"

	"repro/internal/vclock"
)

// CausalIncoming is one CBCAST as seen by a receiving member: the message
// identifier, the rank in the view the message was sent in of the member that
// stamped it (the sender, or for a non-member's cast the member that relayed
// it), that member's vector timestamp, and the opaque payload the protocols
// process will eventually hand to the application. Rank -1 is a message no
// member has stamped yet: its timestamp is what must be delivered before it.
type CausalIncoming struct {
	ID         MsgID
	SenderRank int
	VT         vclock.VC
	Payload    any
}

// CausalQueue is the receiver state of the CBCAST protocol — of one member,
// or of a site ordering on behalf of every member it hosts. It
// buffers messages that are not yet causally deliverable and releases them
// as their causal predecessors arrive. Vector timestamps are per view: the
// GBCAST flush that precedes every view change guarantees that no CBCAST
// crosses a view boundary, so the clock is simply reset when a new view is
// installed.
//
// CausalQueue is not safe for concurrent use; the owning protocols process
// serializes access.
type CausalQueue struct {
	selfRank int
	vc       vclock.VC

	pending []CausalIncoming // not yet deliverable
	out     []CausalIncoming // what the last Receive released; reused by the next
}

// NewCausalQueue creates the receiver state for a member with the given rank
// in a view of the given size. A queue that stamps for several ranks (Stamp)
// has none of its own and passes -1.
func NewCausalQueue(selfRank, viewSize int) *CausalQueue {
	return &CausalQueue{
		selfRank: selfRank,
		vc:       vclock.New(viewSize),
	}
}

// Clock returns a copy of the queue's current vector clock.
func (q *CausalQueue) Clock() vclock.VC { return q.vc.Clone() }

// Stamp advances the clock entry of the member at the given rank and writes
// the vector timestamp to stamp on its outgoing CBCAST into dst's storage,
// which it returns. The caller must deliver the message locally right away (a
// sender always sees its own multicast immediately; this is what makes
// asynchronous use safe — Section 3.4). Rank -1 advances nothing: the
// timestamp is the clock as released, what a message nobody stamps yet waits
// for (Receive).
func (q *CausalQueue) Stamp(rank int, dst vclock.VC) vclock.VC {
	if rank >= 0 {
		q.vc.Tick(rank)
	}
	return append(dst[:0], q.vc...)
}

// PrepareSend is Stamp for the queue's own member, into a clock of its own.
func (q *CausalQueue) PrepareSend() vclock.VC { return q.Stamp(q.selfRank, nil) }

// Receive buffers an incoming CBCAST and returns every message (including
// possibly this one) that has now become deliverable, in causal order, in a
// buffer the queue owns: it is valid until the next Receive. A second copy is
// turned away: of a message the clock already covers — one delivered, or
// stamped here and so delivered at send time — and of one already waiting.
// A message of rank -1 is released once the clock dominates its timestamp,
// and never moves the clock; only a second copy waiting is turned away.
func (q *CausalQueue) Receive(in CausalIncoming) []CausalIncoming {
	if in.SenderRank >= 0 && in.VT.Get(in.SenderRank) <= q.vc.Get(in.SenderRank) {
		return nil
	}
	for i := range q.pending {
		if q.pending[i].ID == in.ID {
			return nil
		}
	}
	q.pending = append(q.pending, in)
	return q.drain()
}

// drain repeatedly scans the pending buffer for deliverable messages until
// none remains deliverable, returning them in delivery order in q.out.
func (q *CausalQueue) drain() []CausalIncoming {
	clear(q.out)
	q.out = q.out[:0]
	for {
		idx := -1
		for i, m := range q.pending {
			if q.vc.Deliverable(m.VT, m.SenderRank) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return q.out
		}
		m := q.pending[idx]
		q.pending = append(q.pending[:idx], q.pending[idx+1:]...)
		if m.SenderRank >= 0 {
			q.vc.Merge(m.VT)
		}
		q.out = append(q.out, m)
	}
}

// Pending returns the messages that are buffered but not yet deliverable,
// sorted by message id. The GBCAST flush collects these for
// reconciliation during a view change.
func (q *CausalQueue) Pending() []CausalIncoming {
	out := append([]CausalIncoming(nil), q.pending...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// PendingCount returns the number of buffered, undeliverable messages.
func (q *CausalQueue) PendingCount() int { return len(q.pending) }

// InstallView resets the per-view state for a new view in which the member
// has the given rank and the view has the given size. Messages still pending
// from the old view are returned so the caller (the flush protocol) can
// decide their fate; after the call the queue is empty with a zero clock.
func (q *CausalQueue) InstallView(selfRank, viewSize int) []CausalIncoming {
	dropped := q.Pending()
	q.pending = nil
	q.selfRank = selfRank
	q.vc = vclock.New(viewSize)
	return dropped
}
