package core

import "sort"

// The ABCAST protocol (Section 3.1 of the paper, specified in [Birman-a]) is
// a two-phase priority-agreement protocol:
//
//  1. the sender multicasts the message to every destination;
//  2. each destination assigns it a proposed priority (one larger than any
//     priority it has used or seen) and sends the proposal back;
//  3. the sender picks the maximum proposal as the final priority and
//     multicasts a commit;
//  4. destinations hold messages in a priority-ordered queue and deliver a
//     message once it is committed and no pending message — committed or not
//     — has a smaller priority.
//
// Because every destination agrees on the final priority and ties are broken
// by the globally unique message id, the delivery order is identical at all
// destinations, which is exactly the ABCAST guarantee.

// TotalDelivery is one message released by the total-order queue, with the
// final priority it was delivered at (the GBCAST flush reports it so other
// sites can complete a straggler at the exact same final).
type TotalDelivery struct {
	ID       MsgID
	Payload  any
	Priority uint64
}

// abPending is one message awaiting delivery at a destination.
type abPending struct {
	id        MsgID
	payload   any
	priority  uint64 // proposed until committed, then final
	committed bool
}

// TotalQueue is the per-member receiver state of the ABCAST protocol. It is
// not safe for concurrent use; the owning protocols process serializes
// access. The deliveries a call (Commit, ForceCommit, Discard) returns live in
// a buffer the queue owns: they are valid until its next such call.
type TotalQueue struct {
	clock     uint64 // largest priority proposed or observed
	pending   map[MsgID]*abPending
	delivered BoundedLog[MsgID, struct{}] // dedup of already-delivered ids
	out       []TotalDelivery             // what the last call released; reused by the next
}

// NewTotalQueue returns an empty queue. historyLimit bounds the
// duplicate-suppression memory; 0 selects a reasonable default.
func NewTotalQueue(historyLimit int) *TotalQueue {
	if historyLimit <= 0 {
		historyLimit = 1024
	}
	return &TotalQueue{
		pending:   make(map[MsgID]*abPending),
		delivered: NewBoundedLog[MsgID, struct{}](historyLimit),
	}
}

// Propose records the arrival of phase-1 data for a message and returns the
// priority this member proposes for it. Proposing the same message twice
// returns the original proposal (idempotent).
func (q *TotalQueue) Propose(id MsgID, payload any) uint64 {
	if p, ok := q.pending[id]; ok {
		return p.priority
	}
	if q.Delivered(id) {
		// Already delivered (a late duplicate); re-propose its old priority
		// is impossible, but any value is safe because the sender has
		// already committed. Return the current clock.
		return q.clock
	}
	q.clock++
	q.pending[id] = &abPending{id: id, payload: payload, priority: q.clock}
	return q.clock
}

// Commit records the final priority decided by the sender and returns every
// message that has become deliverable, in delivery order. Committing an
// unknown or already-delivered message returns only whatever else may have
// become deliverable (it is not an error: commits can race with view-change
// reconciliation).
func (q *TotalQueue) Commit(id MsgID, final uint64) []TotalDelivery {
	if p, ok := q.pending[id]; ok {
		p.priority = final
		p.committed = true
		if final > q.clock {
			q.clock = final
		}
	}
	return q.drain()
}

// drain delivers committed messages from the head of the priority order.
func (q *TotalQueue) drain() []TotalDelivery {
	clear(q.out)
	q.out = q.out[:0]
	for {
		head := q.minPending()
		if head == nil || !head.committed {
			return q.out
		}
		delete(q.pending, head.id)
		q.delivered.Put(head.id, struct{}{})
		q.out = append(q.out, TotalDelivery{ID: head.id, Payload: head.payload, Priority: head.priority})
	}
}

// minPending returns the pending message with the smallest (priority, id).
func (q *TotalQueue) minPending() *abPending {
	var best *abPending
	for _, p := range q.pending {
		if best == nil {
			best = p
			continue
		}
		if p.priority < best.priority ||
			(p.priority == best.priority && p.id.Less(best.id)) {
			best = p
		}
	}
	return best
}

// Delivered reports whether the queue has already delivered the message
// (within its bounded memory).
func (q *TotalQueue) Delivered(id MsgID) bool {
	_, ok := q.delivered.Get(id)
	return ok
}

// HeadBlocked returns the message at the head of the priority order when it
// is still uncommitted — the entry whose missing final priority is blocking
// every later committed delivery. The second result is false when the queue
// is empty or its head is committed (and therefore about to drain). The
// re-solicitation watchdog polls this to detect stragglers.
func (q *TotalQueue) HeadBlocked() (MsgID, any, bool) {
	head := q.minPending()
	if head == nil || head.committed {
		return MsgID{}, nil, false
	}
	return head.id, head.payload, true
}

// PendingCount returns the number of messages awaiting delivery.
func (q *TotalQueue) PendingCount() int { return len(q.pending) }

// PendingState describes one pending ABCAST for view-change reconciliation.
type PendingState struct {
	ID        MsgID
	Payload   any
	Priority  uint64
	Committed bool
}

// Pending returns a snapshot of the pending messages sorted by id. The
// GBCAST flush collects these from every member when a view change is being
// installed, so that a message committed at some member but not others can
// be completed everywhere (the all-or-nothing atomicity rule when a sender
// fails).
func (q *TotalQueue) Pending() []PendingState {
	out := make([]PendingState, 0, len(q.pending))
	for _, p := range q.pending {
		out = append(out, PendingState{ID: p.id, Payload: p.payload, Priority: p.priority, Committed: p.committed})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// ForceCommit is used by view-change reconciliation: it installs (if absent)
// and commits a message at the given final priority, returning any newly
// deliverable messages. Already-delivered messages are ignored.
func (q *TotalQueue) ForceCommit(id MsgID, payload any, final uint64) []TotalDelivery {
	if q.Delivered(id) {
		return q.drain()
	}
	p, ok := q.pending[id]
	if !ok {
		p = &abPending{id: id, payload: payload}
		q.pending[id] = p
	}
	p.priority = final
	p.committed = true
	if final > q.clock {
		q.clock = final
	}
	return q.drain()
}

// Discard removes a pending, uncommitted message (the fate of an ABCAST
// whose sender failed before any member learned the final priority — the
// "none" branch of the atomicity rule — or of one a GBCAST flush fences
// behind a view change) and returns any messages its removal unblocks: a
// committed entry queued behind the discarded head becomes deliverable the
// moment the head disappears. Discarding an unknown id is a no-op.
func (q *TotalQueue) Discard(id MsgID) []TotalDelivery {
	if p, ok := q.pending[id]; ok && !p.committed {
		delete(q.pending, id)
	}
	return q.drain()
}

// Clock returns the largest priority proposed or observed so far.
func (q *TotalQueue) Clock() uint64 { return q.clock }
