package core

// The paper's ABCAST (Section 3.1, specified in [Birman-a]) is a two-phase
// priority-agreement protocol:
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
// The protocols daemon no longer runs it: a view's oldest member site
// sequences every ABCAST of the view instead (internal/protos). TotalQueue is
// the receiver half of the paper's protocol, kept as the kernel the benchmark
// times against the causal queue.

// TotalDelivery is one message released by the total-order queue, with the
// final priority it was delivered at.
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

// TotalQueue is the per-destination receiver state of the two-phase ABCAST
// protocol. It is not safe for concurrent use. The deliveries Commit returns
// live in a buffer the queue owns: they are valid until its next Commit.
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
// priority this destination proposes for it. Proposing the same message twice
// returns the original proposal; proposing one already delivered (a late
// duplicate) queues nothing and returns the current clock.
func (q *TotalQueue) Propose(id MsgID, payload any) uint64 {
	if p, ok := q.pending[id]; ok {
		return p.priority
	}
	if _, done := q.delivered.Get(id); done {
		return q.clock
	}
	q.clock++
	q.pending[id] = &abPending{id: id, payload: payload, priority: q.clock}
	return q.clock
}

// Commit records the final priority decided by the sender and returns every
// message that has become deliverable, in delivery order. Committing an
// unknown or already-delivered message returns only whatever else may have
// become deliverable.
func (q *TotalQueue) Commit(id MsgID, final uint64) []TotalDelivery {
	if p, ok := q.pending[id]; ok {
		p.priority = final
		p.committed = true
		q.clock = max(q.clock, final)
	}
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
		if best == nil || p.priority < best.priority || p.priority == best.priority && p.id.Less(best.id) {
			best = p
		}
	}
	return best
}
