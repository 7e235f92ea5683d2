package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// propose runs phase 1 of the two-phase protocol for a set of destination
// queues and returns the maximum proposal, the final priority the sender
// commits.
func propose(queues []*TotalQueue, id MsgID, payload any) uint64 {
	var max uint64
	for _, q := range queues {
		if p := q.Propose(id, payload); p > max {
			max = p
		}
	}
	return max
}

func TestSingleABCASTDelivery(t *testing.T) {
	q := NewTotalQueue(0)
	id := mkID(0, 1)
	prio := q.Propose(id, "hello")
	if prio != 1 {
		t.Errorf("first proposal = %d", prio)
	}
	out := q.Commit(id, prio)
	if len(out) != 1 || out[0].Payload != "hello" || out[0].ID != id {
		t.Fatalf("deliveries = %v", out)
	}
	if out := q.Commit(id, prio); len(out) != 0 {
		t.Errorf("a second commit delivered %v again", out)
	}
}

func TestCommitBlocksBehindSmallerUncommitted(t *testing.T) {
	q := NewTotalQueue(0)
	a := mkID(0, 1)
	b := mkID(1, 1)
	pa := q.Propose(a, "a") // priority 1
	pb := q.Propose(b, "b") // priority 2
	if pa != 1 || pb != 2 {
		t.Fatalf("proposals = %d %d", pa, pb)
	}
	// Commit b first with final priority 2: it must NOT be delivered while
	// a (priority 1, uncommitted) is still pending, because a's final
	// priority could end up below 2.
	if out := q.Commit(b, 2); len(out) != 0 {
		t.Fatalf("b delivered ahead of uncommitted a: %v", out)
	}
	// Now commit a at priority 5 (> b): both become deliverable, b first.
	out := q.Commit(a, 5)
	if len(out) != 2 || out[0].Payload != "b" || out[1].Payload != "a" {
		t.Fatalf("delivery order = %v", out)
	}
}

func TestIdenticalOrderAcrossDestinations(t *testing.T) {
	// Three destinations, five concurrent ABCASTs committed in different
	// orders at each destination: the delivery order must nevertheless be
	// identical everywhere.
	const dests = 3
	const msgs = 5
	queues := make([]*TotalQueue, dests)
	for i := range queues {
		queues[i] = NewTotalQueue(0)
	}
	ids := make([]MsgID, msgs)
	finals := make([]uint64, msgs)
	for m := 0; m < msgs; m++ {
		ids[m] = mkID(m%2, uint64(m+1))
		finals[m] = propose(queues, ids[m], m)
	}
	// Commit in a different permutation at each destination.
	perms := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}}
	logs := make([][]int, dests)
	for d, q := range queues {
		for _, m := range perms[d] {
			for _, del := range q.Commit(ids[m], finals[m]) {
				logs[d] = append(logs[d], del.Payload.(int))
			}
		}
	}
	for d := 1; d < dests; d++ {
		if !reflect.DeepEqual(logs[0], logs[d]) {
			t.Fatalf("destination %d delivered %v, destination 0 delivered %v", d, logs[d], logs[0])
		}
	}
	if len(logs[0]) != msgs {
		t.Fatalf("delivered %d of %d", len(logs[0]), msgs)
	}
}

func TestProposeIdempotent(t *testing.T) {
	q := NewTotalQueue(0)
	id := mkID(0, 1)
	p1 := q.Propose(id, "x")
	p2 := q.Propose(id, "x")
	if p1 != p2 {
		t.Errorf("duplicate proposal changed priority: %d vs %d", p1, p2)
	}
	if out := q.Commit(id, p1); len(out) != 1 {
		t.Errorf("duplicate proposal: the commit released %v, want the message once", out)
	}
}

func TestCommitUnknownIsHarmless(t *testing.T) {
	q := NewTotalQueue(0)
	if out := q.Commit(mkID(0, 9), 10); len(out) != 0 {
		t.Errorf("commit of unknown id delivered something: %v", out)
	}
}

func TestProposeAfterDelivery(t *testing.T) {
	q := NewTotalQueue(0)
	id := mkID(0, 1)
	q.Propose(id, "x")
	q.Commit(id, 1)
	// A late duplicate of phase 1 must not resurrect the message.
	q.Propose(id, "x")
	if out := q.Commit(id, 2); len(out) != 0 {
		t.Errorf("late duplicate re-queued a delivered message: %v", out)
	}
}

func TestClockAdvancesToFinalPriority(t *testing.T) {
	q := NewTotalQueue(0)
	a := mkID(0, 1)
	q.Propose(a, "a")
	q.Commit(a, 10) // some other destination proposed 10
	// The next proposal must exceed any priority this destination has
	// observed, otherwise total order could be violated.
	b := mkID(1, 1)
	if p := q.Propose(b, "b"); p != 11 {
		t.Errorf("next proposal = %d, want 11", p)
	}
}

func TestHistoryBound(t *testing.T) {
	q := NewTotalQueue(3)
	for i := 1; i <= 5; i++ {
		id := mkID(0, uint64(i))
		p := q.Propose(id, i)
		q.Commit(id, p)
	}
	// Only the last 3 ids are remembered: a late phase 1 of the first is
	// queued again, of the last it is not.
	for i, forgotten := range map[uint64]bool{1: true, 5: false} {
		id := mkID(0, i)
		if out := q.Commit(id, q.Propose(id, i)); (len(out) == 1) != forgotten {
			t.Errorf("id %d: a late duplicate released %v, want a release %v", i, out, forgotten)
		}
	}
}

// Property test: for random message sets and random per-destination commit
// interleavings, all destinations deliver the same sequence, exactly once
// per message (agreement + total order + integrity).
func TestTotalOrderRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		dests := 2 + rng.Intn(4)
		msgs := 1 + rng.Intn(12)
		queues := make([]*TotalQueue, dests)
		for i := range queues {
			queues[i] = NewTotalQueue(0)
		}
		ids := make([]MsgID, msgs)
		finals := make([]uint64, msgs)
		// Phase 1 in a random per-destination arrival order.
		for m := 0; m < msgs; m++ {
			ids[m] = mkID(rng.Intn(5), uint64(trial*100+m))
		}
		for _, q := range queues {
			for _, m := range rng.Perm(msgs) {
				if p := q.Propose(ids[m], m); p > finals[m] {
					finals[m] = p
				}
			}
		}
		logs := make([][]int, dests)
		for d, q := range queues {
			for _, m := range rng.Perm(msgs) {
				for _, del := range q.Commit(ids[m], finals[m]) {
					logs[d] = append(logs[d], del.Payload.(int))
				}
			}
		}
		for d := 0; d < dests; d++ {
			if len(logs[d]) != msgs {
				t.Fatalf("trial %d: destination %d delivered %d of %d", trial, d, len(logs[d]), msgs)
			}
			if !reflect.DeepEqual(logs[d], logs[0]) {
				t.Fatalf("trial %d: destination %d order %v != %v", trial, d, logs[d], logs[0])
			}
		}
	}
}
