//go:build !race

package core

import (
	"testing"

	"repro/internal/vclock"
)

// TestReleaseAllocatesNoResultSlice pins the ordering queues' release path: the
// deliveries a call returns live in a buffer the queue reuses, so an in-order
// CBCAST costs nothing to order and an ABCAST its pending entry alone.
func TestReleaseAllocatesNoResultSlice(t *testing.T) {
	payload := any(&struct{}{})
	cq, vt, seq := NewCausalQueue(-1, 3), vclock.New(3), uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		vt[1] = seq
		if out := cq.Receive(CausalIncoming{ID: mkID(1, seq), SenderRank: 1, VT: vt, Payload: payload}); len(out) != 1 {
			t.Fatalf("cast %d released %d messages, want 1", seq, len(out))
		}
	}); n != 0 {
		t.Errorf("an in-order Receive allocates %.0f times, want 0", n)
	}
	tq := NewTotalQueue(0)
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		id := mkID(1, seq)
		if out := tq.Commit(id, tq.Propose(id, payload)); len(out) != 1 || out[0].ID != id {
			t.Fatalf("commit %d released %v, want the message alone", seq, out)
		}
	}); n != 1 {
		t.Errorf("a Propose and the Commit that releases it allocate %.0f times, want 1 (the pending entry)", n)
	}
}
