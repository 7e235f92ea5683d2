//go:build !race

package protos

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
)

// TestAbRecordCodecAllocations pins what ABCAST's control packets cost: one
// allocation to encode (the packet itself), none to parse.
func TestAbRecordCodecAllocations(t *testing.T) {
	r := abRecord{group: addr.NewGroup(1, 0, 3), id: core.MsgID{Sender: addr.NewProcess(2, 1, 7), Seq: 42}, prio: 77, attempt: 2}
	var raw []byte
	if n := testing.AllocsPerRun(100, func() { raw = r.encode(ptAbPropose) }); n != 1 {
		t.Errorf("encoding a record allocates %.0f times, want 1", n)
	}
	var back abRecord
	var ok bool
	if n := testing.AllocsPerRun(100, func() { back, ok = parseAbRecord(raw[envelopeBytes:]) }); n != 0 {
		t.Errorf("parsing a record allocates %.0f times, want 0", n)
	}
	if !ok || back != r {
		t.Errorf("parsed %+v (ok=%v), want %+v", back, ok, r)
	}
}

// TestRemoteReplyReceiveAllocations pins the receive path of a reply from
// another site against the owning decode of its body alone: beyond that
// decode, which leaves room in the table for the four system fields, it
// queues the delivery — no copy of the frame, no grown table, no second
// message, no clone.
func TestRemoteReplyReceiveAllocations(t *testing.T) {
	fx := newWireFixture(t)
	raw := fx.reply(t, 1, msg.New().PutInt("n", 1).PutBytes("p", make([]byte, 100)))
	fx.d.handleTransport(2, raw) // the first packet from a site registers the peer
	decode := testing.AllocsPerRun(200, func() {
		if _, err := msg.UnmarshalOwned(raw[envelopeBytes+replyHeaderBytes:], 0); err != nil {
			t.Fatal(err)
		}
	})
	receive := testing.AllocsPerRun(200, func() { fx.d.handleTransport(2, raw) })
	if receive > decode+1 {
		t.Errorf("receiving a reply allocates %.1f times, decoding its body %.1f: want at most 1 more", receive, decode)
	}
	if got := fx.d.Counters().Delivered; got != 202 {
		t.Errorf("Delivered = %d, want 202", got)
	}
}
