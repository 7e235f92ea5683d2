//go:build !race

package protos

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/vclock"
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

// TestDataPacketCodecAllocations pins what a data packet costs on each side of
// the wire and on its way to a member: one allocation to encode (the packet's
// bytes; the header is built in pooled scratch), none to read the header, four
// for a whole CBCAST (the struct, the timestamp, the payload message and its
// table), none to hand a released packet to the only member of a site.
func TestDataPacketCodecAllocations(t *testing.T) {
	fx := newWireFixture(t)
	p := &dataPacket{proto: CBCAST, entry: addr.EntryUserBase, group: fx.gid, view: fx.view,
		id: core.MsgID{Sender: addr.NewProcess(2, 0, 9), Seq: 1}, vt: vclock.VC{1}, payload: body("x").PutBytes("p", make([]byte, 100))}
	if n := testing.AllocsPerRun(100, func() {
		p.raw = nil
		if err := p.encode(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("encoding a data packet allocates %.0f times, want 1", n)
	}
	var hdr dataPacket
	if n := testing.AllocsPerRun(100, func() {
		if _, _, ok := hdr.parseHeader(p.raw[envelopeBytes:]); !ok {
			t.Fatal("the header does not parse")
		}
	}); n != 0 {
		t.Errorf("parsing a data header allocates %.0f times, want 0", n)
	}
	var back *dataPacket
	if n := testing.AllocsPerRun(100, func() { back, _ = parseDataPacket(p.raw) }); n != 4 {
		t.Errorf("parsing a CBCAST allocates %.0f times, want 4", n)
	}
	if back == nil || back.id != p.id || !back.vt.Equal(p.vt) || back.payload.GetString("body", "") != "x" {
		t.Fatalf("parsed %+v, want %+v", back, p)
	}
	fx.d.mu.Lock()
	defer fx.d.mu.Unlock()
	gs := fx.d.groups[fx.gid]
	if n := testing.AllocsPerRun(100, func() { fx.d.deliverDataLocked(gs, back) }); n != 0 {
		t.Errorf("delivering a released packet to a site's only member allocates %.0f times, want 0", n)
	}
}

// TestRemoteReplyReceiveAllocations pins the receive path of a reply from
// another site against the owning decode of its body alone: beyond that
// decode, which leaves room in the table for the four system fields, it
// queues the delivery as a value — no copy of the frame, no grown table, no
// second message, no clone, no closure.
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
	if receive > decode {
		t.Errorf("receiving a reply allocates %.1f times, decoding its body %.1f: want no more", receive, decode)
	}
	if got := fx.d.Counters().Delivered; got != 202 {
		t.Errorf("Delivered = %d, want 202", got)
	}
}
