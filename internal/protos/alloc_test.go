//go:build !race

package protos

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// TestControlCodecAllocations pins what the packets that left the message codec
// cost: encoding any GBCAST-family packet allocates once (the packet), parsing
// a state block nothing (the header is a value, the block a view of the frame),
// and parsing a commit with a four-member view at most three objects (its
// process list, its members and its view's name; the packet is a value).
func TestControlCodecAllocations(t *testing.T) {
	values, types := goldenWireValues(t)
	for name, v := range values {
		if p, ok := v.(gbPacket); ok {
			if n := testing.AllocsPerRun(100, func() { _, _ = p.encode(types[name]) }); n != 1 {
				t.Errorf("encoding %s allocates %.0f times, want 1", name, n)
			}
		}
	}
	raw := stateHeader{group: addr.NewGroup(1, 0, 3), joiner: addr.NewProcess(3, 2, 1), xferID: 6}.encode(make([]byte, 4096))
	if n := testing.AllocsPerRun(100, func() { _, _, _ = parseState(raw[envelopeBytes:]) }); n != 0 {
		t.Errorf("parsing a state block allocates %.0f times, want 0", n)
	}
	gid := addr.NewGroup(1, 0, 3)
	members := addr.List{addr.NewProcess(1, 0, 1), addr.NewProcess(2, 0, 1), addr.NewProcess(3, 0, 1), addr.NewProcess(4, 0, 1)}
	commit := gbPacket{group: gid, kind: gbJoin, procs: members[3:], view: core.View{Group: gid, Name: "bench", ID: 8, Members: members},
		reqID: 77<<32 | 1, wantState: true}
	raw, _ = commit.encode(ptGbCommit)
	var back gbPacket
	if n := testing.AllocsPerRun(100, func() { back = gbPacket{}; back.parse(raw[envelopeBytes:]) }); n > 3 {
		t.Errorf("parsing a commit with a four-member view allocates %.0f times, want at most 3", n)
	}
	if !reflect.DeepEqual(back, commit) {
		t.Errorf("parsed %+v, want %+v", back, commit)
	}
}

// TestDataPacketCodecAllocations pins what a data packet costs on each side of
// the wire and on its way to a member: one allocation to encode (the packet's
// bytes; the header is built in pooled scratch), none to read the header, three
// for a whole CBCAST (the struct, which holds the timestamp, the payload
// message and its table), none to hand a released packet to the only member of
// a site.
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
		r := reader{b: p.raw[envelopeBytes:]}
		if hdr.parseHeader(&r); r.bad {
			t.Fatal("the header does not parse")
		}
	}); n != 0 {
		t.Errorf("parsing a data header allocates %.0f times, want 0", n)
	}
	var back *dataPacket
	if n := testing.AllocsPerRun(100, func() { back, _ = parseDataPacket(p.raw) }); n != 3 {
		t.Errorf("parsing a CBCAST allocates %.0f times, want 3", n)
	}
	if back == nil || back.id != p.id || !back.vt.Equal(p.vt) || back.payload.GetString("body", "") != "x" {
		t.Fatalf("parsed %+v, want %+v", back, p)
	}
	fx.d.mu.Lock()
	defer fx.d.mu.Unlock()
	gs := fx.d.groups[fx.gid]
	if n := testing.AllocsPerRun(100, func() { fx.d.releaseLocked(gs, back) }); n != 0 {
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
	fx.d.handleTransport(2, raw)                       // the first packet from a site registers the peer
	head := envelopeBytes + 2*addr.EncodedSize + 1 + 1 // the addresses, the session (4) and the kind
	decode := testing.AllocsPerRun(200, func() {
		if _, err := msg.UnmarshalOwned(raw[head:], 0); err != nil {
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

// TestReplyCodecAllocations pins what a reply costs: encoding a request
// answered with itself allocates once (the packet), its system fields skipped
// in place, to the bytes of its stripped clone; and a reply whose Cast will
// not read it is dropped at its header with nothing allocated.
func TestReplyCodecAllocations(t *testing.T) {
	req := systemFields(body("q").PutInt("n", 7), addr.NewProcess(1, 0, 1), addr.NewGroup(1, 0, 3), 4, CBCAST).PutInt(msg.FSession, 9)
	h := replyHeader{caller: addr.NewProcess(1, 0, 1), responder: addr.NewProcess(2, 0, 9), session: 9, kind: 1}
	want, _ := encodeReply(h, req.CloneStripped(0))
	var got []byte
	if n := testing.AllocsPerRun(100, func() { got, _ = encodeReply(h, req) }); n != 1 {
		t.Errorf("encoding a reply allocates %.0f times, want 1", n)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the reply encodes to %x, its stripped clone to %x", got, want)
	}
	fx := newWireFixture(t)
	asked := 0
	caller, err := fx.d.RegisterProcess(func(addr.EntryID, *msg.Message) { t.Error("an unread reply was handed over") }, func(func()) {}, nil,
		func(int64, addr.Address, uint8) bool { asked++; return false })
	if err != nil {
		t.Fatal(err)
	}
	h.caller = caller
	raw, _ := encodeReply(h, req)
	if n := testing.AllocsPerRun(100, func() { fx.d.handleTransport(2, raw) }); n != 0 || asked != 101 {
		t.Errorf("dropping an unread reply allocates %.0f times (asked %d times)", n, asked)
	}
}
