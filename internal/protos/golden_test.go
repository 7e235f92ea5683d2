package protos

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// goldenWire holds the enveloped encodings of representative message-built
// packets as the code before the compact field table (PR 14, commit 84d0f7f)
// produced them; "relayack" as PR 19 defined it. "report" moved with PR 24: a
// report nests each packet as the bytes it travelled as (a bytes field holding
// a goldenData packet) where it used to nest the ten-field wrapper message;
// its own fields are where they were.
// The in-memory representation of a message is free to change; these bytes
// are not: a site running the old encoder must interoperate with the new one.
var goldenWire = map[string]string{
	"view": "" +
		"0101000401670400000008000100020000000302696403000000080000000000000006016d0500000018000201010000" +
		"000700010001000000010003020100abcdef016e020000000562656e6368",
	"report": "" +
		"010100080361623006000000cd000606266d736769640400000008000201010000000707266d73677365710300000008" +
		"000000000000002a01630300000008000000000000000101690300000008000000000000000101700300000008000000" +
		"000000004d03706b74010000006c01150002100001000100020000000300000000000000050002010100000007000000" +
		"000000002a0004084073657373696f6e03000000080000000000000009016e0300000008000000000000303901700100" +
		"00000c68656c6c6f2c20776f726c640173020000000474657874036162310600000049000406266d7367696404000000" +
		"08000201010000000707266d73677365710300000008000000000000002b016303000000080000000000000000017003" +
		"00000008000000000000000303666330060000002b000206266d736769640400000008000201010000000707266d7367" +
		"7365710300000008000000000000002c036e616203000000080000000000000002036e66630300000008000000000000" +
		"0001036e7263030000000800000000000000020372633006000000ba000306266d736769640400000008000201010000" +
		"000707266d73677365710300000008000000000000002a03706b74010000008601150101100001000100020000000300" +
		"000000000000050002010100000007000000000000002a00030000000000000003000000000000000000000000000000" +
		"090004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c68" +
		"656c6c6f2c20776f726c6401730200000004746578740372633106000000af000406266d736769640400000008000201" +
		"010000000707266d73677365710300000008000000000000002901700300000008000000000000000c03706b74010000" +
		"006c01150002100001000100020000000300000000000000050002010100000007000000000000002a00040840736573" +
		"73696f6e03000000080000000000000009016e030000000800000000000030390170010000000c68656c6c6f2c20776f" +
		"726c640173020000000474657874",
	"relayack": "" +
		"01010004052663616c6c0300000008000000000000001f06267372616e6b030000000800000000000000010526737365" +
		"71030000000800000000000000090626737669657703000000080000000000000005",
}

// goldenData holds the ptData packets in their fixed layout (PR 24): envelope,
// flags, protocol, entry, rank, group, view, id, the sections the flags select,
// then the payload as it is marshalled. They replace the message-built "data",
// "cbcast", "p2p" and "relay" of goldenWire, whose type number 1 is retired.
var goldenData = map[string]string{
	"data": "0115" + "000210" + "0001" + "0001000200000003" + "0000000000000005" + "0002010100000007" + "000000000000002a" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
	"cbcast": "0115" + "010110" + "0001" + "0001000200000003" + "0000000000000005" + "0002010100000007" + "000000000000002a" +
		"0003000000000000000300000000000000000000000000000009" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
	"restart": "0115" + "020210" + "0001" + "0001000200000003" + "0000000000000006" + "0002010100000007" + "000000000000002a" +
		"0000000000000002" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
	"p2p": "0115" + "080100" + "0000" + "0000000000000000" + "0000000000000000" + "0002010100000007" + "000000000000002a" +
		"00010001000100000001" +
		"000206407265706c7903000000080000000000000001084073657373696f6e03000000080000000000000009",
	"relay": "0115" + "040110" + "ffff" + "0001000200000003" + "0000000000000005" + "0002010100000007" + "000000000000002a" +
		"000000000000000500010000000000000008000000000000001f" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874",
}

// goldenDataPackets rebuilds the packets of goldenData.
func goldenDataPackets() map[string]*dataPacket {
	sender := addr.NewProcess(2, 1, 7)
	gid := addr.NewGroup(1, 0, 3)
	id := core.MsgID{Sender: sender, Seq: 42}
	app := func() *msg.Message {
		return msg.New().PutInt("n", 12345).PutBytes("p", []byte("hello, world")).PutString("s", "text").
			PutInt(msg.FSession, 9)
	}
	return map[string]*dataPacket{
		"data":   {proto: ABCAST, entry: addr.EntryUserBase, group: gid, view: 5, id: id, rank: 1, payload: app()},
		"cbcast": {proto: CBCAST, entry: addr.EntryUserBase, group: gid, view: 5, id: id, rank: 1, vt: vclock.VC{3, 0, 9}, payload: app()},
		// The ABCAST again, as its initiator restarts it after a fence.
		"restart": {proto: ABCAST, entry: addr.EntryUserBase, group: gid, view: 6, id: id, rank: 1, attempt: 2, payload: app()},
		"p2p": {proto: CBCAST, id: id, dests: addr.List{addr.NewProcess(1, 0, 1)},
			payload: msg.New().PutInt(msg.FSession, 9).PutInt(msg.FReply, 1)},
		// A non-member's CBCAST on its way to the relay site, naming the stamp its
		// previous one was acknowledged with (PR 19); the acknowledgement is
		// goldenWire's "relayack". What the relay site fans out is "cbcast".
		"relay": {proto: CBCAST, entry: addr.EntryUserBase, group: gid, view: 5, id: id, rank: -1,
			after: relayStamp{view: 5, rank: 1, seq: 8}, call: 31, payload: app()},
	}
}

// goldenPackets rebuilds the packets of goldenWire through today's builders.
func goldenPackets(t *testing.T) map[string]*msg.Message {
	sender := addr.NewProcess(2, 1, 7)
	gid := addr.NewGroup(1, 0, 3)
	id := core.MsgID{Sender: sender, Seq: 42}
	pkts := goldenDataPackets()
	for _, p := range pkts {
		if err := p.encode(); err != nil {
			t.Fatal(err)
		}
	}
	data, cb := pkts["data"].raw, pkts["cbcast"].raw
	view := encodeView(core.View{Group: gid, Name: "bench", ID: 6,
		Members: addr.List{sender, addr.NewProcess(1, 0, 1), addr.NewProcess(3, 2, 0xabcdef)}})
	rep := encodePendingReport(pendingReport{
		Abcasts: []abPendingWire{
			{ID: id, Committed: true, Priority: 77, Packet: data, Init: true},
			{ID: core.MsgID{Sender: sender, Seq: 43}, Priority: 3},
		},
		Recent: []recentWire{
			{ID: id, Packet: cb, Priority: 0},
			{ID: core.MsgID{Sender: sender, Seq: 41}, Packet: data, Priority: 12},
		},
		Fenced: []core.MsgID{{Sender: sender, Seq: 44}},
	})
	ack := msg.New()
	ack.PutInt(fCall, 31)
	putStamp(ack, relayStamp{view: 5, rank: 1, seq: 9})
	return map[string]*msg.Message{"view": view, "report": rep, "relayack": ack}
}

// TestWireEncodingMatchesGolden proves the wire format did not move with the
// message representation: today's builders marshal to the parent's bytes,
// and the parent's bytes decode and re-encode to themselves. (The envelope's
// type byte is 1, as when these strings were recorded: the test wraps a body
// of any type in it.)
func TestWireEncodingMatchesGolden(t *testing.T) {
	packets := goldenPackets(t)
	if len(packets) != len(goldenWire) {
		t.Fatalf("%d packets for %d golden encodings", len(packets), len(goldenWire))
	}
	for name, want := range goldenWire {
		raw, err := encodePacket(1, packets[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hex.EncodeToString(raw); got != want {
			t.Errorf("%s: encoding moved\n got %s\nwant %s", name, got, want)
		}
		old, _ := hex.DecodeString(want)
		m, err := msg.Unmarshal(old[envelopeBytes:])
		if err != nil {
			t.Fatalf("%s: golden bytes do not decode: %v", name, err)
		}
		again, err := encodePacket(1, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hex.EncodeToString(again); got != want {
			t.Errorf("%s: decode and re-encode moved the bytes\n got %s\nwant %s", name, got, want)
		}
		if size := m.MarshaledSize(); size != len(old)-envelopeBytes {
			t.Errorf("%s: MarshaledSize = %d, want %d", name, size, len(old)-envelopeBytes)
		}
	}
}

// TestDataPacketMatchesGolden checks the data packet's layout both ways: a
// packet encodes to its golden bytes, and the golden bytes parse to that packet
// and encode to themselves again — re-marshalled from the decoded payload, and
// re-headed in front of the payload bytes they came with.
func TestDataPacketMatchesGolden(t *testing.T) {
	packets := goldenDataPackets()
	if len(packets) != len(goldenData) {
		t.Fatalf("%d packets for %d golden encodings", len(packets), len(goldenData))
	}
	for name, p := range packets {
		want := goldenData[name]
		if err := p.encode(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hex.EncodeToString(p.raw); got != want {
			t.Errorf("%s: encoding moved\n got %s\nwant %s", name, got, want)
		}
		old, _ := hex.DecodeString(want)
		back, ok := parseDataPacket(old)
		if !ok {
			t.Fatalf("%s: golden bytes do not parse", name)
		}
		wantPayload, _ := p.payload.Marshal()
		if gotPayload, _ := back.payload.Marshal(); !bytes.Equal(gotPayload, wantPayload) || !bytes.Equal(old[back.body:], wantPayload) {
			t.Errorf("%s: payload %s at offset %d, want %s", name, back.payload.Format(), back.body, p.payload.Format())
		}
		hdr, wantHdr := *back, *p
		hdr.payload, hdr.raw, wantHdr.payload, wantHdr.raw = nil, nil, nil, nil
		if !reflect.DeepEqual(hdr, wantHdr) {
			t.Errorf("%s: golden bytes parse to %+v, want %+v", name, hdr, wantHdr)
		}
		if err := back.encode(); err != nil || hex.EncodeToString(back.raw) != want {
			t.Errorf("%s: parse and re-head moved the bytes (err %v)\n got %x\nwant %s", name, err, back.raw, want)
		}
		if back.raw = nil; back.encode() != nil || hex.EncodeToString(back.raw) != want {
			t.Errorf("%s: parse and re-marshal moved the bytes\n got %x\nwant %s", name, back.raw, want)
		}
	}
	if dataHeaderBytes != 37 || envelopeBytes+dataHeaderBytes+2+3*8 != 65 {
		t.Error("the data header moved: 39 bytes lead an ABCAST's payload, 65 a three-member CBCAST's")
	}
}

// goldenFixed holds the packets that travel in a fixed layout instead of as a
// marshalled message (PR 22): envelope, then the fields at fixed offsets.
var goldenFixed = map[string]string{
	"propose":   "0111" + "0001000200000003" + "0002010100000007" + "000000000000002a" + "000000000000004d" + "0000000000000002",
	"commit":    "0112" + "0001000200000003" + "0002010100000007" + "000000000000002a" + "000000000000004d" + "0000000000000000",
	"resolicit": "0113" + "0001000200000003" + "0002010100000007" + "000000000000002a" + "0000000000000000" + "0000000000000000",
	"reply":     "0114" + "0001000100000001" + "0002010100000007" + "0000000000000009" + "01" + "00010173020000000474657874",
	"nullreply": "0114" + "0001000100000001" + "0002010100000007" + "0000000000000009" + "02" + "0000",
}

// TestFixedLayoutMatchesGolden checks the fixed-layout packets both ways:
// today's encoders produce the golden bytes, and the golden bytes parse to the
// record they were built from and encode to themselves again.
func TestFixedLayoutMatchesGolden(t *testing.T) {
	sender, gid := addr.NewProcess(2, 1, 7), addr.NewGroup(1, 0, 3)
	id := core.MsgID{Sender: sender, Seq: 42}
	records := map[string]abRecord{
		"propose":   {group: gid, id: id, prio: 77, attempt: 2},
		"commit":    {group: gid, id: id, prio: 77},
		"resolicit": {group: gid, id: id},
	}
	types := map[string]byte{"propose": ptAbPropose, "commit": ptAbCommit, "resolicit": ptAbResolicit}
	for name, r := range records {
		want := goldenFixed[name]
		if got := hex.EncodeToString(r.encode(types[name])); got != want {
			t.Errorf("%s: encoding moved\n got %s\nwant %s", name, got, want)
		}
		old, _ := hex.DecodeString(want)
		back, ok := parseAbRecord(old[envelopeBytes:])
		if !ok || back != r {
			t.Errorf("%s: golden bytes parse to %+v (ok=%v), want %+v", name, back, ok, r)
		}
		if got := hex.EncodeToString(back.encode(old[1])); got != want {
			t.Errorf("%s: parse and re-encode moved the bytes\n got %s\nwant %s", name, got, want)
		}
	}
	replies := map[string]struct {
		h    replyHeader
		body *msg.Message
	}{
		"reply":     {replyHeader{caller: addr.NewProcess(1, 0, 1), responder: sender, session: 9, kind: 1}, msg.New().PutString("s", "text")},
		"nullreply": {replyHeader{caller: addr.NewProcess(1, 0, 1), responder: sender, session: 9, kind: 2}, msg.New()},
	}
	for name, r := range replies {
		want := goldenFixed[name]
		raw, err := encodeReply(r.h, r.body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := hex.EncodeToString(raw); got != want {
			t.Errorf("%s: encoding moved\n got %s\nwant %s", name, got, want)
		}
		old, _ := hex.DecodeString(want)
		h, body, ok := parseReply(old[envelopeBytes:])
		if !ok || h != r.h {
			t.Fatalf("%s: golden bytes parse to %+v (ok=%v), want %+v", name, h, ok, r.h)
		}
		if again, err := encodeReply(h, body); err != nil || hex.EncodeToString(again) != want {
			t.Errorf("%s: parse and re-encode moved the bytes (err %v)\n got %x\nwant %s", name, err, again, want)
		}
	}
	if len(records)+len(replies) != len(goldenFixed) {
		t.Errorf("%d cases for %d golden encodings", len(records)+len(replies), len(goldenFixed))
	}
	if wireVersion != 1 || ptGbRequest != 4 || ptRelayAck != 16 || ptAbPropose != 17 || ptReply != 20 || ptData != 21 {
		t.Error("a packet type moved: retired numbers stay retired, new layouts are appended, wireVersion stays 1")
	}
}
