package protos

import (
	"encoding/hex"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/vclock"
)

// goldenWire holds the enveloped encodings of representative packets as the
// code before the compact field table (PR 14, commit 84d0f7f) produced them;
// "relay" and "relayack" as PR 19 defined them.
// The in-memory representation of a message is free to change; these bytes
// are not: a site running the old encoder must interoperate with the new one.
var goldenWire = map[string]string{
	"data": "" +
		"010100090626656e74727903000000080000000000000010062667726f75700400000008000100020000000306266d73" +
		"6769640400000008000201010000000707266d73677365710300000008000000000000002a08267061796c6f61640600" +
		"0000450004084073657373696f6e03000000080000000000000009016e03000000080000000000003039017001000000" +
		"0c68656c6c6f2c20776f726c640173020000000474657874062670726f746f0300000008000000000000000205267261" +
		"6e6b03000000080000000000000001072673656e64657204000000080002010100000007072676696577696403000000" +
		"080000000000000005",
	"cbcast": "" +
		"0101000a0626656e74727903000000080000000000000010062667726f75700400000008000100020000000306266d73" +
		"6769640400000008000201010000000707266d73677365710300000008000000000000002a08267061796c6f61640600" +
		"0000450004084073657373696f6e03000000080000000000000009016e03000000080000000000003039017001000000" +
		"0c68656c6c6f2c20776f726c640173020000000474657874062670726f746f0300000008000000000000000105267261" +
		"6e6b03000000080000000000000001072673656e64657204000000080002010100000007072676696577696403000000" +
		"080000000000000005032676740100000018000000000000000300000000000000000000000000000009",
	"view": "" +
		"0101000401670400000008000100020000000302696403000000080000000000000006016d0500000018000201010000" +
		"000700010001000000010003020100abcdef016e020000000562656e6368",
	"report": "" +
		"01010008036162300600000158000606266d736769640400000008000201010000000707266d73677365710300000008" +
		"000000000000002a01630300000008000000000000000101690300000008000000000000000101700300000008000000" +
		"000000004d03706b7406000000f700090626656e74727903000000080000000000000010062667726f75700400000008" +
		"000100020000000306266d736769640400000008000201010000000707266d7367736571030000000800000000000000" +
		"2a08267061796c6f616406000000450004084073657373696f6e03000000080000000000000009016e03000000080000" +
		"0000000030390170010000000c68656c6c6f2c20776f726c640173020000000474657874062670726f746f0300000008" +
		"0000000000000002052672616e6b03000000080000000000000001072673656e64657204000000080002010100000007" +
		"072676696577696403000000080000000000000005036162310600000049000406266d73676964040000000800020101" +
		"0000000707266d73677365710300000008000000000000002b0163030000000800000000000000000170030000000800" +
		"0000000000000303666330060000002b000206266d736769640400000008000201010000000707266d73677365710300" +
		"000008000000000000002c036e616203000000080000000000000002036e666303000000080000000000000001036e72" +
		"630300000008000000000000000203726330060000014c000306266d736769640400000008000201010000000707266d" +
		"73677365710300000008000000000000002a03706b740600000118000a0626656e747279030000000800000000000000" +
		"10062667726f75700400000008000100020000000306266d736769640400000008000201010000000707266d73677365" +
		"710300000008000000000000002a08267061796c6f616406000000450004084073657373696f6e030000000800000000" +
		"00000009016e030000000800000000000030390170010000000c68656c6c6f2c20776f726c6401730200000004746578" +
		"74062670726f746f03000000080000000000000001052672616e6b03000000080000000000000001072673656e646572" +
		"040000000800020101000000070726766965776964030000000800000000000000050326767401000000180000000000" +
		"0000030000000000000000000000000000000903726331060000013a000406266d736769640400000008000201010000" +
		"000707266d73677365710300000008000000000000002901700300000008000000000000000c03706b7406000000f700" +
		"090626656e74727903000000080000000000000010062667726f75700400000008000100020000000306266d73676964" +
		"0400000008000201010000000707266d73677365710300000008000000000000002a08267061796c6f61640600000045" +
		"0004084073657373696f6e03000000080000000000000009016e030000000800000000000030390170010000000c6865" +
		"6c6c6f2c20776f726c640173020000000474657874062670726f746f03000000080000000000000002052672616e6b03" +
		"000000080000000000000001072673656e64657204000000080002010100000007072676696577696403000000080000" +
		"000000000005",
	"p2p": "" +
		"0101000706266465737473050000000800010001000000010626656e7472790300000008000000000000000006266d73" +
		"6769640400000008000201010000000707266d73677365710300000008000000000000002a08267061796c6f61640600" +
		"00002c000206407265706c7903000000080000000000000001084073657373696f6e0300000008000000000000000906" +
		"2670726f746f03000000080000000000000001072673656e64657204000000080002010100000007",
	"relay": "" +
		"0101000e052663616c6c0300000008000000000000001f0626656e74727903000000080000000000000010062667726f" +
		"75700400000008000100020000000306266d736769640400000008000201010000000707266d73677365710300000008" +
		"000000000000002a08267061796c6f616406000000450004084073657373696f6e03000000080000000000000009016e" +
		"030000000800000000000030390170010000000c68656c6c6f2c20776f726c640173020000000474657874062670726f" +
		"746f03000000080000000000000001052672616e6b0300000008ffffffffffffffff062672656c617903000000080000" +
		"000000000001072673656e6465720400000008000201010000000706267372616e6b0300000008000000000000000105" +
		"267373657103000000080000000000000008062673766965770300000008000000000000000507267669657769640300" +
		"0000080000000000000005",
	"relayack": "" +
		"01010004052663616c6c0300000008000000000000001f06267372616e6b030000000800000000000000010526737365" +
		"71030000000800000000000000090626737669657703000000080000000000000005",
}

// goldenPackets rebuilds the packets of goldenWire through today's builders.
func goldenPackets() map[string]*msg.Message {
	sender := addr.NewProcess(2, 1, 7)
	gid := addr.NewGroup(1, 0, 3)
	id := core.MsgID{Sender: sender, Seq: 42}
	app := func() *msg.Message {
		return msg.New().PutInt("n", 12345).PutBytes("p", []byte("hello, world")).PutString("s", "text").
			PutInt(msg.FSession, 9)
	}
	d := &Daemon{}
	data := d.buildDataPacket(ABCAST, gid, 5, id, sender, 1, addr.EntryUserBase, app())
	cb := d.buildDataPacket(CBCAST, gid, 5, id, sender, 1, addr.EntryUserBase, app())
	putVT(cb, vclock.VC{3, 0, 9})
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
	p2p := msg.New()
	p2p.PutInt(fProto, int64(CBCAST))
	putMsgID(p2p, id)
	p2p.PutAddress(fSender, sender)
	p2p.PutInt(fEntry, 0)
	p2p.PutAddressList(fDests, addr.List{addr.NewProcess(1, 0, 1)})
	p2p.PutMessage(fPayload, msg.New().PutInt(msg.FSession, 9).PutInt(msg.FReply, 1))
	// A non-member's CBCAST on its way to the relay site, naming the stamp its
	// previous one was acknowledged with, and the acknowledgement with this
	// one's (PR 19). What the relay site fans out is the "cbcast" packet above.
	relay := d.buildDataPacket(CBCAST, gid, 5, id, sender, -1, addr.EntryUserBase, app())
	relay.PutInt(fRelay, 1)
	putStamp(relay, relayStamp{view: 5, rank: 1, seq: 8})
	relay.PutInt(fCall, 31)
	ack := msg.New()
	ack.PutInt(fCall, 31)
	putStamp(ack, relayStamp{view: 5, rank: 1, seq: 9})
	return map[string]*msg.Message{
		"data": data, "cbcast": cb, "view": view, "report": rep, "p2p": p2p,
		"relay": relay, "relayack": ack,
	}
}

// TestWireEncodingMatchesGolden proves the wire format did not move with the
// message representation: today's builders marshal to the parent's bytes,
// and the parent's bytes decode and re-encode to themselves.
func TestWireEncodingMatchesGolden(t *testing.T) {
	packets := goldenPackets()
	if len(packets) != len(goldenWire) {
		t.Fatalf("%d packets for %d golden encodings", len(packets), len(goldenWire))
	}
	for name, want := range goldenWire {
		raw, err := encodePacket(ptData, packets[name])
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
		again, err := encodePacket(ptData, m)
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
	if wireVersion != 1 || ptRelayAck != 16 || ptAbPropose != 17 || ptReply != 20 {
		t.Error("a packet type moved: retired numbers stay retired, new layouts are appended, wireVersion stays 1")
	}
}
