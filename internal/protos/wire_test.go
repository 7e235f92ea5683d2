package protos

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// wireFixture is a daemon at site 1 hosting one group with one member, beside
// an idle daemon at site 2 for the packets it answers to go to. Tests feed its
// handleTransport by hand, as site 2's packets.
type wireFixture struct {
	d      *Daemon
	gid    addr.Address
	view   core.ViewID
	member addr.Address
	got    atomic.Int64 // deliveries the member's callback has run
	unread atomic.Bool  // the member reads no reply: each is filed from its header
}

func newWireFixture(tb testing.TB) *wireFixture {
	tb.Helper()
	net := simnet.New(simnet.FastConfig())
	var ds [2]*Daemon
	for i := range ds {
		// No timer of the daemon's fires within a test: no call deadline, no
		// flush watchdog.
		d, err := New(Config{Site: addr.SiteID(i + 1), Network: net, CallTimeout: time.Minute, DisableHeartbeats: true})
		if err != nil {
			tb.Fatal(err)
		}
		ds[i] = d
	}
	tb.Cleanup(func() {
		ds[0].Close()
		ds[1].Close()
		net.Close()
	})
	fx := &wireFixture{d: ds[0]}
	var err error
	reads := func(int64, addr.Address, uint8) bool { return !fx.unread.Load() }
	if fx.member, err = fx.d.RegisterProcess(func(addr.EntryID, *msg.Message) { fx.got.Add(1) }, func(func()) {}, nil, reads); err != nil {
		tb.Fatal(err)
	}
	v, err := fx.d.CreateGroup(fx.member, "wire")
	if err != nil {
		tb.Fatal(err)
	}
	fx.gid, fx.view = v.Group, v.ID
	return fx
}

// reply builds a ptReply packet for the fixture's member from a responder at
// site 2.
func (fx *wireFixture) reply(tb testing.TB, kind uint8, body *msg.Message) []byte {
	raw, err := encodeReply(replyHeader{caller: fx.member, responder: addr.NewProcess(2, 0, 9), session: 4, kind: kind}, body)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// TestMalformedControlPacketsAreDropped feeds handleTransport every way a
// packet can be wrong, at a daemon where the well-formed packet
// would act (a submission waiting for its stamped copy, a live caller, the
// holder of the group's view): nothing moves. The well-formed packets then do
// act, so the check has teeth.
func TestMalformedControlPacketsAreDropped(t *testing.T) {
	fx := newWireFixture(t)
	d := fx.d
	remote := addr.NewProcess(2, 0, 9)

	// B: the member's cast, held as a submission until its stamped copy comes.
	idB := core.MsgID{Sender: fx.member, Seq: 1}
	d.mu.Lock()
	gs := d.groups[fx.gid]
	gs.submitted[idB] = dataPkt(t, ABCAST, fx.gid, fx.view, idB, 0, body("b"))
	d.mu.Unlock()

	good := map[string][]byte{
		"reply":     fx.reply(t, 1, body("r")),
		"nullreply": fx.reply(t, 2, msg.New()),
	}
	bad := map[string][]byte{}
	for name, raw := range good {
		bad[name+" truncated"] = raw[:len(raw)-1]
		bad[name+" extended"] = append(append([]byte{}, raw...), 0)
		for _, off := range []int{3, 11} { // the kind bytes of the two leading addresses
			k := append([]byte{}, raw...)
			k[envelopeBytes+off] = byte(addr.KindGroup) + 1
			bad[fmt.Sprintf("%s kind at %d", name, off)] = k
		}
		bad[name+" retired type 20"] = append([]byte{wireVersion, 20}, raw[envelopeBytes:]...)
	}
	// The data packets: a CBCAST that is the next of rank 0 (the view has one
	// member), B stamped by the holder after it, a remote member's submission
	// to this site (the holder) that follows both, a direct message.
	idC := core.MsgID{Sender: remote, Seq: 7}
	cb := &dataPacket{proto: CBCAST, entry: addr.EntryUserBase, group: fx.gid, view: fx.view, id: idC, vt: vclock.VC{1}, payload: body("c")}
	p2p := &dataPacket{proto: CBCAST, id: idC, dests: addr.List{fx.member}, payload: body("d")}
	ab := &dataPacket{proto: ABCAST, entry: addr.EntryUserBase, group: fx.gid, view: fx.view, id: idB, vt: vclock.VC{2}, payload: body("b")}
	sub := &dataPacket{proto: ABCAST, entry: addr.EntryUserBase, group: fx.gid, view: fx.view, id: core.MsgID{Sender: remote, Seq: 8}, rank: -1,
		vt: vclock.VC{2}, payload: body("e")}
	for _, p := range []*dataPacket{cb, p2p, ab, sub} {
		if err := p.encode(); err != nil {
			t.Fatal(err)
		}
	}
	clone := func(raw []byte, edit func(k []byte)) []byte {
		k := append([]byte{}, raw...)
		edit(k)
		return k
	}
	// headerEnd is where a packet's sections start.
	headerEnd := func(p *dataPacket) int {
		r := reader{b: p.raw[envelopeBytes:]}
		new(dataPacket).parseHeader(&r)
		return len(p.raw) - len(r.b)
	}
	for name, p := range map[string]*dataPacket{"cbcast": cb, "abcast": ab, "submission": sub, "p2p": p2p} {
		bad[name+" cut inside the header"] = p.raw[:headerEnd(p)-1]
		bad[name+" cut inside the sections"] = p.raw[:p.body-1]
		bad[name+" cut inside the payload"] = p.raw[:len(p.raw)-1]
		bad[name+" extended"] = append(clone(p.raw, func([]byte) {}), 0)
		bad[name+" undefined flag"] = clone(p.raw, func(k []byte) { k[envelopeBytes] |= 0x80 })
		bad[name+" section flagged but absent"] = clone(p.raw, func(k []byte) { k[envelopeBytes] |= dataIsRelay })
		bad[name+" retired type 1"] = clone(p.raw, func(k []byte) { k[1] = 1 })
		bad[name+" retired type 21"] = clone(p.raw, func(k []byte) { k[1] = 21 })
		bad[name+" retired type 33"] = clone(p.raw, func(k []byte) { k[1] = 33 })
		bad[name+" retired type 34"] = clone(p.raw, func(k []byte) { k[1] = 34 })
		bad[name+" flag 2, the holder's number under type 33"] = clone(p.raw, func(k []byte) { k[envelopeBytes] |= 2 })
		for _, off := range []int{4 + 3, 13 + 3} { // the kind bytes of the group and the sender, after a one-byte rank and view
			bad[fmt.Sprintf("%s kind at %d", name, off)] = clone(p.raw, func(k []byte) { k[envelopeBytes+off] = byte(addr.KindGroup) + 1 })
		}
	}
	count := headerEnd(cb) // of the timestamp, of the destination list
	bad["cbcast timestamp overruns the packet"] = clone(cb.raw, func(k []byte) { k[count] = 0x7f })
	bad["p2p destinations overrun the packet"] = clone(p2p.raw, func(k []byte) { k[count] = 100 })
	bad["p2p destination of no kind"] = clone(p2p.raw, func(k []byte) { k[count+1+3] = byte(addr.KindGroup) + 1 })
	wide := *cb
	wide.vt, wide.raw = vclock.VC{1, 0}, nil
	if err := wide.encode(); err != nil {
		t.Fatal(err)
	}
	bad["cbcast timestamp of another view's size"] = wide.raw
	old, _ := hex.DecodeString("0101000106266465737473050000000800010001000000010")
	bad["retired type 1, message body"] = old
	replyHead := envelopeBytes + 2*addr.EncodedSize + 2 // the session (4) and the kind, a byte each
	bad["reply header alone"] = good["reply"][:replyHead]
	bad["reply corrupt body"] = append(append([]byte{}, good["reply"][:replyHead]...), 1, 3, 'x')
	// The retired numbers: with the body an old site would send (the golden
	// commit of the message-built layout), and with the last layouts they had.
	oldCommit, _ := hex.DecodeString("01030004062667726f75700400000008000100020000000306266d736769640400000008000201010000000707266d73" +
		"677365710300000008000000000000002a05267072696f0300000008000000000000004d")
	bad["retired 3, old body"] = oldCommit
	for name, h := range goldenRetired {
		raw, _ := hex.DecodeString(h)
		bad["retired "+name] = raw
		for _, pt := range []byte{2, 3, 15} {
			bad[fmt.Sprintf("retired %d, the body of %s", pt, name)] = clone(raw, func(k []byte) { k[1] = pt })
		}
	}

	before := dump(d)
	for name, raw := range bad {
		d.handleTransport(2, raw)
		if after := dump(d); after != before {
			t.Fatalf("%s (%x) moved the daemon\nbefore %s\nafter  %s", name, raw, before, after)
		}
	}

	d.handleTransport(2, good["reply"])
	d.handleTransport(2, good["nullreply"])
	d.handleTransport(2, cb.raw)
	d.handleTransport(2, p2p.raw)
	d.handleTransport(2, ab.raw)
	d.handleTransport(2, sub.raw)
	waitFor(t, "the two replies, the CBCAST, the direct message, B and the submission at the member", 2*time.Second, func() bool { return fx.got.Load() == 6 })
	d.mu.Lock()
	if n, clock := len(gs.submitted), gs.causal.Clock(); n != 0 || !clock.Equal(vclock.VC{3}) {
		t.Errorf("after the well-formed packets: %d submissions open, clock %v, want none and [3] (B and the submission stamped at rank 0)", n, clock)
	}
	if _, kept := d.groups[fx.gid].recent.Get(idC); !kept || d.counters.Delivered != 6 {
		t.Errorf("Delivered = %d (CBCAST recorded: %v), want 6", d.counters.Delivered, kept)
	}
	d.mu.Unlock()
	malformedGbcastFamily(t, fx)
}

// answerCount is a call's waiter that counts the answers filed with it, and
// keeps the call in the table, so an answer a malformed packet forged counts
// beside the well-formed one.
type answerCount int

func (n *answerCount) fileLocked(*Daemon, int64, answer) { *n++ }

// malformedGbcastFamily is TestMalformedControlPacketsAreDropped for the packets
// that left the message codec in PR 26 — the GBCAST family, lookups, state
// transfer, errors and relay acknowledgements — at the fixture's daemon with its
// member awaiting a state transfer, a call waiting for each kind of answer and
// a GBCAST round waiting for site 2's ack:
// truncated in the head, in each section and in a report's nested packet, a
// section flagged but absent, an address of no kind, a count that overruns the
// packet, and the retired numbers with the bodies old sites send.
func malformedGbcastFamily(t *testing.T, fx *wireFixture) {
	d, remote := fx.d, addr.NewProcess(2, 0, 9)
	d.mu.Lock()
	gs := d.groups[fx.gid]
	gs.members[fx.member].awaitingState, gs.members[fx.member].xferID = true, 5
	view := gs.view.Clone()
	d.mu.Unlock()
	call, filed := map[byte]int64{}, make([]answerCount, 4)
	d.mu.Lock()
	for i, want := range []byte{ptGbDone, ptLookupResp, ptRelayAck, ptError} {
		site := addr.SiteID(2)
		if want == ptLookupResp {
			site = 0
		}
		call[want] = d.newCallLocked(site, want, &filed[i])
	}
	d.mu.Unlock()
	nested := dataPkt(t, ABCAST, fx.gid, fx.view, core.MsgID{Sender: remote, Seq: 99}, -1, body("n")).raw
	report := pendingReport{{ID: core.MsgID{Sender: remote, Seq: 99}, Packet: nested}}
	// A round this site opened for a user GBCAST of its own, waiting for site
	// 2's ack after one prepare; built by hand, so the copy is not wedged. Its
	// own report holds what site 2's does: the commit re-disseminates and
	// delivers nothing.
	d.mu.Lock()
	d.nextCall++
	r := &gbRound{req: gbWork{gbPacket: gbPacket{group: fx.gid, kind: gbUser}, replyTo: 1}, call: d.nextCall,
		silent: []addr.SiteID{2}, tries: 1, deadline: d.deadlineLocked(time.Hour)}
	r.kind, r.view, r.self = gbUser, view, 1
	r.acks = map[addr.SiteID]prepareAck{1: {report: report, view: view}}
	gs.round, call[ptGbAck] = r, r.call
	d.mu.Unlock()
	gb := map[string]struct {
		pt byte
		p  gbPacket
	}{
		"request": {ptGbRequest, gbPacket{call: 1, group: addr.NewGroup(2, 0, 9), kind: gbJoin, procs: addr.List{remote}, wantState: true}},
		"done":    {ptGbDone, gbPacket{call: call[ptGbDone], view: view, outcome: voteCommitted}},
		"prepare": {ptGbPrepare, gbPacket{call: 2, group: fx.gid, procs: addr.List{remote}, sealTarget: 9}},
		"ack": {ptGbAck, gbPacket{call: call[ptGbAck], view: view, report: report, dead: addr.List{remote}, xfers: addr.List{remote},
			outcome: voteAborted}},
		"commit": {ptGbCommit, gbPacket{group: fx.gid, kind: gbUser, procs: addr.List{remote}, view: view, reqID: 7,
			entry: addr.EntryUserBase, sender: remote, payload: body("g")}},
	}
	good := map[string][]byte{
		"lookup":     lookupPacket{call: 3, view: core.View{Group: fx.gid, Name: "wire"}}.encode(ptLookup),
		"lookupresp": lookupPacket{call: call[ptLookupResp], site: 2, primary: true, view: view}.encode(ptLookupResp),
		"stateblock": stateHeader{group: fx.gid, joiner: fx.member, xferID: 5}.encode([]byte("block")),
		"error":      answer{err: ErrNonPrimary}.encode(ptError, call[ptError]),
		"relayack":   answer{stamp: relayStamp{view: view.ID, seq: 1}}.encode(ptRelayAck, call[ptRelayAck]),
	}
	bad := map[string][]byte{}
	edit := func(raw []byte, off int, b ...byte) []byte {
		k := append([]byte{}, raw...)
		copy(k[off:], b)
		return k
	}
	overrun := []byte{0xff, 0xff, 0x7f} // a count or a length of 2^21-1, over what it overwrites
	kind := byte(addr.KindGroup) + 1
	for name, c := range gb {
		raw := encoded(t, c.pt, c.p)
		good[name] = raw
		head := envelopeBytes + 1 + addr.EncodedSize + 1 + 8 + 8 + 2 // a call id under 128
		bad[name+" cut in the head"] = raw[:head-1]
		if len(c.p.xfers) == 0 { // flag 128 on a packet without the section: none follows, or the payload's head reads as an overrunning one
			bad[name+" xfers flagged but absent"] = edit(raw, head-1, raw[head-1]|gbHasXfers)
		}
		bad[name+" kind no request has"] = edit(raw, envelopeBytes+1+8, byte(gbSeal)+1)
		bad[name+" group of no kind"] = edit(raw, envelopeBytes+1+3, kind)
		if c.p.payload == nil {
			bad[name+" extended"] = append(edit(raw, 0), 0)
		}
		// Each section p has, cut in its middle: prefix gives the bytes up to
		// the end of the first n sections.
		prefix := func(n int) int {
			q := gbPacket{payload: c.p.payload}
			q.procs, q.view, q.report, q.dead, q.xfers = c.p.procs, c.p.view, c.p.report, c.p.dead, c.p.xfers
			switch n {
			case 0:
				q.procs = nil
				fallthrough
			case 1:
				q.view = core.View{}
				fallthrough
			case 2:
				q.report = pendingReport{}
				fallthrough
			case 3:
				q.dead = nil
				fallthrough
			case 4:
				q.xfers = nil
				fallthrough
			case 5:
				q.payload = nil
			}
			return len(encoded(t, c.pt, q))
		}
		for n, section := range []string{"procs", "view", "report", "dead", "xfers", "payload"} {
			from, to := prefix(n), prefix(n+1)
			if to == from {
				continue
			}
			bad[fmt.Sprintf("%s cut inside its %s", name, section)] = raw[:(from+to)/2]
			switch section {
			case "procs", "dead", "xfers":
				bad[fmt.Sprintf("%s %s member of no kind", name, section)] = edit(raw, from+1+3, kind)
				fallthrough
			case "report":
				bad[fmt.Sprintf("%s %s count overruns", name, section)] = edit(raw, from, overrun...)
			case "view": // group 8, a one-byte id, the name's length, the name, the members' count
				bad[name+" view of no kind"] = edit(raw, from+3, kind)
				bad[name+" view name overruns"] = edit(raw, from+9, overrun...)
				bad[name+" view members overrun"] = edit(raw, from+10+len(view.Name), overrun...)
			}
		}
		if i := bytes.Index(raw, nested); i > 0 { // after its tag and a one-byte length
			bad[name+" cut inside a nested packet"] = raw[:i+len(nested)/2]
			bad[name+" nested packet overruns"] = edit(raw, i-1, overrun...)
			bad[name+" report entry of no list"] = edit(raw, i-2, 3<<2)
			bad[name+" report entry of a retired list"] = edit(raw, i-2, 0)
		}
	}
	lookupHead := envelopeBytes + 3 // a call id, a site and primary, a byte each
	for _, name := range []string{"lookup", "lookupresp"} {
		raw := good[name]
		bad[name+" cut in the head"] = raw[:lookupHead-1]
		bad[name+" cut inside its view"] = raw[:len(raw)-3]
		bad[name+" undefined primary"] = edit(raw, lookupHead-1, 2)
		bad[name+" view of no kind"] = edit(raw, lookupHead+3, kind)
		bad[name+" extended"] = append(edit(raw, 0), 0)
	}
	bad["lookupresp members overrun"] = edit(good["lookupresp"], lookupHead+10+len(view.Name), overrun...)
	raw := good["stateblock"]
	stateHead := envelopeBytes + 2*addr.EncodedSize + 2 // a transfer id under 128 and last
	bad["stateblock cut in the head"] = raw[:stateHead-1]
	bad["stateblock undefined last"] = edit(raw, stateHead-1, 2)
	bad["stateblock group of no kind"] = edit(raw, envelopeBytes+3, kind)
	bad["stateblock joiner of no kind"] = edit(raw, envelopeBytes+8+3, kind)
	bad["error without its call id"] = good["error"][:envelopeBytes]
	bad["relayack cut"] = good["relayack"][:len(good["relayack"])-1]
	bad["relayack extended"] = append(edit(good["relayack"], 0), 0)
	// The retired numbers: each with the body its old site sends (a message of
	// "&"-named fields), and with today's layout of the type that replaced it.
	old := func(fields func(m *msg.Message)) []byte {
		m := msg.New().PutInt("&call", call[ptGbDone]).PutAddress("&group", fx.gid)
		fields(m)
		raw, err := m.AppendMarshal([]byte{wireVersion, 0})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	v := msg.New().PutAddress("g", view.Group).PutString("n", view.Name).PutInt("id", int64(view.ID)).PutAddressList("m", view.Members)
	for pt, body := range map[byte][]byte{
		4:  old(func(m *msg.Message) { m.PutInt("&kind", gbJoin).PutAddressList("&procs", addr.List{remote}) }),
		5:  old(func(m *msg.Message) { m.PutInt("&gbid", 1).PutInt("&viewid", int64(view.ID)) }),
		6:  old(func(m *msg.Message) { m.PutMessage("&view", v).PutMessage("&pending", msg.New().PutInt("nab", 0)) }),
		7:  old(func(m *msg.Message) { m.PutInt("&kind", gbUser).PutMessage("&payload", body("g")) }),
		8:  old(func(m *msg.Message) { m.PutMessage("&view", v) }),
		9:  old(func(m *msg.Message) { m.PutString("&name", "wire") }),
		10: old(func(m *msg.Message) { m.PutInt("&found", 1).PutInt("&primary", 1).PutMessage("&view", v) }),
		12: old(func(m *msg.Message) {
			m.PutAddress("&sender", fx.member).PutBytes("&sdata", []byte("b")).PutInt("&slast", 1)
		}),
		13: old(func(m *msg.Message) { m.PutString("&err", ErrNonPrimary.Error()) }),
		14: old(func(m *msg.Message) { m.PutAddress("&sender", fx.member) }),
		16: old(func(m *msg.Message) { m.PutInt("&sview", int64(view.ID)).PutInt("&srank", 0).PutInt("&sseq", 1) }),
	} {
		bad[fmt.Sprintf("retired %d, old body", pt)] = edit(body, 1, pt)
	}
	replaced := map[byte]string{4: "request", 5: "prepare", 6: "ack", 7: "commit", 8: "done", 9: "lookup", 10: "lookupresp",
		12: "stateblock", 13: "error", 16: "relayack", 22: "request", 23: "done", 24: "prepare", 25: "ack", 26: "commit",
		27: "lookup", 28: "lookupresp", 29: "stateblock", 31: "error", 32: "relayack", 35: "ack", 36: "commit",
		37: "request", 38: "done", 39: "prepare", 40: "ack", 41: "commit"}
	for pt, name := range replaced {
		bad[fmt.Sprintf("retired %d, today's body", pt)] = edit(good[name], 1, pt)
	}
	// A state ack would complete the member's transfer if it were read as the
	// final block it looks like.
	for _, pt := range []byte{14, 30} {
		bad[fmt.Sprintf("retired %d, a state ack", pt)] = edit(stateHeader{group: fx.gid, joiner: fx.member, xferID: 5, last: true}.encode(nil), 1, pt)
	}

	before := dump(d)
	for name, raw := range bad {
		d.handleTransport(2, raw)
		if after := dump(d); after != before {
			t.Fatalf("%s (%x) moved the daemon\nbefore %s\nafter  %s", name, raw, before, after)
		}
	}

	// The well-formed packets act: every call is answered, the ack decides the
	// round, a prepare wedges the copy and the commit ends the flush (its
	// payload held for the member), and the blocks complete the member's
	// transfer (the held payload with it); the request and the lookup are
	// answered.
	sent := d.tr.Stats().MessagesSent
	for _, name := range []string{"done", "ack", "lookupresp", "error", "relayack", "request", "lookup", "prepare"} {
		d.handleTransport(2, good[name])
	}
	d.mu.Lock()
	flushing := gs.phase == phaseFlushing
	d.mu.Unlock()
	for _, name := range []string{"commit", "stateblock"} {
		d.handleTransport(2, good[name])
	}
	d.handleTransport(2, stateHeader{group: fx.gid, joiner: fx.member, xferID: 5, last: true}.encode(nil))
	waitFor(t, "the commit's payload at the member", 2*time.Second, func() bool { return fx.got.Load() == 7 })
	d.mu.Lock()
	defer d.mu.Unlock()
	if ms := gs.members[fx.member]; !flushing || gs.phase != phaseNormal || ms.awaitingState || !slices.Equal(filed, []answerCount{1, 1, 1, 1}) || gs.round != nil {
		t.Errorf("after the well-formed packets: flushing %v then phase %d, awaiting %v, answers %v filed with the 4 calls (want one each), round %v left",
			flushing, gs.phase, ms.awaitingState, filed, gs.round)
	}
	if now := d.tr.Stats().MessagesSent; now < sent+3 {
		t.Errorf("%d packets sent for the request, the lookup and the prepare, want their 3 answers", now-sent)
	}
}

// TestMalformedVarintsAreRefused feeds the parser of every live packet type
// its golden cut short at every byte, with a varint stretched to 11 bytes,
// with a count or a length past the end of the packet, and (a timestamp's) a
// count unequal to its entries: each is refused, and the daemon that handles
// it moves not at all. A golden's tail that runs to its end (a state block's
// block, an error's text) is the one cut a parser cannot tell from a shorter
// packet, and is left uncut. A reply its caller does not read is filed from
// its header with its body unread: the same packets are handled again at a
// caller that reads no reply, and each reply whose header parses counts as
// delivered there, handing the caller nothing, and moves nothing else.
func TestMalformedVarintsAreRefused(t *testing.T) {
	fx := newWireFixture(t)
	// Each golden with the offsets of one of its varints and of one of its
	// counts or lengths (-1: it has none), and the length of its open tail.
	const gbHead = envelopeBytes + 28 // a call id under 128, the group, kind, request id, seal target, outcome, flags
	goldens := []struct {
		hex                  string
		varint, length, tail int
	}{
		{goldenFixed["reply"], 18, 24, 0},     // the session; the body's string's length
		{goldenFixed["nullreply"], 18, 20, 0}, // the session; the body's field count
		{goldenData["cbcast"], 5, 24, 0},      // the rank; the timestamp's count
		{goldenData["stamped"], 5, 24, 0},
		{goldenData["submission"], 5, 24, 0},
		{goldenData["p2p"], 5, 24, 0},         // the rank; the destinations' count
		{goldenData["relay"], 24, 28, 0},      // the relay stamp's view; the payload's field count
		{goldenData["abrelay"], 5, 28, 0},     // the rank; the payload's field count
		{goldenWire["ack"], 2, gbHead + 9, 0}, // the call id; the view's name length
		{goldenWire["carried"], 2, gbHead, 0}, // the call id; the processes' count
		{goldenWire["commit"], 2, gbHead, 0},
		{goldenWire["done"], 2, gbHead + 9, 0},
		{goldenWire["nonprimary"], 2, -1, 0},
		{goldenWire["prepare"], 2, gbHead, 0},
		{goldenWire["request"], 2, gbHead, 0},
		{goldenWire["resume"], 2, gbHead + 9, 0},
		{goldenWire["usergb"], 2, gbHead + 9, 0}, // the call id; the payload's field count
		{goldenWire["lookup"], 2, envelopeBytes + 3 + 9, 0},
		{goldenWire["lookupresp"], 3, envelopeBytes + 3 + 9, 0}, // the site; the view's name length
		{goldenWire["stateblock"], 18, -1, len("row-1")},        // the transfer id
		{goldenWire["error"], 2, -1, len(ErrNonPrimary.Error())},
		{goldenWire["relayack"], 4, -1, 0}, // the stamp's sequence
	}
	splice := func(raw []byte, off int, word ...byte) []byte {
		_, n := binary.Uvarint(raw[off:])
		return slices.Concat(raw[:off], word, raw[off+n:])
	}
	stretched := func(v uint64) []byte { // v in 11 bytes, one more than a varint may have
		b := make([]byte, 11)
		for i := range 10 {
			b[i], v = byte(v)|0x80, v>>7
		}
		return b
	}
	bad := map[string][]byte{}
	live := map[byte]bool{}
	for _, g := range goldens {
		raw, _ := hex.DecodeString(g.hex)
		live[raw[1]] = true
		if !parsed(raw) {
			t.Fatalf("golden %x does not parse", raw)
		}
		name := fmt.Sprintf("type %d golden %x", raw[1], raw[:min(len(raw), 12)])
		for n := envelopeBytes; n < len(raw)-g.tail; n++ {
			bad[fmt.Sprintf("%s cut at %d", name, n)] = raw[:n]
		}
		v, _ := binary.Uvarint(raw[g.varint:])
		bad[name+" an 11-byte varint"] = splice(raw, g.varint, stretched(v)...)
		if g.length >= 0 {
			bad[name+" a length past the end"] = splice(raw, g.length, 0xff, 0xff, 0x7f)
		}
		if raw[1] == ptData && raw[envelopeBytes]&dataHasVT != 0 {
			bad[name+" a timestamp of 2 counted 3"] = splice(raw, g.length, 2)
			bad[name+" a timestamp of 4 counted 3"] = splice(raw, g.length, 4)
		}
	}
	if len(live) != 12 {
		t.Fatalf("%d packet types have goldens here, want all 12 live ones", len(live))
	}
	before := dump(fx.d)
	for name, raw := range bad {
		if parsed(raw) {
			t.Errorf("%s (%x) parses", name, raw)
		}
		fx.d.handleTransport(2, raw)
		if after := dump(fx.d); after != before {
			t.Fatalf("%s (%x) moved the daemon\nbefore %s\nafter  %s", name, raw, before, after)
		}
	}
	fx.unread.Store(true)
	counters := fx.d.Counters()
	want := counters
	for name, raw := range bad {
		_, _, header := parseReplyHeader(raw[envelopeBytes:])
		if header = header && raw[1] == ptReply; header {
			want.Delivered++
		}
		delivered := fx.d.Counters().Delivered
		fx.d.handleTransport(2, raw)
		if now := fx.d.Counters().Delivered; header && now != delivered+1 || !header && now != delivered {
			t.Fatalf("%s (%x) at a caller that reads no reply: Delivered %d -> %d, header parses: %v", name, raw, delivered, now, header)
		}
	}
	before = strings.Replace(before, fmt.Sprintf("%+v", counters), fmt.Sprintf("%+v", want), 1)
	if after := dump(fx.d); fx.got.Load() != 0 || after != before {
		t.Fatalf("%d replies handed over at a caller that reads none\nwant %s\ngot  %s", fx.got.Load(), before, after)
	}
}

// parseReply reads a ptReply body as handleTransport and deliverReplyLocked
// do, when the caller reads the reply: the header, and the reply decoded once.
func parseReply(b []byte) (h replyHeader, body *msg.Message, ok bool) {
	h, b, ok = parseReplyHeader(b)
	body, err := msg.UnmarshalOwned(b, 4)
	return h, body, ok && err == nil
}

// parsed reports whether the parser handleTransport runs for a packet's type
// accepts it.
func parsed(raw []byte) (ok bool) {
	body := raw[envelopeBytes:]
	switch raw[1] {
	case ptReply:
		_, _, ok = parseReply(body)
	case ptData:
		_, ok = parseDataPacket(raw)
	case ptGbRequest, ptGbPrepare, ptGbAck, ptGbCommit, ptGbDone:
		ok = new(gbPacket).parse(body)
	case ptLookup, ptLookupResp:
		_, ok = parseLookup(body)
	case ptStateBlock:
		_, _, ok = parseState(body)
	case ptError, ptRelayAck:
		_, _, ok = parseAnswer(raw[1], body)
	}
	return ok
}

// FuzzControlPacket feeds arbitrary bytes to handleTransport as the body of a
// live (or retired) packet type at a daemon hosting one group, whose member
// reads every reply when the body's length is even and none when it is odd. Nothing
// may panic; a body that does not parse must not count as a delivery (a commit
// that parses may release some; a reply the member does not read counts once
// its header parses, its body unread); and the
// daemon must still deliver a well-formed reply afterwards. A GBCAST request
// and a prepare are left out: a well-formed request runs a round on the copy
// and a prepare wedges it, whose deliveries would land in a later input's
// window. Their layout is the other GBCAST-family packets': a request that
// carries its site's ack, every section but the payload present, is a seed
// under the ack's type.
func FuzzControlPacket(f *testing.F) {
	for _, h := range goldenFixed {
		raw, _ := hex.DecodeString(h)
		f.Add(raw[1], raw[envelopeBytes:])
		f.Add(raw[1], raw[envelopeBytes:len(raw)-1])
	}
	f.Add(byte(3), []byte{0, 0})
	for _, h := range goldenData {
		raw, _ := hex.DecodeString(h)
		f.Add(byte(7), raw[envelopeBytes:]) // types[7]: ptData
		f.Add(byte(7), raw[envelopeBytes:len(raw)-1])
		f.Add(byte(8), raw[envelopeBytes:])
	}
	types := []byte{17, 18, 19, ptReply, 2, 3, 15, ptData, 1, 21,
		ptGbDone, ptGbAck, ptGbCommit, ptLookup, ptLookupResp, ptStateBlock, 30, ptError, ptRelayAck, 4, 7, 12, 13, 16, 25, 26, 33,
		22, 23, 24, 35, 36, 20, 27, 28, 29, 31, 32, 34, 37, 38, 39, 40, 41}
	for _, h := range append(slices.Collect(maps.Values(goldenRetired)), slices.Collect(maps.Values(goldenWire))...) {
		raw, _ := hex.DecodeString(h)
		if i := slices.Index(types, raw[1]); i >= 0 {
			f.Add(byte(i), raw[envelopeBytes:])
			f.Add(byte(i), raw[envelopeBytes:len(raw)-1])
		}
	}
	carried, _ := hex.DecodeString(goldenWire["carried"])
	f.Add(byte(slices.Index(types, ptGbAck)), carried[envelopeBytes:])
	fx := newWireFixture(f)
	delivered := func() uint64 { return fx.d.Counters().Delivered }
	f.Fuzz(func(t *testing.T, pt byte, data []byte) {
		fx.unread.Store(len(data)%2 == 1)
		pt = types[int(pt)%len(types)]
		before := delivered()
		fx.d.handleTransport(2, append([]byte{wireVersion, pt}, data...))
		_, _, isReply := parseReply(data)
		if fx.unread.Load() {
			_, _, isReply = parseReplyHeader(data)
		}
		_, isData := parseDataPacket(append([]byte{wireVersion, pt}, data...))
		var g gbPacket
		isCommit := pt == ptGbCommit && g.parse(data) // a commit may release deliveries
		if after := delivered(); after != before && !(pt == ptReply && isReply) && !isData && !isCommit {
			t.Fatalf("type %d body %x: Delivered %d -> %d", pt, data, before, after)
		}
		before = delivered()
		fx.d.handleTransport(2, fx.reply(t, 1, msg.New()))
		if after := delivered(); after != before+1 {
			t.Fatalf("after type %d body %x a well-formed reply is no longer delivered", pt, data)
		}
	})
}
