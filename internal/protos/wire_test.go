package protos

import (
	"bytes"
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
	if fx.member, err = fx.d.RegisterProcess(func(addr.EntryID, *msg.Message) { fx.got.Add(1) }, func(func()) {}, nil); err != nil {
		tb.Fatal(err)
	}
	v, err := fx.d.CreateGroup(fx.member, "wire")
	if err != nil {
		tb.Fatal(err)
	}
	fx.gid, fx.view = v.Group, v.ID
	return fx
}

// state renders everything a control or data packet could move: the copy's
// submissions, its causal queue and clock and its recent record, the counters
// and the member's deliveries.
func (fx *wireFixture) state() string {
	fx.d.mu.Lock()
	defer fx.d.mu.Unlock()
	gs := fx.d.groups[fx.gid]
	s := fmt.Sprintf("submitted=%d causal=%d clock=%v recent=%d counters=%+v got=%d", len(gs.submitted),
		gs.causal.PendingCount(), gs.causal.Clock(), len(gs.recent.Keys()), fx.d.counters, fx.got.Load())
	// The lifecycle, the views, the state transfer, the GBCAST round open, the
	// calls waiting and the packets sent (a request or a lookup accepted is
	// answered).
	answered := answeredCalls(fx.d)
	round := "none"
	if r := gs.round; r != nil {
		round = fmt.Sprintf("silent %v tries %d", r.silent, r.tries)
	}
	ms := gs.members[fx.member]
	return s + fmt.Sprintf(" phase=%d view=%v remote=%v names=%v awaiting=%v xfer=%d/%d gbQueue=%d round=%s answered=%d sent=%d",
		gs.phase, gs.view, fx.d.remoteViews, fx.d.nameCache, ms.awaitingState, ms.xferID, len(ms.xferBuf),
		len(gs.gbQueue), round, answered, fx.d.tr.Stats().MessagesSent) + requestState(fx.d)
}

// callDeadline is the tick a call in the table ends at, or else the given one.
// Caller holds d.mu.
func callDeadline(d *Daemon, call int64, otherwise uint64) uint64 {
	if c := d.calls[call]; c != nil {
		return c.deadline
	}
	return otherwise
}

// answeredCalls counts the answers queued for a daemon's blocked callers.
// Caller holds d.mu.
func answeredCalls(d *Daemon) (n int) {
	for _, c := range d.calls {
		if w, ok := c.val.(*caller); ok {
			n += len(w.ch)
		}
	}
	return n
}

// requestState renders the heads of a daemon's request queues — the group,
// kind, id, the site the try in flight asks, the tries and the tick the try
// ends or the next goes at — and its copies' open merge surveys, so a held
// test that fails shows where its requests wait. Caller holds d.mu.
func requestState(d *Daemon) string {
	var b strings.Builder
	for _, gid := range slices.SortedFunc(maps.Keys(d.requests), addr.Address.Compare) {
		q := d.requests[gid]
		if len(q) == 0 {
			continue
		}
		e := q[0]
		fmt.Fprintf(&b, " request[%v]=kind %d id %#x site %d tries %d deadline %d (+%d queued)", gid, e.kind, e.reqID, e.site, e.tries, callDeadline(d, e.call, e.deadline), len(q)-1)
	}
	for _, gid := range slices.SortedFunc(maps.Keys(d.groups), addr.Address.Compare) {
		if sv := d.groups[gid].survey; sv != nil {
			fmt.Fprintf(&b, " survey[%v]=asked %d wedged %d primary %v deadline %d", gid, sv.asked, len(sv.wedged), sv.primary != nil, callDeadline(d, sv.call, 0))
		}
	}
	return b.String()
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
// fixed-layout packet can be wrong, at a daemon where the well-formed packet
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
	for name, p := range map[string]*dataPacket{"cbcast": cb, "abcast": ab, "submission": sub, "p2p": p2p} {
		bad[name+" cut inside the header"] = p.raw[:envelopeBytes+dataHeaderBytes-1]
		bad[name+" cut inside the sections"] = p.raw[:p.body-1]
		bad[name+" cut inside the payload"] = p.raw[:len(p.raw)-1]
		bad[name+" extended"] = append(clone(p.raw, func([]byte) {}), 0)
		bad[name+" undefined flag"] = clone(p.raw, func(k []byte) { k[envelopeBytes] |= 0x80 })
		bad[name+" section flagged but absent"] = clone(p.raw, func(k []byte) { k[envelopeBytes] |= dataIsRelay })
		bad[name+" retired type 1"] = clone(p.raw, func(k []byte) { k[1] = 1 })
		bad[name+" retired type 21"] = clone(p.raw, func(k []byte) { k[1] = 21 })
		bad[name+" retired type 33"] = clone(p.raw, func(k []byte) { k[1] = 33 })
		bad[name+" flag 2, the holder's number under type 33"] = clone(p.raw, func(k []byte) { k[envelopeBytes] |= 2 })
		for _, off := range []int{5 + 3, 21 + 3} { // the kind bytes of the group and the sender
			bad[fmt.Sprintf("%s kind at %d", name, off)] = clone(p.raw, func(k []byte) { k[envelopeBytes+off] = byte(addr.KindGroup) + 1 })
		}
	}
	count := envelopeBytes + dataHeaderBytes // of the timestamp, of the destination list
	bad["cbcast timestamp overruns the packet"] = clone(cb.raw, func(k []byte) { k[count], k[count+1] = 0xff, 0xff })
	bad["p2p destinations overrun the packet"] = clone(p2p.raw, func(k []byte) { k[count+1] = 200 })
	bad["p2p destination of no kind"] = clone(p2p.raw, func(k []byte) { k[count+2+3] = byte(addr.KindGroup) + 1 })
	wide := *cb
	wide.vt, wide.raw = vclock.VC{1, 0}, nil
	if err := wide.encode(); err != nil {
		t.Fatal(err)
	}
	bad["cbcast timestamp of another view's size"] = wide.raw
	old, _ := hex.DecodeString("0101000106266465737473050000000800010001000000010")
	bad["retired type 1, message body"] = old
	bad["reply header alone"] = good["reply"][:envelopeBytes+replyHeaderBytes]
	bad["reply corrupt body"] = append(append([]byte{}, good["reply"][:envelopeBytes+replyHeaderBytes]...), 0, 1, 3, 'x')
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

	before := fx.state()
	for name, raw := range bad {
		d.handleTransport(2, raw)
		if after := fx.state(); after != before {
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
	call := map[byte]int64{}
	for _, want := range []byte{ptGbDone, ptLookupResp, ptRelayAck, ptError} {
		site := addr.SiteID(2)
		if want == ptLookupResp {
			site = 0
		}
		call[want], _ = d.newCall(site, want)
	}
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
	kind := byte(addr.KindGroup) + 1
	for name, c := range gb {
		raw := encoded(t, c.pt, c.p)
		good[name] = raw
		head := envelopeBytes + gbHeadBytes
		bad[name+" cut in the head"] = raw[:head-1]
		if len(c.p.xfers) == 0 { // flag 128 on a packet without the section: none follows, or the payload's head reads as an overrunning one
			bad[name+" xfers flagged but absent"] = edit(raw, head-1, raw[head-1]|gbHasXfers)
		}
		bad[name+" kind no request has"] = edit(raw, envelopeBytes+16, byte(gbSeal)+1)
		bad[name+" group of no kind"] = edit(raw, envelopeBytes+8+3, kind)
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
				bad[fmt.Sprintf("%s %s member of no kind", name, section)] = edit(raw, from+2+3, kind)
				fallthrough
			case "report":
				bad[fmt.Sprintf("%s %s count overruns", name, section)] = edit(raw, from, 0xff, 0xff)
			case "view":
				bad[name+" view of no kind"] = edit(raw, from+3, kind)
				bad[name+" view name overruns"] = edit(raw, from+16, 0xff, 0xff)
				bad[name+" view members overrun"] = edit(raw, from+18+len(view.Name), 0xff, 0xff)
			}
		}
		if i := bytes.Index(raw, nested); i > 0 {
			bad[name+" cut inside a nested packet"] = raw[:i+len(nested)/2]
			bad[name+" nested packet overruns"] = edit(raw, i-4, 0xff, 0xff)
			bad[name+" report entry of no list"] = edit(raw, i-5, 3<<2)
			bad[name+" report entry of a retired list"] = edit(raw, i-5, 0)
		}
	}
	for _, name := range []string{"lookup", "lookupresp"} {
		raw := good[name]
		bad[name+" cut in the head"] = raw[:envelopeBytes+lookupHeadBytes-1]
		bad[name+" cut inside its view"] = raw[:len(raw)-3]
		bad[name+" undefined primary"] = edit(raw, envelopeBytes+10, 2)
		bad[name+" view of no kind"] = edit(raw, envelopeBytes+lookupHeadBytes+3, kind)
		bad[name+" extended"] = append(edit(raw, 0), 0)
	}
	bad["lookupresp members overrun"] = edit(good["lookupresp"], envelopeBytes+lookupHeadBytes+18+len(view.Name), 0xff, 0xff)
	raw := good["stateblock"]
	bad["stateblock cut in the head"] = raw[:envelopeBytes+stateHeaderBytes-1]
	bad["stateblock undefined last"] = edit(raw, envelopeBytes+24, 2)
	bad["stateblock group of no kind"] = edit(raw, envelopeBytes+3, kind)
	bad["stateblock joiner of no kind"] = edit(raw, envelopeBytes+8+3, kind)
	bad["error cut in the call id"] = good["error"][:envelopeBytes+7]
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
		35: "ack", 36: "commit"}
	for pt, name := range replaced {
		bad[fmt.Sprintf("retired %d, today's body", pt)] = edit(good[name], 1, pt)
	}
	// A state ack would complete the member's transfer if it were read as the
	// final block it looks like.
	for _, pt := range []byte{14, 30} {
		bad[fmt.Sprintf("retired %d, a state ack", pt)] = edit(stateHeader{group: fx.gid, joiner: fx.member, xferID: 5, last: true}.encode(nil), 1, pt)
	}

	before := fx.state()
	for name, raw := range bad {
		d.handleTransport(2, raw)
		if after := fx.state(); after != before {
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
	answered := answeredCalls(d)
	if ms := gs.members[fx.member]; !flushing || gs.phase != phaseNormal || ms.awaitingState || answered != 4 || gs.round != nil {
		t.Errorf("after the well-formed packets: flushing %v then phase %d, awaiting %v, %d of 4 calls answered, round %v left",
			flushing, gs.phase, ms.awaitingState, answered, gs.round)
	}
	if now := d.tr.Stats().MessagesSent; now < sent+3 {
		t.Errorf("%d packets sent for the request, the lookup and the prepare, want their 3 answers", now-sent)
	}
}

// FuzzControlPacket feeds arbitrary bytes to handleTransport as the body of a
// fixed-layout (or retired) packet type at a daemon hosting one group. Nothing
// may panic; a body that does not parse must not count as a delivery (a commit
// that parses may release some); and the
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
		22, 23, 24, 35, 36}
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
		pt = types[int(pt)%len(types)]
		before := delivered()
		fx.d.handleTransport(2, append([]byte{wireVersion, pt}, data...))
		_, _, isReply := parseReply(data)
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
