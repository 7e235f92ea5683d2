package protos

import (
	"encoding/hex"
	"fmt"
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
		d, err := New(Config{Site: addr.SiteID(i + 1), Network: net, CallTimeout: 2 * time.Second, DisableHeartbeats: true})
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
	if fx.member, err = fx.d.RegisterProcess(func(addr.EntryID, *msg.Message) { fx.got.Add(1) }, nil); err != nil {
		tb.Fatal(err)
	}
	v, err := fx.d.CreateGroup(fx.member, "wire")
	if err != nil {
		tb.Fatal(err)
	}
	fx.gid, fx.view = v.Group, v.ID
	return fx
}

// state renders everything a control or data packet could move: the initiator
// rounds, the copy's two ordering queues and its recent record, the counters and
// the member's deliveries.
func (fx *wireFixture) state() string {
	fx.d.mu.Lock()
	defer fx.d.mu.Unlock()
	gs := fx.d.groups[fx.gid]
	s := fmt.Sprintf("pendingAb=%d total=%d causal=%d clock=%v recent=%d counters=%+v got=%d", len(fx.d.pendingAb),
		gs.total.PendingCount(), gs.causal.PendingCount(), gs.causal.Clock(), len(gs.recent.Keys()), fx.d.counters, fx.got.Load())
	for id, st := range fx.d.pendingAb {
		s += fmt.Sprintf(" %v:waiting=%v,max=%d", id, st.waiting, st.maxPrio)
	}
	return s
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
// would act (an open initiator round, an uncommitted message, a live caller):
// nothing moves. The well-formed packets then do act, so the check has teeth.
func TestMalformedControlPacketsAreDropped(t *testing.T) {
	fx := newWireFixture(t)
	d := fx.d
	remote := addr.NewProcess(2, 0, 9)

	// A: phase 1 arrived from site 2, no commit yet. B: a round this site
	// initiated, waiting for site 2's proposal.
	idA, idB := core.MsgID{Sender: remote, Seq: 1}, core.MsgID{Sender: fx.member, Seq: 1}
	d.handleTransport(2, dataPkt(t, ABCAST, fx.gid, fx.view, idA, -1, body("a")).raw)
	pktB := dataPkt(t, ABCAST, fx.gid, fx.view, idB, 0, body("b"))
	d.mu.Lock()
	d.pendingAb[idB] = &abSendState{id: idB, group: fx.gid, targets: []addr.SiteID{2}, waiting: []addr.SiteID{2},
		maxPrio: d.groups[fx.gid].total.Propose(idB, pktB), packet: pktB, deadline: time.Now().Add(time.Hour)}
	d.mu.Unlock()

	good := map[string][]byte{
		"propose":   abRecord{group: fx.gid, id: idB, prio: 9}.encode(ptAbPropose),
		"commit":    abRecord{group: fx.gid, id: idA, prio: 9}.encode(ptAbCommit),
		"resolicit": abRecord{group: fx.gid, id: idA}.encode(ptAbResolicit),
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
	// member), phase 1 of an ABCAST nobody has proposed for, a direct message.
	idC := core.MsgID{Sender: remote, Seq: 7}
	cb := &dataPacket{proto: CBCAST, entry: addr.EntryUserBase, group: fx.gid, view: fx.view, id: idC, vt: vclock.VC{1}, payload: body("c")}
	p2p := &dataPacket{proto: CBCAST, id: idC, dests: addr.List{fx.member}, payload: body("d")}
	ab := dataPkt(t, ABCAST, fx.gid, fx.view, core.MsgID{Sender: remote, Seq: 8}, -1, body("e"))
	for _, p := range []*dataPacket{cb, p2p} {
		if err := p.encode(); err != nil {
			t.Fatal(err)
		}
	}
	clone := func(raw []byte, edit func(k []byte)) []byte {
		k := append([]byte{}, raw...)
		edit(k)
		return k
	}
	for name, p := range map[string]*dataPacket{"cbcast": cb, "abcast": ab, "p2p": p2p} {
		bad[name+" cut inside the header"] = p.raw[:envelopeBytes+dataHeaderBytes-1]
		bad[name+" cut inside the sections"] = p.raw[:p.body-1]
		bad[name+" cut inside the payload"] = p.raw[:len(p.raw)-1]
		bad[name+" extended"] = append(clone(p.raw, func([]byte) {}), 0)
		bad[name+" undefined flag"] = clone(p.raw, func(k []byte) { k[envelopeBytes] |= 0x80 })
		bad[name+" section flagged but absent"] = clone(p.raw, func(k []byte) { k[envelopeBytes] |= dataIsRelay })
		bad[name+" retired type 1"] = clone(p.raw, func(k []byte) { k[1] = 1 })
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
	// The retired numbers: with the body an old site would send (the parent's
	// golden "commit" packet), and with today's fixed layout.
	oldCommit, _ := hex.DecodeString("01030004062667726f75700400000008000100020000000306266d736769640400000008000201010000000707266d73" +
		"677365710300000008000000000000002a05267072696f0300000008000000000000004d")
	bad["retired 3, old body"] = oldCommit
	for _, pt := range []byte{2, 3, 15} {
		k := append([]byte{}, good["commit"]...)
		k[1] = pt
		bad[fmt.Sprintf("retired %d, fixed body", pt)] = k
	}

	before := fx.state()
	for name, raw := range bad {
		d.handleTransport(2, raw)
		if after := fx.state(); after != before {
			t.Fatalf("%s (%x) moved the daemon\nbefore %s\nafter  %s", name, raw, before, after)
		}
	}

	d.handleTransport(2, good["commit"])
	d.handleTransport(2, good["propose"])
	d.handleTransport(2, good["resolicit"])
	d.handleTransport(2, good["reply"])
	d.handleTransport(2, good["nullreply"])
	d.handleTransport(2, cb.raw)
	d.handleTransport(2, p2p.raw)
	d.handleTransport(2, ab.raw)
	waitFor(t, "A, B, the two replies, the CBCAST and the direct message at the member", 2*time.Second, func() bool { return fx.got.Load() == 6 })
	d.mu.Lock()
	defer d.mu.Unlock()
	if n, p := len(d.pendingAb), d.groups[fx.gid].total.PendingCount(); n != 0 || p != 1 {
		t.Errorf("after the well-formed packets: %d rounds open, %d messages pending, want none and the last ABCAST", n, p)
	}
	if _, kept := d.groups[fx.gid].recent.Get(idC); !kept || d.counters.Delivered != 6 {
		t.Errorf("Delivered = %d (CBCAST recorded: %v), want 6", d.counters.Delivered, kept)
	}
}

// FuzzControlPacket feeds arbitrary bytes to handleTransport as the body of a
// fixed-layout (or retired) packet type at a daemon hosting one group. Nothing
// may panic; a body that does not parse must not count as a delivery; and the
// daemon must still deliver a well-formed reply afterwards.
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
	fx := newWireFixture(f)
	types := []byte{ptAbPropose, ptAbCommit, ptAbResolicit, ptReply, 2, 3, 15, ptData, 1}
	delivered := func() uint64 { return fx.d.Counters().Delivered }
	f.Fuzz(func(t *testing.T, pt byte, data []byte) {
		pt = types[int(pt)%len(types)]
		before := delivered()
		fx.d.handleTransport(2, append([]byte{wireVersion, pt}, data...))
		_, _, isReply := parseReply(data)
		_, isData := parseDataPacket(append([]byte{wireVersion, pt}, data...))
		if after := delivered(); after != before && !(pt == ptReply && isReply) && !isData {
			t.Fatalf("type %d body %x: Delivered %d -> %d", pt, data, before, after)
		}
		before = delivered()
		fx.d.handleTransport(2, fx.reply(t, 1, msg.New()))
		if after := delivered(); after != before+1 {
			t.Fatalf("after type %d body %x a well-formed reply is no longer delivered", pt, data)
		}
	})
}
