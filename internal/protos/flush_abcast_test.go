package protos

// Scenario suite for ABCAST as the holder's CBCAST: the view's oldest member
// site stamps every ABCAST of the view as a CBCAST of rank 0, and a GBCAST
// flush only re-disseminates what some member delivered. So an ABCAST in
// flight across a wedge is delivered at every member site on the same side of
// the GBCAST — the "shifted marker" of examples/quickstart cannot occur — and
// a cast the holder never stamped is stamped after the flush, under the holder
// of the view the flush installed.

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/netback"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// quietDetector is a failure-detector configuration that never suspects a
// site within the lifetime of a test: link pauses must look like slow links,
// not crashes.
func quietDetector() fdetect.Config {
	return fdetect.Config{
		HeartbeatInterval: 20 * time.Millisecond,
		InitialTimeout:    time.Minute,
		MinTimeout:        time.Minute,
		MaxTimeout:        2 * time.Minute,
		DeviationFactor:   4,
	}
}

// bodyIndex returns the position of the first delivery with the given body
// at a process, or -1.
func bodyIndex(p *testProc, body string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, m := range p.msgs {
		if m.GetString("body", "") == body {
			return i
		}
	}
	return -1
}

// assertSameSideOfMarker fails unless every member delivered the body on the
// same side of the marker as member 0 did.
func assertSameSideOfMarker(t *testing.T, procs []*testProc, body, marker string) {
	t.Helper()
	ref := bodyIndex(procs[0], body) < bodyIndex(procs[0], marker)
	for i, p := range procs[1:] {
		mi, bi := bodyIndex(p, marker), bodyIndex(p, body)
		if mi < 0 || bi < 0 {
			t.Fatalf("member %d missing a delivery: marker at %d, %q at %d", i+1, mi, body, bi)
		}
		if (bi < mi) != ref {
			t.Errorf("%q delivered on different sides of the marker: member 0 before=%v, member %d before=%v",
				body, ref, i+1, bi < mi)
		}
	}
}

// wedge hands a site a prepare no commit follows, as if from site 1: its copy
// of the group flushes, and parks what arrives until a real flush commits.
func wedge(t *testing.T, d *Daemon, gid addr.Address) {
	t.Helper()
	d.handleTransport(1, encoded(t, ptGbPrepare, gbPacket{group: gid, call: 4242}))
}

// parkedAt counts the packets a site's copy of the group holds back.
func parkedAt(d *Daemon, gid addr.Address) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.groups[gid].parked)
}

// stamped builds the data packet the holder sends an ABCAST on as, the seq-th
// of its view, and nothing else its site had delivered before it.
func stamped(t *testing.T, view core.View, id core.MsgID, seq uint64, text string) *dataPacket {
	t.Helper()
	vt := vclock.New(view.Size())
	vt[0] = seq
	p := &dataPacket{proto: ABCAST, entry: addr.EntryUserBase, group: view.Group, view: view.ID, id: id, rank: 0, vt: vt, payload: body(text)}
	if err := p.encode(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestScenarioFlushDrivesFullySeenAbcast has the holder's packet of an ABCAST
// delivered at every member site (handed over by hand) when a user GBCAST runs.
// Every report carries it, so the flush re-disseminates nothing: each member
// delivers it exactly once, before the marker, and a late copy of the packet
// changes nothing.
func TestScenarioFlushDrivesFullySeenAbcast(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "drive", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "drive")
	view, _ := tc.daemons[1].CurrentView(gid)

	a := stamped(t, view, core.MsgID{Sender: procs[1].addr, Seq: 400}, 1, "seen")
	for _, s := range []addr.SiteID{1, 2, 3} {
		tc.daemons[s].handleTransport(1, a.raw)
	}
	waitFor(t, "the ABCAST at every member", 2*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return !p.got("seen") })
	})

	if _, err := tc.daemons[1].Multicast(procs[0].addr, GBCAST, addr.List{gid}, addr.EntryUserBase, body("marker")); err != nil {
		t.Fatalf("marker GBCAST: %v", err)
	}
	waitFor(t, "the marker at every member", 5*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return !p.got("marker") })
	})
	// A late copy, as a retransmission would bring it: no second delivery.
	tc.daemons[2].handleTransport(1, a.raw)
	tc.daemons[3].handleTransport(1, a.raw)
	if err := cast(procs[0], ABCAST, gid, "after"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the next ABCAST everywhere", 5*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return !p.got("after") })
	})
	want := []string{"seen", "marker", "after"}
	for i, p := range procs {
		if got := p.bodies(); !slices.Equal(got, want) {
			t.Errorf("member %d delivered %v, want %v", i, got, want)
		}
	}
}

// TestScenarioFlushFencesUndeliveredAbcast holds a member's ABCAST at the holder
// (site 1, wedged by hand, parks the submission) while a user GBCAST runs. No
// site has delivered it, so no report carries it: the holder, the same site
// under the same view, numbers it once the flush is over, and every member
// delivers it after the marker, exactly once.
func TestScenarioFlushFencesUndeliveredAbcast(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), time.Second, quietDetector())
	procs := buildGroup(t, tc, "fence", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "fence")

	wedge(t, tc.daemons[1], gid)
	if err := cast(procs[1], ABCAST, gid, "fenced"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the submission parked at the holder", 5*time.Second, func() bool { return parkedAt(tc.daemons[1], gid) == 1 })
	if _, err := tc.daemons[1].Multicast(procs[0].addr, GBCAST, addr.List{gid}, addr.EntryUserBase, body("marker")); err != nil {
		t.Fatalf("marker GBCAST: %v", err)
	}
	waitFor(t, "the fenced ABCAST everywhere", 5*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return !p.got("fenced") })
	})
	if err := cast(procs[1], ABCAST, gid, "after"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the next ABCAST everywhere", 5*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return !p.got("after") })
	})
	for i, p := range procs {
		if n := countBody(p, "fenced"); n != 1 {
			t.Errorf("member %d delivered the fenced ABCAST %d times, want 1", i, n)
		}
		if bi, mi := bodyIndex(p, "fenced"), bodyIndex(p, "marker"); bi < mi {
			t.Errorf("member %d delivered the fenced ABCAST before the marker (%d < %d)", i, bi, mi)
		}
	}
	assertSameSideOfMarker(t, procs, "fenced", "marker")
}

// TestFencedAbcastReachesJoiner holds a member's ABCAST at the holder while a
// process joins. The holder numbers it under the view that adds the joiner,
// so the joiner, too, delivers it, once.
func TestFencedAbcastReachesJoiner(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), 2*time.Second, quietDetector())
	procs := buildGroup(t, tc, "fencejoin", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "fencejoin")

	wedge(t, tc.daemons[1], gid)
	if err := cast(procs[1], ABCAST, gid, "fenced"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the submission parked at the holder", 5*time.Second, func() bool { return parkedAt(tc.daemons[1], gid) == 1 })
	joiner := tc.newProc(3)
	if _, err := tc.daemons[3].Join(joiner.addr, gid, JoinOptions{}); err != nil {
		t.Fatalf("join: %v", err)
	}

	all := append(slices.Clone(procs), joiner)
	waitFor(t, "the fenced ABCAST at every member, the joiner included", 5*time.Second, func() bool {
		return !slices.ContainsFunc(all, func(p *testProc) bool { return !p.got("fenced") })
	})
	// One more from the same sender flushes out a second delivery, if any.
	if err := cast(procs[1], ABCAST, gid, "after"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the next ABCAST everywhere", 5*time.Second, func() bool {
		return !slices.ContainsFunc(all, func(p *testProc) bool { return !p.got("after") })
	})
	for _, p := range all {
		if n := countBody(p, "fenced"); n != 1 {
			t.Errorf("%v delivered the fenced ABCAST %d times, want 1", p.addr, n)
		}
	}
}

// TestScenarioFlushCompletesDeliveredStraggler has the holder's packets of two
// ABCASTs delivered at sites 1 and 2 and missing at site 3 when a user GBCAST
// runs (handed over by hand, as if held on the link to site 3). The flush must
// deliver both at site 3 before the marker, in the holder's order, and the
// late packets must change nothing there.
func TestScenarioFlushCompletesDeliveredStraggler(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "limbo", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "limbo")
	view, _ := tc.daemons[1].CurrentView(gid)

	a := stamped(t, view, core.MsgID{Sender: procs[1].addr, Seq: 77}, 1, "limbo-a")
	b := stamped(t, view, core.MsgID{Sender: procs[2].addr, Seq: 78}, 2, "limbo-b")
	for _, s := range []addr.SiteID{1, 2} {
		tc.daemons[s].handleTransport(1, a.raw)
		tc.daemons[s].handleTransport(1, b.raw)
	}
	waitFor(t, "A and B at sites 1 and 2", 2*time.Second, func() bool {
		return procs[0].got("limbo-b") && procs[1].got("limbo-b")
	})

	if _, err := tc.daemons[1].Multicast(procs[0].addr, GBCAST, addr.List{gid}, addr.EntryUserBase, body("marker")); err != nil {
		t.Fatalf("marker GBCAST: %v", err)
	}
	waitFor(t, "A, B, and the marker at every member", 5*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return !p.got("limbo-a") || !p.got("limbo-b") || !p.got("marker") })
	})
	// The straggling packets finally arrive at site 3: no duplicates.
	tc.daemons[3].handleTransport(1, a.raw)
	tc.daemons[3].handleTransport(1, b.raw)
	if err := cast(procs[0], ABCAST, gid, "after"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the next ABCAST everywhere", 5*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return !p.got("after") })
	})
	want := []string{"limbo-a", "limbo-b", "marker", "after"}
	for i, p := range procs {
		if got := p.bodies(); !slices.Equal(got, want) {
			t.Errorf("member %d delivered %v, want %v", i, got, want)
		}
	}
}

// TestScenarioAbcastNeverStraddlesWedge races concurrent ABCASTs against a
// GBCAST marker, repeatedly, and pins the quickstart invariant: whatever
// side of the marker an ABCAST lands on, it is the same side at every
// member site, and every member delivers it exactly once.
func TestScenarioAbcastNeverStraddlesWedge(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "straddle", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "straddle")

	for round := 0; round < 5; round++ {
		a0 := fmt.Sprintf("ab-%d-0", round)
		a1 := fmt.Sprintf("ab-%d-1", round)
		marker := fmt.Sprintf("marker-%d", round)
		if _, err := tc.daemons[1].Multicast(procs[0].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body(a0)); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.daemons[2].Multicast(procs[1].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body(a1)); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.daemons[1].Multicast(procs[0].addr, GBCAST, addr.List{gid}, addr.EntryUserBase, body(marker)); err != nil {
			t.Fatalf("round %d marker: %v", round, err)
		}
		waitFor(t, "round deliveries everywhere", 10*time.Second, func() bool {
			for _, p := range procs {
				if !p.got(a0) || !p.got(a1) || !p.got(marker) {
					return false
				}
			}
			return true
		})
		for _, ab := range []string{a0, a1} {
			assertSameSideOfMarker(t, procs, ab, marker)
			for i, p := range procs {
				if n := countBody(p, ab); n != 1 {
					t.Errorf("round %d: member %d delivered %q %d times, want 1", round, i, ab, n)
				}
			}
		}
	}
}

// heldFrom waits until every frame the recorder saw one site send another has
// arrived or been thrown away: after that, what the receiver delivers next was
// handled after them (one receive loop per site).
func heldFrom(t *testing.T, rec *simnet.Recorder, from, to addr.SiteID) {
	t.Helper()
	waitFor(t, fmt.Sprintf("the frames held from site %d to site %d", from, to), 5*time.Second, func() bool {
		held := 0
		for _, e := range rec.Events() {
			if e.From == from && e.To == to {
				switch e.Kind {
				case simnet.EventSend:
					held++
				case simnet.EventDeliver, simnet.EventDiscard, simnet.EventDrop:
					held--
				}
			}
		}
		return held == 0
	})
}

// beforeView reports whether a process's callbacks ran every listed body once,
// and each before the first view with the given id.
func beforeView(p *testProc, id core.ViewID, bodies ...string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := slices.Index(p.trace, fmt.Sprintf("view %d", id))
	for _, b := range bodies {
		if i := slices.Index(p.trace, b); i < 0 || i > v || slices.Index(p.trace[i+1:], b) >= 0 {
			return false
		}
	}
	return v >= 0
}

// TestScenarioHolderCrashMidFanout holds everything the holder (site 1) sends
// site 3 while it numbers its own two casts and site 2's, then crashes it. Site
// 2 delivered all three; the failure flush must deliver them at site 3 once,
// in site 2's order, before the failure view, and the held packets that
// arrive later must change nothing.
func TestScenarioHolderCrashMidFanout(t *testing.T) {
	tc := newFaultCluster(t, 3, simnet.FastConfig(), time.Second, fdetect.Config{})
	rec := simnet.NewRecorder()
	tc.net.SetTracer(rec)
	procs := buildGroup(t, tc, "fanout", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "fanout")

	tc.net.PauseLink(1, 3)
	for i, c := range []struct {
		p    *testProc
		text string
	}{{procs[0], "h1"}, {procs[1], "s1"}, {procs[0], "h2"}} {
		if err := cast(c.p, ABCAST, gid, c.text); err != nil {
			t.Fatalf("cast %d: %v", i, err)
		}
	}
	waitFor(t, "all three at site 2", 5*time.Second, func() bool {
		return procs[1].got("h1") && procs[1].got("s1") && procs[1].got("h2")
	})
	order := procs[1].bodies()
	if len(order) != 3 || procs[2].numMsgs() != 0 {
		t.Fatalf("site 2 delivered %v and site 3 %d casts before the crash, want the three and none", order, procs[2].numMsgs())
	}
	tc.crash(1)
	waitFor(t, "the failure view at the survivors", 5*time.Second, func() bool {
		return procs[1].lastView().Size() == 2 && procs[2].lastView().Size() == 2
	})
	failure := procs[2].lastView().ID
	if !beforeView(procs[2], failure, order...) {
		t.Fatalf("site 3 ran %v, want %v once each before view %d", procs[2].traced(), order, failure)
	}
	if got := procs[2].bodies(); !slices.Equal(got[:3], order) {
		t.Errorf("site 3 delivered %v, site 2 %v", got, order)
	}

	tc.net.ResumeAll()
	heldFrom(t, rec, 1, 3)
	if err := cast(procs[1], ABCAST, gid, "after"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the next ABCAST at the survivors", 5*time.Second, func() bool { return procs[1].got("after") && procs[2].got("after") })
	for _, p := range procs[1:] {
		assertNoDuplicates(t, fmt.Sprint(p.addr), p)
	}
}

// TestScenarioSubmissionToCrashedHolder holds a member's submission on its way
// to the holder (site 1) and crashes the holder. The failure view's holder is
// site 2 — the submitter itself, or another site — and the submission goes to
// it: both survivors deliver the cast once, after the failure view, and the
// held submission changes nothing when the links resume.
func TestScenarioSubmissionToCrashedHolder(t *testing.T) {
	for _, submitter := range []int{1, 2} {
		t.Run(fmt.Sprintf("from site %d", submitter+1), func(t *testing.T) {
			tc := newFaultCluster(t, 3, simnet.FastConfig(), time.Second, fdetect.Config{})
			rec := simnet.NewRecorder()
			tc.net.SetTracer(rec)
			procs := buildGroup(t, tc, "resubmit", 1, 2, 3)
			gid := groupOf(t, tc, procs[0], "resubmit")
			from := procs[submitter].addr.Site

			tc.net.PauseLink(from, 1)
			if err := cast(procs[submitter], ABCAST, gid, "held"); err != nil {
				t.Fatal(err)
			}
			tc.crash(1)
			waitFor(t, "the cast at the survivors", 5*time.Second, func() bool { return procs[1].got("held") && procs[2].got("held") })
			for _, p := range procs[1:] {
				v := p.lastView()
				p.mu.Lock()
				trace := slices.Clone(p.trace)
				p.mu.Unlock()
				if i, j := slices.Index(trace, fmt.Sprintf("view %d", v.ID)), slices.Index(trace, "held"); v.Size() != 2 || i < 0 || j < i {
					t.Errorf("%v ran %v: the cast before the failure view %v", p.addr, trace, v)
				}
			}

			tc.net.ResumeAll()
			heldFrom(t, rec, from, 1)
			if err := cast(procs[1], ABCAST, gid, "after"); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the next ABCAST at the survivors", 5*time.Second, func() bool { return procs[1].got("after") && procs[2].got("after") })
			for _, p := range procs[1:] {
				assertNoDuplicates(t, fmt.Sprint(p.addr), p)
				if n := countBody(p, "held"); n != 1 {
					t.Errorf("%v delivered the cast %d times, want 1", p.addr, n)
				}
			}
		})
	}
}

// shapeNet is a fabric that records, by sending site, receiving site and
// transport sequence, what type of daemon packet every message a frame starts
// is: retransmissions count once, and the records that carry the rest of a
// long message not at all.
type shapeNet struct {
	netback.Network
	mu   sync.Mutex
	sent map[shapeKey]string
}

type shapeKey struct {
	from, to netback.SiteID
	seq      uint64
}

type shapeEndpoint struct {
	netback.Endpoint
	n *shapeNet
}

func (n *shapeNet) Attach(id netback.SiteID, epoch uint64) (netback.Endpoint, error) {
	ep, err := n.Network.Attach(id, epoch)
	return shapeEndpoint{ep, n}, err
}

// Send reads a data frame of the transport (kind 5 or 6) before sending it:
// a head of six uvarints (the epoch's and the ack epoch's halves, the ack and
// the first record's sequence), then records, each a uvarint of its length
// shifted left by two over its flags, and the bytes. A record's sequence is
// the first's plus its index. Flag 2 marks a record that is not its
// message's first.
func (e shapeEndpoint) Send(to netback.SiteID, frame []byte) error {
	if len(frame) > 0 && (frame[0] == 5 || frame[0] == 6) {
		var seq uint64
		b := frame[1:]
		for range 6 {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				panic(fmt.Sprintf("frame %x: malformed head", frame))
			}
			seq, b = v, b[n:]
		}
		e.n.mu.Lock()
		for ; len(b) > 0; seq++ {
			word, n := binary.Uvarint(b)
			if n <= 0 || word>>2 > uint64(len(b)-n) {
				break
			}
			size := int(word >> 2)
			pkt, kind := b[n:n+size], "submission"
			switch {
			case word&2 != 0 || size < envelopeBytes+1:
				kind = ""
			case pkt[1] != ptData:
				kind = fmt.Sprintf("type %d", pkt[1])
			case stampedAtARank(pkt):
				kind = "data"
			}
			if kind != "" {
				e.n.sent[shapeKey{e.Site(), to, seq}] = kind
			}
			b = b[n+size:]
		}
		e.n.mu.Unlock()
	}
	return e.Endpoint.Send(to, frame)
}

// stampedAtARank reports whether a data packet's header names the rank that
// stamped it: a submission's is -1.
func stampedAtARank(pkt []byte) bool {
	var p dataPacket
	r := reader{b: pkt[envelopeBytes:]}
	p.parseHeader(&r)
	return p.rank >= 0
}

// TestAbcastPacketShape counts the daemon packets one ABCAST to a group of
// three members at three sites puts on the wire. The holder's own cast is a
// data packet to each other site and nothing else; another member's is one
// submission to the holder and the holder's data packet to each other site,
// the submitter's included. Nothing is counted before every site's packets
// are acknowledged: the answer to buildGroup's lookup that came second may
// still be on its way.
func TestAbcastPacketShape(t *testing.T) {
	fab := &shapeNet{Network: simnet.New(simnet.FastConfig()), sent: make(map[shapeKey]string)}
	tc := newTestClusterOn(t, fab, 3)
	procs := buildGroup(t, tc, "shape", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "shape")
	waitFor(t, "every site's packets acknowledged", 5*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return p.d.tr.Unacked() != 0 })
	})

	for i, c := range []struct {
		from int
		want []string
	}{
		{0, []string{"1>2 data", "1>3 data"}},
		{1, []string{"1>2 data", "1>3 data", "2>1 submission"}},
	} {
		fab.mu.Lock()
		before := maps.Clone(fab.sent)
		fab.mu.Unlock()
		text := fmt.Sprintf("cast %d", i)
		if err := cast(procs[c.from], ABCAST, gid, text); err != nil {
			t.Fatal(err)
		}
		waitFor(t, text+" everywhere", 5*time.Second, func() bool {
			return !slices.ContainsFunc(procs, func(p *testProc) bool { return !p.got(text) })
		})
		fab.mu.Lock()
		var got []string
		for k, kind := range fab.sent {
			if _, old := before[k]; !old {
				got = append(got, fmt.Sprintf("%d>%d %s", k.from, k.to, kind))
			}
		}
		fab.mu.Unlock()
		if slices.Sort(got); !slices.Equal(got, c.want) {
			t.Errorf("an ABCAST from site %d sent %v, want %v", c.from+1, got, c.want)
		}
	}
}
