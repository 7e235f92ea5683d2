package protos

// A GBCAST round's try budget. The coordinator sends each member site its
// prepare; one that stays silent is sent it again one CallTimeout later, three
// times in all, and then the round is decided without it. A suspicion of the
// silent site decides the round at once. The held-state tests below pause the
// coordinator's links to the other member sites under a join and step the
// detector by hand (newFaultCluster's zero detector).

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/fdetect"
	"repro/internal/simnet"
)

// heldCallTimeout is the held-round tests' CallTimeout: a scan tick of 50 ms.
const heldCallTimeout = 200 * time.Millisecond

// heldRound is a join whose round is held at its coordinator, site 1: the
// group's members are at sites 1 to n, the joiner at site n+1, and site 1's
// links to the other member sites are paused.
type heldRound struct {
	tc         *testCluster
	rec        *simnet.Recorder
	procs      []*testProc
	gid        addr.Address
	joiner     *testProc
	done       chan joinResult
	goroutines int // the fewest running just before the join
}

// holdJoinRound builds a group of members at sites 1 to n, pauses site 1's
// links to the others and starts a join from site n+1, returning once site 1
// has sent site 2 its first prepare. The transport retransmits nothing within
// a test, so each frame site 1 sends is a packet sent once.
func holdJoinRound(t *testing.T, n int) *heldRound {
	t.Helper()
	tc := newFaultCluster(t, n+1, simnet.FastConfig(), heldCallTimeout, fdetect.Config{}, func(c *Config) {
		c.Transport.RetransmitInterval = time.Minute
	})
	sites := make([]addr.SiteID, n)
	for i := range sites {
		sites[i] = addr.SiteID(i + 1)
	}
	h := &heldRound{tc: tc, rec: simnet.NewRecorder(), procs: buildGroup(t, tc, "held", sites...), done: make(chan joinResult, 1)}
	h.gid = groupOf(t, tc, h.procs[0], "held")
	js := addr.SiteID(n + 1)
	h.joiner = tc.newProc(js)
	if _, err := tc.daemons[js].Lookup("held"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "site 1's packets acknowledged", 5*time.Second, func() bool { return tc.daemons[1].tr.Unacked() == 0 })
	tc.net.SetTracer(h.rec)
	for _, s := range sites[1:] {
		tc.net.PauseLink(1, s)
	}
	h.goroutines = fewestGoroutines()
	go func() {
		v, err := tc.daemons[js].Join(h.joiner.addr, h.gid, JoinOptions{})
		h.done <- joinResult{v, err}
	}()
	waitFor(t, "site 1's prepare on its way to site 2", 5*time.Second, func() bool { return len(h.sends(2)) > 0 })
	return h
}

// wait waits for the join to end, whether it succeeded or not: a requester
// whose call timed out while the round was held tries again, and gives up
// after four tries.
func (h *heldRound) wait(t *testing.T) {
	t.Helper()
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the join never ended")
	}
}

// sends lists the frames site 1 has sent the site since the join began that
// carry a packet.
func (h *heldRound) sends(to addr.SiteID) []simnet.Event {
	var out []simnet.Event
	for _, e := range h.rec.Events() {
		if e.Kind == simnet.EventSend && e.From == 1 && e.To == to && dataFrame(e) {
			out = append(out, e)
		}
	}
	return out
}

// fewestGoroutines samples runtime.NumGoroutine every 5 ms for 100 ms and
// returns the smallest count: a transport's ack timer runs on a goroutine of
// its own for a moment, a parked goroutine is there at every sample.
func fewestGoroutines() int {
	n := math.MaxInt
	for range 20 {
		time.Sleep(5 * time.Millisecond)
		n = min(n, runtime.NumGoroutine())
	}
	return n
}

// TestHeldRoundTriesASilentSiteThreeTimes holds site 1's prepares on their way
// to site 2 under a join. Site 2 must be sent the prepare three times, one
// CallTimeout apart; the join must then commit at sites 1 and 3 without site 2,
// which catches up once its link resumes. While the round waits, the daemons
// run no goroutine for it: no more than the test's own Join caller is added.
func TestHeldRoundTriesASilentSiteThreeTimes(t *testing.T) {
	h := holdJoinRound(t, 2)
	if n := fewestGoroutines(); n > h.goroutines+1 {
		t.Errorf("%d goroutines while the round is held, %d before the join: more than its caller was added", n, h.goroutines)
	}
	joined := func(p *testProc) bool { return p.lastView().Contains(h.joiner.addr) }
	waitFor(t, "the join at sites 1 and 3", 5*time.Second, func() bool { return joined(h.procs[0]) && joined(h.joiner) })
	if joined(h.procs[1]) {
		t.Fatal("site 2 installed the join across its paused link")
	}

	// Three prepares, then the commit, each sent once a CallTimeout after the
	// one before (the scan tick makes a wait up to a period late).
	sent := h.sends(2)
	if len(sent) != 4 {
		t.Fatalf("site 1 sent site 2 %d frames, want 3 prepares and the commit", len(sent))
	}
	for i, e := range sent[1:] {
		if i < 2 && e.Size != sent[0].Size {
			t.Errorf("frame %d is %d bytes, the first prepare %d: not the prepare again", i+2, e.Size, sent[0].Size)
		}
		if gap := e.When.Sub(sent[i].When); gap < heldCallTimeout || gap >= 2*heldCallTimeout {
			t.Errorf("frame %d went %v after the one before, want one CallTimeout (%v) apart", i+2, gap, heldCallTimeout)
		}
	}

	h.tc.net.ResumeAll()
	waitFor(t, "the join at site 2", 5*time.Second, func() bool { return joined(h.procs[1]) })
	for i, p := range append(h.procs, h.joiner) {
		if v := p.lastView(); v.Size() != 3 {
			t.Errorf("member %d holds view %v, want all three members", i+1, v)
		}
	}
	h.wait(t)
}

// TestHeldRoundDecidedBySuspicion holds a join's round on site 2's paused link
// and has site 1 suspect site 2. The suspicion must decide the round at once:
// the join commits at site 1 within a scan tick, with no try waited out.
func TestHeldRoundDecidedBySuspicion(t *testing.T) {
	h := holdJoinRound(t, 2)
	d := h.tc.daemons[1]
	tick := func() uint64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.tick
	}
	before := tick()
	d.onDetectorEvent(fdetect.Event{Site: 2, Kind: fdetect.SiteFailed})
	waitFor(t, "the join at site 1", 5*time.Second, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.groups[h.gid].view.Contains(h.joiner.addr)
	})
	if ticks := tick() - before; ticks > 1 {
		t.Errorf("the join committed %d scan ticks after the suspicion, want it at once", ticks)
	}
	// The commits that follow (the join's, the removal's) are longer.
	sent := h.sends(2)
	if n := len(slices.DeleteFunc(sent[1:], func(e simnet.Event) bool { return e.Size != sent[0].Size })); n != 0 {
		t.Errorf("site 1 sent site 2 the prepare %d more times after the suspicion, want none", n)
	}
	h.tc.net.ResumeAll()
	h.wait(t)
}

// TestHeldRoundIgnoresStrayAcks holds a join's round on two paused member
// sites and feeds site 1 acks by hand: one with another call id, one from a
// site the round did not ask, and a second copy of an ack the round took.
// None may move the round; the first copy of a right one does.
func TestHeldRoundIgnoresStrayAcks(t *testing.T) {
	h := holdJoinRound(t, 3)
	d := h.tc.daemons[1]
	var call int64
	round := func() string {
		d.mu.Lock()
		defer d.mu.Unlock()
		r := d.groups[h.gid].round
		if r == nil {
			return "no round"
		}
		call = r.call
		return fmt.Sprintf("silent=%v tries=%d answered=%v", r.silent, r.tries, slices.Sorted(maps.Keys(r.acks)))
	}
	held := round()
	ack := func(from addr.SiteID, call int64) {
		d.handleTransport(from, answer{gb: &gbPacket{view: h.procs[0].lastView()}}.encode(ptGbAck, call))
	}
	ack(2, call+1)
	ack(4, call)
	if now := round(); now != held {
		t.Fatalf("a stray ack moved the round\nbefore %s\nafter  %s", held, now)
	}
	ack(3, call)
	took := round()
	if took == held {
		t.Fatalf("site 3's ack did not move the round: %s", took)
	}
	ack(3, call)
	if now := round(); now != took {
		t.Errorf("a second copy of site 3's ack moved the round\nbefore %s\nafter  %s", took, now)
	}
	h.tc.net.ResumeAll()
	h.wait(t)
}
