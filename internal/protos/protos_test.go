package protos

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/fdetect"
	"repro/internal/msg"
	"repro/internal/netback"
	"repro/internal/simnet"
	"repro/internal/task"
)

// testCluster wires up a network and a daemon per site. net is the simnet
// fault-injection handle, nil when the cluster runs on another backend (the
// protos-level backend conformance test in backend_test.go); fabric is the
// backend-neutral view every daemon attaches to.
type testCluster struct {
	t       *testing.T
	net     *simnet.Network
	fabric  netback.Network
	daemons map[addr.SiteID]*Daemon
	lastInc map[addr.SiteID]addr.Incarnation
}

// testDetectorConfig is the aggressive failure-detector tuning every protos
// test runs with.
func testDetectorConfig() fdetect.Config {
	return fdetect.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		InitialTimeout:    150 * time.Millisecond,
		MinTimeout:        100 * time.Millisecond,
		MaxTimeout:        500 * time.Millisecond,
		DeviationFactor:   4,
	}
}

func newTestCluster(t *testing.T, sites int) *testCluster {
	t.Helper()
	return newTestClusterOn(t, simnet.New(simnet.FastConfig()), sites)
}

// newTestClusterOn builds a cluster on an arbitrary backend fabric.
func newTestClusterOn(t *testing.T, fab netback.Network, sites int) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:       t,
		fabric:  fab,
		daemons: make(map[addr.SiteID]*Daemon),
		lastInc: make(map[addr.SiteID]addr.Incarnation),
	}
	if sn, ok := fab.(*simnet.Network); ok {
		tc.net = sn
	}
	for i := 1; i <= sites; i++ {
		tc.addSite(addr.SiteID(i))
	}
	t.Cleanup(func() {
		for _, d := range tc.daemons {
			d.Close()
		}
		fab.Close()
	})
	return tc
}

// addSite starts a daemon at the given site id; a site id used before comes
// back with a bumped incarnation, as a real restart would.
func (tc *testCluster) addSite(id addr.SiteID) *Daemon {
	tc.t.Helper()
	inc := addr.Incarnation(0)
	if last, ok := tc.lastInc[id]; ok {
		inc = last + 1
	}
	d, err := New(Config{
		Site:        id,
		Incarnation: inc,
		Network:     tc.fabric,
		CallTimeout: 2 * time.Second,
		Detector:    testDetectorConfig(),
	})
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.lastInc[id] = inc
	tc.daemons[id] = d
	return d
}

// testProc is a registered process that records what it receives: its messages
// (at any entry) and views go through a task.Manager, the queue a toolkit
// process has.
type testProc struct {
	addr addr.Address
	d    *Daemon

	mu       sync.Mutex
	msgs     []*msg.Message
	views    []core.View
	received map[string]bool
	trace    []string // bodies and "view N" marks, in the one order the callbacks ran
}

func (tc *testCluster) newProc(site addr.SiteID) *testProc {
	tc.t.Helper()
	p := &testProc{d: tc.daemons[site], received: make(map[string]bool)}
	tasks := task.NewManager()
	tc.t.Cleanup(tasks.Close)
	record := func(m *msg.Message) {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.msgs = append(p.msgs, m)
		p.received[m.GetString("body", "")] = true
		p.trace = append(p.trace, m.GetString("body", ""))
	}
	for e := range 256 {
		tasks.BindEntry(addr.EntryID(e), record)
	}
	a, err := tc.daemons[site].RegisterProcess(
		func(entry addr.EntryID, m *msg.Message) { _ = tasks.Dispatch(entry, m) },
		tasks.Call,
		func(v core.View) {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.views = append(p.views, v)
			p.trace = append(p.trace, fmt.Sprintf("view %d", v.ID))
		},
	)
	if err != nil {
		tc.t.Fatal(err)
	}
	p.addr = a
	return p
}

func (p *testProc) got(body string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.received[body]
}

func (p *testProc) bodies() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, len(p.msgs))
	for i, m := range p.msgs {
		out[i] = m.GetString("body", "")
	}
	return out
}

func (p *testProc) numMsgs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.msgs)
}

func (p *testProc) numViews() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.views)
}

func (p *testProc) lastView() core.View {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.views) == 0 {
		return core.View{}
	}
	return p.views[len(p.views)-1]
}

func (p *testProc) viewSizes() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.views))
	for i, v := range p.views {
		out[i] = v.Size()
	}
	return out
}

func waitFor(t *testing.T, what string, timeout time.Duration, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func body(s string) *msg.Message { return msg.New().PutString("body", s) }

// dataPkt builds a group data packet by hand, encoded as a member's send (or,
// with rank -1, a relay site's ABCAST fan-out) leaves it: tests feed its raw
// bytes to handleTransport, once per site, or the packet itself to a handler.
func dataPkt(tb testing.TB, proto Protocol, gid addr.Address, view core.ViewID, id core.MsgID, rank int, payload *msg.Message) *dataPacket {
	tb.Helper()
	p := &dataPacket{proto: proto, entry: addr.EntryUserBase, group: gid, view: view, id: id, rank: int16(rank), payload: payload}
	if err := p.encode(); err != nil {
		tb.Fatal(err)
	}
	return p
}

// encoded builds the wire bytes of a GBCAST-family packet as a peer sends it:
// tests feed them to handleTransport, the one way a packet enters a daemon.
func encoded(tb testing.TB, pt byte, p gbPacket) []byte {
	tb.Helper()
	raw, err := p.encode(pt)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// buildGroup creates a group on site 1 and joins one member per additional
// site, returning the members in rank order.
func buildGroup(t *testing.T, tc *testCluster, name string, sites ...addr.SiteID) []*testProc {
	t.Helper()
	procs := make([]*testProc, len(sites))
	procs[0] = tc.newProc(sites[0])
	view, err := tc.daemons[sites[0]].CreateGroup(procs[0].addr, name)
	if err != nil {
		t.Fatal(err)
	}
	gid := view.Group
	for i := 1; i < len(sites); i++ {
		procs[i] = tc.newProc(sites[i])
		d := tc.daemons[sites[i]]
		g, err := d.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if g != gid {
			t.Fatalf("lookup returned %v, want %v", g, gid)
		}
		if _, err := d.Join(procs[i].addr, gid, JoinOptions{}); err != nil {
			t.Fatalf("join from site %d: %v", sites[i], err)
		}
	}
	// Wait until every member has seen the final view.
	waitFor(t, "all members to see the full view", 5*time.Second, func() bool {
		for _, p := range procs {
			if p.lastView().Size() != len(sites) {
				return false
			}
		}
		return true
	})
	return procs
}

func groupOf(t *testing.T, tc *testCluster, p *testProc, name string) addr.Address {
	t.Helper()
	gid, err := p.d.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return gid
}

// ---------------------------------------------------------------------------

func TestCreateLookupAndCurrentView(t *testing.T) {
	tc := newTestCluster(t, 2)
	creator := tc.newProc(1)
	view, err := tc.daemons[1].CreateGroup(creator.addr, "svc")
	if err != nil {
		t.Fatal(err)
	}
	if view.Size() != 1 || view.Coordinator() != creator.addr || view.ID != 1 {
		t.Errorf("initial view = %v", view)
	}
	// The creator gets the initial view notification.
	waitFor(t, "creator view callback", time.Second, func() bool { return creator.numViews() == 1 })

	// Lookup from the other site resolves the name and caches the view.
	gid, err := tc.daemons[2].Lookup("svc")
	if err != nil {
		t.Fatal(err)
	}
	if gid != view.Group {
		t.Errorf("lookup = %v, want %v", gid, view.Group)
	}
	if v, ok := tc.daemons[2].CurrentView(gid); !ok || v.Size() != 1 {
		t.Errorf("cached view = %v %v", v, ok)
	}
	// Unknown names fail.
	if _, err := tc.daemons[2].Lookup("no-such-group"); err == nil {
		t.Error("lookup of unknown name succeeded")
	}
}

func TestJoinBuildsRankedViewsEverywhere(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "ranked", 1, 2, 3)

	// All members agree on the final membership and its order.
	want := []addr.Address{procs[0].addr, procs[1].addr, procs[2].addr}
	for i, p := range procs {
		v := p.lastView()
		if v.Size() != 3 {
			t.Fatalf("member %d final view %v", i, v)
		}
		for r, m := range want {
			if v.Members[r] != m {
				t.Errorf("member %d sees rank %d = %v, want %v", i, r, v.Members[r], m)
			}
		}
		if v.RankOf(p.addr) != i {
			t.Errorf("member %d computes its own rank as %d", i, v.RankOf(p.addr))
		}
	}
	// Members see the same sequence of view sizes (view synchrony): the
	// creator sees 1,2,3; the second member 2,3; the third only 3.
	if got := procs[0].viewSizes(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("creator view sizes = %v", got)
	}
	if got := procs[1].viewSizes(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("second member view sizes = %v", got)
	}
	if got := procs[2].viewSizes(); len(got) != 1 || got[0] != 3 {
		t.Errorf("third member view sizes = %v", got)
	}
}

func TestCBCASTDeliveredToAllMembers(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "cb", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "cb")

	if _, err := procs[0].d.Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("hello")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "CBCAST delivery at every member", 3*time.Second, func() bool {
		for _, p := range procs {
			if p.numMsgs() < 1 {
				return false
			}
		}
		return true
	})
	for i, p := range procs {
		bs := p.bodies()
		if bs[0] != "hello" {
			t.Errorf("member %d received %v", i, bs)
		}
		p.mu.Lock()
		m := p.msgs[0]
		p.mu.Unlock()
		if m.Sender() != procs[0].addr {
			t.Errorf("member %d sender = %v", i, m.Sender())
		}
		if m.Group() != gid {
			t.Errorf("member %d group = %v", i, m.Group())
		}
	}
}

func TestCBCASTFIFOFromOneSender(t *testing.T) {
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "fifo", 1, 2)
	gid := groupOf(t, tc, procs[0], "fifo")

	const k = 25
	for i := 0; i < k; i++ {
		if _, err := procs[0].d.Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all FIFO messages", 5*time.Second, func() bool {
		return procs[1].numMsgs() >= k && procs[0].numMsgs() >= k
	})
	for _, p := range procs {
		bs := p.bodies()
		for i := 0; i < k; i++ {
			if bs[i] != fmt.Sprintf("m%02d", i) {
				t.Fatalf("FIFO violated at %d: %v", i, bs[:k])
			}
		}
	}
}

func TestABCASTTotalOrderConcurrentSenders(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "ab", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "ab")

	const per = 10
	var wg sync.WaitGroup
	for s, p := range procs {
		wg.Add(1)
		go func(s int, p *testProc) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := p.d.Multicast(p.addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body(fmt.Sprintf("s%d-%d", s, i))); err != nil {
					t.Errorf("abcast: %v", err)
					return
				}
			}
		}(s, p)
	}
	wg.Wait()
	total := per * len(procs)
	waitFor(t, "all ABCASTs delivered everywhere", 10*time.Second, func() bool {
		for _, p := range procs {
			if p.numMsgs() < total {
				return false
			}
		}
		return true
	})
	ref := procs[0].bodies()
	for i, p := range procs[1:] {
		got := p.bodies()
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("ABCAST order differs at member %d position %d: %q vs %q\nref=%v\ngot=%v",
					i+1, j, got[j], ref[j], ref, got)
			}
		}
	}
}

func TestABCASTSenderDeliversInTotalOrderToo(t *testing.T) {
	// A sender must not deliver its own ABCAST early: its delivery position
	// must match other members'.
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "abself", 1, 2)
	gid := groupOf(t, tc, procs[0], "abself")

	var wg sync.WaitGroup
	for s, p := range procs {
		wg.Add(1)
		go func(s int, p *testProc) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				_, _ = p.d.Multicast(p.addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body(fmt.Sprintf("x%d-%d", s, i)))
			}
		}(s, p)
	}
	wg.Wait()
	waitFor(t, "ABCAST deliveries", 10*time.Second, func() bool {
		return procs[0].numMsgs() >= 16 && procs[1].numMsgs() >= 16
	})
	a, b := procs[0].bodies(), procs[1].bodies()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, a, b)
		}
	}
}

func TestExternalClientMulticastAndReply(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "service", 1, 2)

	// A client at site 3 that is not a member queries the group; each
	// member replies point-to-point.
	client := tc.newProc(3)
	gidFromClient, err := tc.daemons[3].Lookup("service")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.daemons[3].Multicast(client.addr, CBCAST, addr.List{gidFromClient},
		addr.EntryUserBase, body("query")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "query at both members", 3*time.Second, func() bool {
		return procs[0].numMsgs() >= 1 && procs[1].numMsgs() >= 1
	})
	// Members reply directly to the client.
	for i, p := range procs {
		p.mu.Lock()
		sender := p.msgs[0].Sender()
		p.mu.Unlock()
		if sender != client.addr {
			t.Fatalf("member %d saw sender %v, want client %v", i, sender, client.addr)
		}
		if _, err := p.d.Multicast(p.addr, CBCAST, addr.List{sender}, addr.EntryUserBase, body(fmt.Sprintf("answer-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "replies at the client", 3*time.Second, func() bool { return client.numMsgs() >= 2 })
	client.mu.Lock()
	defer client.mu.Unlock()
	if !client.received["answer-0"] || !client.received["answer-1"] {
		t.Errorf("client received %v", client.bodies())
	}
}

func TestExternalClientFIFOOrder(t *testing.T) {
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "extfifo", 1)
	gid := groupOf(t, tc, procs[0], "extfifo")
	client := tc.newProc(2)
	if _, err := tc.daemons[2].Lookup("extfifo"); err != nil {
		t.Fatal(err)
	}
	const k = 20
	for i := 0; i < k; i++ {
		if _, err := tc.daemons[2].Multicast(client.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body(fmt.Sprintf("q%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "client messages at the member", 5*time.Second, func() bool { return procs[0].numMsgs() >= k })
	bs := procs[0].bodies()
	for i := 0; i < k; i++ {
		if bs[i] != fmt.Sprintf("q%02d", i) {
			t.Fatalf("external FIFO violated: %v", bs[:k])
		}
	}
}

func TestUserGBCASTOrderedAgainstOtherTraffic(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "gb", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "gb")

	// Interleave CBCAST traffic with a user GBCAST; every member must see
	// the GBCAST at the same position relative to the CBCASTs from the
	// same sender (the GBCAST is a synchronization point).
	for i := 0; i < 5; i++ {
		if _, err := procs[1].d.Multicast(procs[1].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body(fmt.Sprintf("pre%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := procs[1].d.Multicast(procs[1].addr, GBCAST, addr.List{gid}, addr.EntryUserBase, body("GB")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := procs[1].d.Multicast(procs[1].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body(fmt.Sprintf("post%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all 11 messages everywhere", 5*time.Second, func() bool {
		for _, p := range procs {
			if p.numMsgs() < 11 {
				return false
			}
		}
		return true
	})
	for i, p := range procs {
		bs := p.bodies()
		gbAt := -1
		for j, b := range bs {
			if b == "GB" {
				gbAt = j
			}
		}
		if gbAt == -1 {
			t.Fatalf("member %d never saw the GBCAST: %v", i, bs)
		}
		for j, b := range bs[:gbAt] {
			if len(b) >= 4 && b[:4] == "post" {
				t.Errorf("member %d saw %q (position %d) before the GBCAST", i, b, j)
			}
		}
		for j, b := range bs[gbAt+1:] {
			if len(b) >= 3 && b[:3] == "pre" {
				t.Errorf("member %d saw %q (position %d) after the GBCAST", i, b, gbAt+1+j)
			}
		}
	}
}

func TestStateTransferOnJoin(t *testing.T) {
	tc := newTestCluster(t, 2)
	creator := tc.newProc(1)
	view, err := tc.daemons[1].CreateGroup(creator.addr, "stateful")
	if err != nil {
		t.Fatal(err)
	}
	gid := view.Group
	// The creator registers a state provider capturing its "database".
	if err := tc.daemons[1].SetStateProvider(creator.addr, gid, func() [][]byte {
		return [][]byte{[]byte("block-1"), []byte("block-2")}
	}); err != nil {
		t.Fatal(err)
	}

	joiner := tc.newProc(2)
	var mu sync.Mutex
	var blocks []string
	gotLast := false
	if _, err := tc.daemons[2].Lookup("stateful"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.daemons[2].Join(joiner.addr, gid, JoinOptions{
		WantState: true,
		StateReceiver: func(b []byte, last bool) {
			mu.Lock()
			defer mu.Unlock()
			if len(b) > 0 {
				blocks = append(blocks, string(b))
			}
			if last {
				gotLast = true
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "state transfer completion", 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return gotLast
	})
	mu.Lock()
	if len(blocks) != 2 || blocks[0] != "block-1" || blocks[1] != "block-2" {
		t.Errorf("blocks = %v", blocks)
	}
	mu.Unlock()

	// Messages sent after the join are delivered to the new member after
	// its state.
	if _, err := tc.daemons[1].Multicast(creator.addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("after-join")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-join delivery", 3*time.Second, func() bool { return joiner.numMsgs() >= 1 })
	if joiner.bodies()[0] != "after-join" {
		t.Errorf("joiner received %v", joiner.bodies())
	}
}

func TestLeaveShrinksView(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "leavers", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "leavers")

	if err := procs[1].d.Leave(procs[1].addr, gid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "view without the leaver", 3*time.Second, func() bool {
		return procs[0].lastView().Size() == 2 && procs[2].lastView().Size() == 2
	})
	v := procs[0].lastView()
	if v.Contains(procs[1].addr) {
		t.Error("leaver still in the view")
	}
	if v.Coordinator() != procs[0].addr || v.RankOf(procs[2].addr) != 1 {
		t.Errorf("ranking after leave wrong: %v", v)
	}
}

// TestLastMemberLeaveEndsFlushLikeAnyCommit watches the site whose only member
// leaves: the commit that removes it ends that copy's flush as it ends every
// other copy's — one FlushBegin, one FlushComplete with no abnormal-exit
// detail — and only then is the copy dropped.
func TestLastMemberLeaveEndsFlushLikeAnyCommit(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "lastout", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "lastout")
	flushes, cancel := tc.daemons[2].Events(events.Filter{Kinds: []events.Kind{events.FlushBegin, events.FlushComplete}, Group: gid}, 0)
	defer cancel()

	if err := tc.daemons[2].Leave(procs[1].addr, gid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the leaver's site to drop its copy", 3*time.Second, func() bool {
		tc.daemons[2].mu.Lock()
		defer tc.daemons[2].mu.Unlock()
		return tc.daemons[2].groups[gid] == nil
	})
	for _, want := range []events.Kind{events.FlushBegin, events.FlushComplete} {
		select {
		case ev := <-flushes:
			if ev.Kind != want || ev.Detail != "" {
				t.Errorf("the leave's flush published %v, want a bare %v", ev, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("no %v from the leave's flush", want)
		}
	}
	select {
	case ev := <-flushes:
		t.Errorf("a further flush event at the dropped copy: %v", ev)
	default:
	}
}

func TestProcessFailureRemovesMember(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "crashy", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "crashy")

	// Kill the member at site 2; the survivors must observe a view change
	// that removes it (process failures are detected locally, no timeout).
	if err := tc.daemons[2].KillProcess(procs[1].addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "view change after process failure", 3*time.Second, func() bool {
		return procs[0].lastView().Size() == 2 && procs[2].lastView().Size() == 2
	})
	if procs[0].lastView().Contains(procs[1].addr) {
		t.Error("failed process still in the view")
	}
	// The group keeps working.
	if _, err := procs[0].d.Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("still-alive")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-failure delivery", 3*time.Second, func() bool {
		return procs[2].got("still-alive")
	})
}

func TestCoordinatorFailureElectsNextOldest(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "coord", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "coord")

	// Kill the creator (the coordinator). The next-oldest member takes
	// over; survivors install a 2-member view coordinated by procs[1].
	if err := tc.daemons[1].KillProcess(procs[0].addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "view change after coordinator failure", 3*time.Second, func() bool {
		return procs[1].lastView().Size() == 2 && procs[2].lastView().Size() == 2
	})
	if procs[1].lastView().Coordinator() != procs[1].addr {
		t.Errorf("new coordinator = %v, want %v", procs[1].lastView().Coordinator(), procs[1].addr)
	}
	// The group still accepts joins through the new coordinator.
	late := tc.newProc(3)
	if _, err := tc.daemons[3].Join(late.addr, gid, JoinOptions{}); err != nil {
		t.Fatalf("join after coordinator failure: %v", err)
	}
	waitFor(t, "view including the late joiner", 3*time.Second, func() bool {
		return procs[1].lastView().Size() == 3
	})
}

func TestSiteFailureRemovesItsMembers(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "sitefail", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "sitefail")

	// Crash site 3 entirely: its daemon stops responding; the failure
	// detector at the surviving sites times out and the coordinator removes
	// the member.
	tc.daemons[3].Close()
	waitFor(t, "view without the crashed site's member", 8*time.Second, func() bool {
		return procs[0].lastView().Size() == 2 && procs[1].lastView().Size() == 2
	})
	if procs[0].lastView().Contains(procs[2].addr) {
		t.Error("member at the crashed site still in the view")
	}
	// Traffic continues among the survivors.
	if _, err := procs[0].d.Multicast(procs[0].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("survivors")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-site-failure ABCAST", 5*time.Second, func() bool {
		return procs[1].got("survivors") && procs[0].got("survivors")
	})
}

func TestViewSynchronyIdenticalViewSequences(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "vsync", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "vsync")

	// A member leaves, another joins: every surviving original member must
	// observe exactly the same sequence of views (ids and memberships).
	if err := procs[2].d.Leave(procs[2].addr, gid); err != nil {
		t.Fatal(err)
	}
	late := tc.newProc(3)
	if _, err := tc.daemons[3].Join(late.addr, gid, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "final 3-member view", 5*time.Second, func() bool {
		return procs[0].lastView().Size() == 3 && procs[1].lastView().Size() == 3 &&
			procs[0].lastView().Contains(late.addr)
	})
	a := procs[0]
	b := procs[1]
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	// procs[1] joined at view 2, so its history is a suffix of procs[0]'s.
	offset := len(a.views) - len(b.views)
	if offset < 0 {
		t.Fatalf("member 1 saw more views (%d) than the creator (%d)", len(b.views), len(a.views))
	}
	for i := range b.views {
		if !a.views[offset+i].Equal(b.views[i]) {
			t.Errorf("view sequences diverge at %d: %v vs %v", i, a.views[offset+i], b.views[i])
		}
	}
}

func TestFlushWaitsForOutstandingABCASTs(t *testing.T) {
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "flush", 1, 2)
	gid := groupOf(t, tc, procs[0], "flush")

	for i := 0; i < 5; i++ {
		if _, err := procs[0].d.Multicast(procs[0].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body(fmt.Sprintf("f%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := procs[0].d.Flush(procs[0].addr); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// After a successful flush every ABCAST must already be delivered at
	// the remote member (they were committed and the transport drained).
	waitFor(t, "flushed messages at the remote member", 2*time.Second, func() bool {
		return procs[1].numMsgs() >= 5
	})
}

// TestFlushCoversCastJustSent pins flush-before-external-action (Section 3.2,
// footnote 3) for the cast sent the moment before: when Multicast returns, the
// cast is in every peer's transport window, so a Flush that follows cannot
// read an empty window and answer for a message that has not left yet. With
// the peers' links held it must time out instead.
func TestFlushCoversCastJustSent(t *testing.T) {
	net := simnet.New(simnet.FastConfig())
	tc := &testCluster{t: t, net: net, daemons: make(map[addr.SiteID]*Daemon)}
	t.Cleanup(func() {
		for _, d := range tc.daemons {
			d.Close()
		}
		net.Close()
	})
	for s := addr.SiteID(1); s <= 3; s++ {
		d, err := New(Config{Site: s, Network: net, CallTimeout: 150 * time.Millisecond, DisableHeartbeats: true})
		if err != nil {
			t.Fatal(err)
		}
		tc.daemons[s] = d
	}
	procs := buildGroup(t, tc, "flushcast", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "flushcast")
	d := tc.daemons[1]
	if err := d.Flush(procs[0].addr); err != nil {
		t.Fatalf("quiescing flush: %v", err)
	}

	net.PauseLink(1, 2)
	net.PauseLink(1, 3)
	before := d.tr.Stats().MessagesSent
	if err := cast(procs[0], CBCAST, gid, "just sent"); err != nil {
		t.Fatal(err)
	}
	if got := d.tr.Stats().MessagesSent - before; got != 2 {
		t.Errorf("%d of 2 copies handed to the transport when Multicast returned", got)
	}
	if err := d.Flush(procs[0].addr); !errors.Is(err, ErrTimeout) {
		t.Errorf("Flush = %v with the cast held on both links, want ErrTimeout", err)
	}
	net.ResumeAll()
	waitFor(t, "the cast at the remote members", 5*time.Second, func() bool { return procs[1].got("just sent") && procs[2].got("just sent") })
}

func TestCountersTrackPrimitives(t *testing.T) {
	tc := newTestCluster(t, 3)
	procs := buildGroup(t, tc, "counted", 1, 2)
	gid := groupOf(t, tc, procs[0], "counted")
	d := tc.daemons[1]

	before := d.Counters()
	if _, err := d.Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("c")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Multicast(procs[0].addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Multicast(procs[0].addr, CBCAST, addr.List{procs[1].addr}, addr.EntryUserBase, body("p2p")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deliveries", 3*time.Second, func() bool { return procs[1].numMsgs() >= 3 })
	after := d.Counters()
	if after.CBCASTs-before.CBCASTs != 1 {
		t.Errorf("CBCAST count delta = %d", after.CBCASTs-before.CBCASTs)
	}
	if after.ABCASTs-before.ABCASTs != 1 {
		t.Errorf("ABCAST count delta = %d", after.ABCASTs-before.ABCASTs)
	}
	if after.PointToPoints-before.PointToPoints != 1 {
		t.Errorf("point-to-point count delta = %d", after.PointToPoints-before.PointToPoints)
	}

	// A non-member's CBCAST is counted where it is stamped and sent, at the
	// coordinator's site, not at the site that asked for the relay.
	client := tc.newProc(3)
	clientBefore := tc.daemons[3].Counters()
	if err := cast(client, CBCAST, gid, "relayed"); err != nil {
		t.Fatal(err)
	}
	if got := d.Counters().CBCASTs - after.CBCASTs; got != 1 {
		t.Errorf("relay site's CBCAST count delta = %d for one relayed cast", got)
	}
	if got := tc.daemons[3].Counters().CBCASTs - clientBefore.CBCASTs; got != 0 {
		t.Errorf("sender's site's CBCAST count delta = %d for a cast it only relayed", got)
	}
}

func TestMulticastValidation(t *testing.T) {
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "valid", 1, 2)
	gid := groupOf(t, tc, procs[0], "valid")
	d := tc.daemons[1]

	if _, err := d.Multicast(procs[0].addr, CBCAST, nil, addr.EntryUserBase, body("x")); err == nil {
		t.Error("empty destination list accepted")
	}
	if _, err := d.Multicast(procs[0].addr, ABCAST, addr.List{procs[1].addr}, addr.EntryUserBase, body("x")); err == nil {
		t.Error("ABCAST without a group destination accepted")
	}
	if _, err := d.Multicast(addr.NewProcess(1, 0, 9999), CBCAST, addr.List{gid}, addr.EntryUserBase, body("x")); err == nil {
		t.Error("multicast from an unregistered process accepted")
	}
	other := tc.newProc(1)
	otherGroup, err := d.CreateGroup(other.addr, "valid2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Multicast(procs[0].addr, CBCAST, addr.List{gid, otherGroup.Group}, addr.EntryUserBase, body("x")); err == nil {
		t.Error("two group destinations accepted")
	}
}

func TestMessagesFromKilledProcessAreDiscarded(t *testing.T) {
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "zombie", 1, 2)

	if err := tc.daemons[1].KillProcess(procs[0].addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "failure view", 3*time.Second, func() bool { return procs[1].lastView().Size() == 1 })
	// Attempting to multicast from the dead process fails locally.
	gid := procs[1].lastView().Group
	if _, err := tc.daemons[1].Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("zombie")); err == nil {
		t.Error("multicast from a dead process accepted")
	}
}

func TestGroupVanishesWhenLastMemberLeaves(t *testing.T) {
	tc := newTestCluster(t, 2)
	procs := buildGroup(t, tc, "vanish", 1)
	gid := groupOf(t, tc, procs[0], "vanish")
	if err := procs[0].d.Leave(procs[0].addr, gid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "group state dropped", 2*time.Second, func() bool {
		v, _ := tc.daemons[1].CurrentView(gid)
		return v.Size() == 0
	})
}
