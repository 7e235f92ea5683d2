package isis

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netback"
)

// newTestCluster builds a fast cluster for tests.
func newTestCluster(t *testing.T, sites int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Sites:        sites,
		CallTimeout:  2 * time.Second,
		ReplyTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	watchCluster(t, c)
	return c
}

func spawn(t *testing.T, c *Cluster, site SiteID) *Process {
	t.Helper()
	p, err := c.Site(site).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// waitUntil polls pred until it holds, and fails the test when timeout runs
// out first, with the state of every cluster the test's helpers built.
func waitUntil(t *testing.T, what string, timeout time.Duration, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s%s", what, dumpWatched(t.Name()))
}

// watched holds the clusters the helpers built, each with the test that built
// it and the tail of its event stream.
var watched = struct {
	sync.Mutex
	clusters map[*Cluster]*clusterWatch
}{clusters: make(map[*Cluster]*clusterWatch)}

type clusterWatch struct {
	test string
	mu   sync.Mutex
	tail [64]Event // a ring of the last events, the nth at n%64
	n    int
}

// watchCluster registers c for t. Until c closes, one goroutine keeps the
// last 64 events of its stream; a waitUntil of t or of its subtests that
// times out prints them with the state of c's live sites and processes.
func watchCluster(t *testing.T, c *Cluster) {
	w := &clusterWatch{test: t.Name()}
	events, _ := c.Events(EventFilter{}) // closed when the cluster closes
	go func() {
		for e := range events {
			w.mu.Lock()
			w.tail[w.n%len(w.tail)] = e
			w.n++
			w.mu.Unlock()
		}
	}()
	watched.Lock()
	watched.clusters[c] = w
	watched.Unlock()
	t.Cleanup(func() {
		watched.Lock()
		delete(watched.clusters, c)
		watched.Unlock()
	})
}

// dumpWatched renders every watched cluster of the named test or of a test
// it is a subtest of: each live site's snapshot (counters, suspicions, calls,
// requests, parked rejoins and group copies) and event statistics, each live
// process's views, and the event tail.
func dumpWatched(test string) string {
	var b strings.Builder
	watched.Lock()
	defer watched.Unlock()
	for c, w := range watched.clusters {
		if test != w.test && !strings.HasPrefix(test, w.test+"/") {
			continue
		}
		fmt.Fprintf(&b, "\n== cluster of %s ==", w.test)
		for _, s := range c.Sites() {
			snap := s.Snapshot()
			fmt.Fprintf(&b, "\nsite %d: counters %+v\n  suspected %v, windows %v, calls %+v, requests %+v, parked rejoins %+v, events %+v",
				s.id, snap.Counters, snap.Suspected, snap.Windows, snap.Calls, snap.Requests, snap.Rejoins, s.daemon.EventStats())
			for _, g := range snap.Groups {
				fmt.Fprintf(&b, "\n  copy %v phase %d clock %v: members %+v, pending %+v, submitted %v, parked %+v, GBCAST queue %+v, round %+v, survey %+v",
					g.View, g.Phase, g.Clock, g.Members, g.Pending, g.Submitted, g.Parked, g.Queue, g.Round, g.Survey)
			}
			s.mu.Lock()
			for p := range s.procs {
				p.mu.Lock()
				for _, v := range p.lastViews {
					fmt.Fprintf(&b, "\n  process %v: %v", p.addr, v)
				}
				p.mu.Unlock()
			}
			s.mu.Unlock()
		}
		w.mu.Lock()
		fmt.Fprintf(&b, "\nlast %d events:", min(w.n, len(w.tail)))
		for i := max(0, w.n-len(w.tail)); i < w.n; i++ {
			fmt.Fprintf(&b, "\n  %v", w.tail[i%len(w.tail)])
		}
		w.mu.Unlock()
	}
	return b.String()
}

// echoService builds an n-member group named name whose members reply to
// every request at EntryUserBase with "echo-<rank>:<body>".
func echoService(t *testing.T, c *Cluster, name string, sites ...SiteID) ([]*Process, Address) {
	t.Helper()
	members := make([]*Process, len(sites))
	var gid Address
	for i, s := range sites {
		p := spawn(t, c, s)
		members[i] = p
		rank := i
		p.BindEntry(EntryUserBase, func(m *Message) {
			body := m.GetString("body", "")
			_ = p.Reply(m, NewMessage().PutString("body", fmt.Sprintf("echo-%d:%s", rank, body)))
		})
		if i == 0 {
			v, err := p.CreateGroup(name)
			if err != nil {
				t.Fatal(err)
			}
			gid = v.Group
		} else {
			if _, err := p.JoinByName(name, JoinOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Wait for the full membership to be visible to the creator.
	waitUntil(t, "full service membership", 5*time.Second, func() bool {
		v, ok := members[0].CurrentView(gid)
		return ok && v.Size() == len(sites)
	})
	return members, gid
}

func TestClusterLifecycle(t *testing.T) {
	c := newTestCluster(t, 3)
	if len(c.Sites()) != 3 {
		t.Fatalf("Sites = %d", len(c.Sites()))
	}
	if c.Site(2) == nil || c.Site(2).ID() != 2 {
		t.Error("Site(2) wrong")
	}
	if c.Site(99) != nil {
		t.Error("Site(99) should not exist")
	}
	s, err := c.AddSite(10)
	if err != nil || s.ID() != 10 {
		t.Fatalf("AddSite: %v", err)
	}
	if err := c.CrashSite(10); err != nil {
		t.Fatal(err)
	}
	if c.Site(10) != nil {
		t.Error("crashed site still listed")
	}
	if err := c.CrashSite(10); err != ErrNoSuchSite {
		t.Errorf("double crash err = %v", err)
	}
}

// Fabric is the one way to the network, and fault injection must not depend
// on which backend is behind it.
func TestFabricInjectsFaultsOnBothBackends(t *testing.T) {
	for _, backend := range []string{BackendSimnet, BackendTCP} {
		c := newBackendCluster(t, backend, 1)
		if _, ok := c.Fabric().(netback.FaultInjector); !ok {
			t.Errorf("%s: Fabric() is a %T, which is no netback.FaultInjector", backend, c.Fabric())
		}
	}
}

func TestAsyncCastDeliversToGroup(t *testing.T) {
	c := newTestCluster(t, 2)
	var mu sync.Mutex
	var got []string

	a := spawn(t, c, 1)
	b := spawn(t, c, 2)
	for _, p := range []*Process{a, b} {
		p := p
		p.BindEntry(EntryUserBase, func(m *Message) {
			mu.Lock()
			got = append(got, m.GetString("body", ""))
			mu.Unlock()
		})
	}
	v, err := a.CreateGroup("announce")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Join(v.Group, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	replies, err := a.Cast(CBCAST, []Address{v.Group}, EntryUserBase, Text("news"))
	if err != nil {
		t.Fatal(err)
	}
	if replies != nil {
		t.Error("async cast returned replies")
	}
	waitUntil(t, "both members to receive", 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
}

func TestCastCollectsOneReply(t *testing.T) {
	c := newTestCluster(t, 3)
	_, gid := echoService(t, c, "echo1", 1, 2)
	client := spawn(t, c, 3)

	reply, err := client.Query(CBCAST, []Address{gid}, EntryUserBase, Text("hi"))
	if err != nil {
		t.Fatal(err)
	}
	body := reply.GetString("body", "")
	if body != "echo-0:hi" && body != "echo-1:hi" {
		t.Errorf("reply body = %q", body)
	}
	if reply.Sender().IsNil() {
		t.Error("reply has no sender")
	}
}

func TestCastCollectsAllReplies(t *testing.T) {
	c := newTestCluster(t, 3)
	_, gid := echoService(t, c, "echoAll", 1, 2, 3)
	client := spawn(t, c, 1)

	replies, err := client.Cast(CBCAST, []Address{gid}, EntryUserBase, Text("q"), Replies(All))
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 {
		t.Fatalf("got %d replies, want 3", len(replies))
	}
	seen := map[string]bool{}
	for _, r := range replies {
		seen[r.GetString("body", "")] = true
	}
	for i := 0; i < 3; i++ {
		if !seen[fmt.Sprintf("echo-%d:q", i)] {
			t.Errorf("missing reply from member %d: %v", i, seen)
		}
	}
}

func TestNullRepliesAreNotReturnedButCount(t *testing.T) {
	c := newTestCluster(t, 2)
	// Two members: one replies normally, the other always sends a null
	// reply (a hot standby, Section 5 step 4).
	worker := spawn(t, c, 1)
	standby := spawn(t, c, 2)
	worker.BindEntry(EntryUserBase, func(m *Message) {
		_ = worker.Reply(m, Text("real-answer"))
	})
	standby.BindEntry(EntryUserBase, func(m *Message) {
		_ = standby.NullReply(m)
	})
	v, err := worker.CreateGroup("standbyish")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := standby.Join(v.Group, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	client := spawn(t, c, 2)
	replies, err := client.Cast(CBCAST, []Address{v.Group}, EntryUserBase, Text("q"), Replies(All))
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 || replies[0].GetString("body", "") != "real-answer" {
		t.Errorf("replies = %v", replies)
	}
}

func TestCastAllNullsReturnsNoResponders(t *testing.T) {
	c := newTestCluster(t, 1)
	member := spawn(t, c, 1)
	member.BindEntry(EntryUserBase, func(m *Message) { _ = member.NullReply(m) })
	v, err := member.CreateGroup("onlynulls")
	if err != nil {
		t.Fatal(err)
	}
	client := spawn(t, c, 1)
	replies, err := client.Cast(CBCAST, []Address{v.Group}, EntryUserBase, Text("q"), Replies(1))
	if err != ErrNoResponders {
		t.Errorf("err = %v, want ErrNoResponders", err)
	}
	if len(replies) != 0 {
		t.Errorf("replies = %v", replies)
	}
}

func TestCastToIndividualProcess(t *testing.T) {
	c := newTestCluster(t, 2)
	server := spawn(t, c, 1)
	server.BindEntry(EntryUserBase, func(m *Message) {
		_ = server.Reply(m, Text("pong"))
	})
	client := spawn(t, c, 2)
	reply, err := client.Query(CBCAST, []Address{server.Address()}, EntryUserBase, Text("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.GetString("body", "") != "pong" {
		t.Errorf("reply = %v", reply.Format())
	}
}

func TestReplyWithCopies(t *testing.T) {
	c := newTestCluster(t, 2)
	coordinator := spawn(t, c, 1)
	cohort := spawn(t, c, 2)
	var mu sync.Mutex
	var cohortCopies []*Message
	cohort.BindEntry(EntryGenericCCRply, func(m *Message) {
		mu.Lock()
		cohortCopies = append(cohortCopies, m)
		mu.Unlock()
	})
	coordinator.BindEntry(EntryUserBase, func(m *Message) {
		_ = coordinator.ReplyWithCopies(m, Text("result"), []Address{cohort.Address()}, EntryGenericCCRply)
	})
	client := spawn(t, c, 2)
	reply, err := client.Query(CBCAST, []Address{coordinator.Address()}, EntryUserBase, Text("work"))
	if err != nil {
		t.Fatal(err)
	}
	if reply.GetString("body", "") != "result" {
		t.Errorf("caller reply = %v", reply.Format())
	}
	waitUntil(t, "cohort copy", 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(cohortCopies) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if cohortCopies[0].GetString("body", "") != "result" {
		t.Errorf("cohort copy = %v", cohortCopies[0].Format())
	}
}

func TestDuplicateRepliesDiscarded(t *testing.T) {
	c := newTestCluster(t, 1)
	member := spawn(t, c, 1)
	member.BindEntry(EntryUserBase, func(m *Message) {
		// Reply twice: the second must be silently discarded.
		_ = member.Reply(m, Text("first"))
		_ = member.Reply(m, Text("second"))
	})
	v, err := member.CreateGroup("dup")
	if err != nil {
		t.Fatal(err)
	}
	client := spawn(t, c, 1)
	replies, err := client.Cast(CBCAST, []Address{v.Group}, EntryUserBase, Text("q"), Replies(All))
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 {
		t.Errorf("got %d replies, want 1 (duplicates discarded)", len(replies))
	}
}

func TestReplyToNonRequestFails(t *testing.T) {
	c := newTestCluster(t, 1)
	p := spawn(t, c, 1)
	if err := p.Reply(NewMessage(), Text("x")); err != ErrNotARequest {
		t.Errorf("err = %v, want ErrNotARequest", err)
	}
}

func TestMonitorSeesMembershipChanges(t *testing.T) {
	c := newTestCluster(t, 2)
	a := spawn(t, c, 1)
	v, err := a.CreateGroup("watched")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sizes []int
	a.Monitor(v.Group, func(view View) {
		mu.Lock()
		sizes = append(sizes, view.Size())
		mu.Unlock()
	})
	b := spawn(t, c, 2)
	if _, err := b.Join(v.Group, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Leave(v.Group); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "join and leave notifications", 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(sizes) >= 2 && sizes[len(sizes)-1] == 1
	})
	mu.Lock()
	defer mu.Unlock()
	// The monitor may also have observed the initial single-member view,
	// depending on registration timing; the join (2) and leave (1) must be
	// the last two observations in that order.
	n := len(sizes)
	if sizes[n-2] != 2 || sizes[n-1] != 1 {
		t.Errorf("membership sizes observed = %v", sizes)
	}
}

func TestStateTransferThroughPublicAPI(t *testing.T) {
	c := newTestCluster(t, 2)
	first := spawn(t, c, 1)
	v, err := first.CreateGroup("db")
	if err != nil {
		t.Fatal(err)
	}
	// The first member's "database".
	if err := first.SetStateProvider(v.Group, func() [][]byte {
		return [][]byte{[]byte("row1"), []byte("row2"), []byte("row3")}
	}); err != nil {
		t.Fatal(err)
	}
	second := spawn(t, c, 2)
	var mu sync.Mutex
	var rows []string
	done := false
	if _, err := second.Join(v.Group, JoinOptions{
		StateReceiver: func(b []byte, last bool) {
			mu.Lock()
			defer mu.Unlock()
			if len(b) > 0 {
				rows = append(rows, string(b))
			}
			if last {
				done = true
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "state transfer", 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return done
	})
	mu.Lock()
	defer mu.Unlock()
	if len(rows) != 3 || rows[0] != "row1" || rows[2] != "row3" {
		t.Errorf("rows = %v", rows)
	}
}

// TestStateTransferIsConsistentCut joins a member while the provider's
// handlers for updates delivered before the join are still queued behind a
// slow one. The transferred state must include every one of them: they are
// never delivered to the joiner, so a snapshot taken ahead of the handlers
// would leave the two copies apart for good.
func TestStateTransferIsConsistentCut(t *testing.T) {
	c := newTestCluster(t, 2)
	counter := func(p *Process) *atomic.Int64 {
		n := new(atomic.Int64)
		p.BindEntry(EntryUserBase, func(*Message) {
			time.Sleep(time.Millisecond)
			n.Add(1)
		})
		return n
	}
	first := spawn(t, c, 1)
	firstN := counter(first)
	v, err := first.CreateGroup("cut")
	if err != nil {
		t.Fatal(err)
	}
	if err := first.SetStateProvider(v.Group, func() [][]byte {
		return [][]byte{[]byte(strconv.FormatInt(firstN.Load(), 10))}
	}); err != nil {
		t.Fatal(err)
	}
	const updates = 50
	for i := 0; i < updates; i++ {
		if _, err := first.Cast(CBCAST, []Address{v.Group}, EntryUserBase, NewMessage()); err != nil {
			t.Fatal(err)
		}
	}
	second := spawn(t, c, 2)
	secondN := counter(second)
	received := make(chan struct{})
	if _, err := second.Join(v.Group, JoinOptions{StateReceiver: func(b []byte, last bool) {
		if n, err := strconv.ParseInt(string(b), 10, 64); err == nil {
			secondN.Store(n)
		}
		if last {
			close(received)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-received:
	case <-time.After(5 * time.Second):
		t.Fatal("the state transfer never completed")
	}
	waitUntil(t, "the provider's handlers", 5*time.Second, func() bool { return firstN.Load() == updates })
	if got := secondN.Load(); got != updates {
		t.Fatalf("the joiner's copy is at %d and the provider's at %d: the state was not a cut", got, updates)
	}
}

func TestKilledProcessTriggersFailureView(t *testing.T) {
	c := newTestCluster(t, 2)
	a := spawn(t, c, 1)
	b := spawn(t, c, 2)
	v, err := a.CreateGroup("fragile")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Join(v.Group, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lastSize int
	a.Monitor(v.Group, func(view View) {
		mu.Lock()
		lastSize = view.Size()
		mu.Unlock()
	})
	if err := b.Kill(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "failure view at the survivor", 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return lastSize == 1
	})
	if b.Alive() {
		t.Error("killed process reports alive")
	}
	if _, err := b.Cast(CBCAST, []Address{v.Group}, EntryUserBase, Text("zombie")); err != ErrProcessKilled {
		t.Errorf("cast from killed process err = %v", err)
	}
	if _, err := b.CreateGroup("nope"); err != ErrProcessKilled {
		t.Errorf("create from killed process err = %v", err)
	}
}

func TestCastWaitsForRepliesAcrossMemberFailure(t *testing.T) {
	c := newTestCluster(t, 3)
	// Two members; one never replies and is killed while the caller waits
	// for ALL replies. The caller must return once the survivor has replied
	// and the failure has been observed, rather than timing out.
	replier := spawn(t, c, 1)
	replier.BindEntry(EntryUserBase, func(m *Message) {
		_ = replier.Reply(m, Text("ok"))
	})
	silent := spawn(t, c, 2)
	silent.BindEntry(EntryUserBase, func(m *Message) { /* never replies */ })
	v, err := replier.CreateGroup("halfdead")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := silent.Join(v.Group, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	client := spawn(t, c, 3)
	go func() {
		time.Sleep(100 * time.Millisecond)
		_ = silent.Kill()
	}()
	start := time.Now()
	replies, err := client.Cast(CBCAST, []Address{v.Group}, EntryUserBase, Text("q"), Replies(All))
	if err != nil {
		t.Fatalf("cast: %v", err)
	}
	if len(replies) != 1 || replies[0].GetString("body", "") != "ok" {
		t.Errorf("replies = %v", replies)
	}
	if time.Since(start) > 4*time.Second {
		t.Error("cast waited for the full timeout despite the failure")
	}
}

// TestViewChangeWakesWaitingCast pins the wake-up collectReplies documents: a
// view delivered to the process nudges every Cast that is waiting, so a
// failed destination is recounted at the view change and not at the next
// recheck tick.
func TestViewChangeWakesWaitingCast(t *testing.T) {
	call := &pendingCall{wake: make(chan struct{}, 1)}
	p := &Process{pending: map[int64]*pendingCall{1: call}}
	p.onView(View{})
	select {
	case <-call.wake:
	default:
		t.Error("a view change left the waiting Cast asleep")
	}
}

func TestFlushFromPublicAPI(t *testing.T) {
	c := newTestCluster(t, 2)
	members, gid := echoService(t, c, "flushable", 1, 2)
	for i := 0; i < 3; i++ {
		if _, err := members[0].Cast(ABCAST, []Address{gid}, EntryUserBase, Text(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := members[0].Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func TestEntriesAndFilters(t *testing.T) {
	c := newTestCluster(t, 1)
	p := spawn(t, c, 1)
	var mu sync.Mutex
	var accepted []string
	p.AddFilter(func(e EntryID, m *Message) bool {
		return m.GetString("body", "") != "blocked"
	})
	p.BindEntry(EntryUserBase, func(m *Message) {
		mu.Lock()
		accepted = append(accepted, m.GetString("body", ""))
		mu.Unlock()
	})
	v, err := p.CreateGroup("filtered")
	if err != nil {
		t.Fatal(err)
	}
	sender := spawn(t, c, 1)
	for _, b := range []string{"blocked", "allowed"} {
		if _, err := sender.Cast(CBCAST, []Address{v.Group}, EntryUserBase, Text(b)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "filtered delivery", 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(accepted) >= 1
	})
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(accepted) != 1 || accepted[0] != "allowed" {
		t.Errorf("accepted = %v", accepted)
	}
}

func TestClusterCounters(t *testing.T) {
	c := newTestCluster(t, 2)
	members, gid := echoService(t, c, "counted", 1, 2)
	before := c.Counters()
	if _, err := members[0].Cast(CBCAST, []Address{gid}, EntryUserBase, Text("x")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "counter increase", 3*time.Second, func() bool {
		return c.Counters().CBCASTs > before.CBCASTs
	})
	if c.Counters().Delivered <= before.Delivered {
		t.Error("Delivered counter did not advance")
	}
}

func TestSiteCrashRemovesMembersFromViews(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Sites:        3,
		CallTimeout:  2 * time.Second,
		ReplyTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	members, gid := echoService(t, c, "resilient", 1, 2, 3)
	if err := c.CrashSite(3); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "view without the crashed site", 10*time.Second, func() bool {
		v, ok := members[0].CurrentView(gid)
		return ok && v.Size() == 2
	})
	// The service still answers queries.
	client := spawn(t, c, 2)
	replies, err := client.Cast(CBCAST, []Address{gid}, EntryUserBase, Text("post-crash"), Replies(All))
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Errorf("replies after crash = %d, want 2", len(replies))
	}
}

// TestClusterCloseStopsEverything: Close used to leave the spawned
// processes' task managers (an entry worker per bound entry) running, and
// each pinned its handler's closure — in practice the whole dead cluster.
func TestClusterCloseStopsEverything(t *testing.T) {
	settle := func(want int) int {
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(5 * time.Millisecond)
		}
		return n
	}
	before := runtime.NumGoroutine()
	for _, backend := range []string{BackendSimnet, BackendTCP} {
		c, err := NewCluster(ClusterConfig{Sites: 3, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		var gid Address
		procs := make([]*Process, 3)
		for i := range procs {
			p := spawn(t, c, SiteID(i+1))
			procs[i] = p
			p.BindEntry(EntryUserBase, func(m *Message) { _ = p.Reply(m, NewMessage()) })
			if i == 0 {
				v, err := p.CreateGroup("closing")
				if err != nil {
					t.Fatal(err)
				}
				gid = v.Group
			} else if _, err := p.Join(gid, JoinOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := procs[0].Cast(ABCAST, []Address{gid}, EntryUserBase, Text("x"), Replies(All)); err != nil {
			t.Fatal(err)
		}
		if err := procs[2].Kill(); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if after := settle(before); after > before {
			buf := make([]byte, 1<<16)
			t.Fatalf("%v: %d goroutines before NewCluster, %d after Close\n%s", backend, before, after, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestClusterCloseDropsALinkBacklog floods the paper's slow network with
// 300 ms of 10 KB async CBCASTs (4 000 at most, about 12 000 frames), far
// more than its links carry in that time, and closes the cluster. Close used
// to wait for the backlog to drain at link speed: a site's transport waited
// for its flusher, which went on sending, each frame at the network's cost,
// and the network closed only after every site.
func TestClusterCloseDropsALinkBacklog(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Sites: 2, Net: PaperNetConfig(), DisableHeartbeats: true, CallTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := spawn(t, c, 1), spawn(t, c, 2)
	v, err := p1.CreateGroup("flood")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Join(v.Group, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	payload := NewMessage().PutBytes("data", make([]byte, 10_000))
	casts := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond && casts < 4000; casts++ {
		if _, err := p1.Cast(CBCAST, []Address{v.Group}, EntryUserBase, payload); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatalf("Close did not return within 2 s of a %d-cast flood", casts)
	}
}

// A site keeps track of its processes only to stop their task managers when
// it closes; a killed process has stopped its own and must not stay pinned.
func TestSiteForgetsKilledProcesses(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keep := spawn(t, c, 1)
	for i := 0; i < 20; i++ {
		if err := spawn(t, c, 1).Kill(); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Site(1)
	s.mu.Lock()
	_, kept := s.procs[keep]
	n := len(s.procs)
	s.mu.Unlock()
	if n != 1 || !kept {
		t.Errorf("site tracks %d processes after 20 spawn/kill pairs, want only the live one", n)
	}
}
