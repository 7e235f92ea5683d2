package isis

import (
	"sync"
	"testing"
	"time"
)

// A process has one queue (task.Manager): its handlers, its view callbacks
// and its state captures run in delivery order, and only replies pass it by.
// These tests hold a handler, queue something behind it, and check what ran
// first.

// TestEntryOrderSurvivesABacklog: an entry's queue grows instead of
// overflowing, so a handler that blocks while 5 000 casts queue behind it
// still sees them in order.
func TestEntryOrderSurvivesABacklog(t *testing.T) {
	c := newTestCluster(t, 2)
	const n = 5000
	r, s := spawn(t, c, 1), spawn(t, c, 2)
	release := make(chan struct{})
	var mu sync.Mutex
	var order []int64
	r.BindEntry(EntryUserBase, func(m *Message) {
		i := m.GetInt("i", -1)
		if i == 0 {
			<-release
		}
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
	})
	before := c.Site(1).daemon.Counters().Delivered
	for i := 0; i < n; i++ {
		if _, err := s.Cast(CBCAST, []Address{r.Address()}, EntryUserBase, NewMessage().PutInt("i", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "every cast handed to the blocked process", 10*time.Second, func() bool {
		return c.Site(1).daemon.Counters().Delivered-before >= n
	})
	close(release)
	waitUntil(t, "every cast handled", 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == n
	})
	inversions := 0
	for i := 1; i < n; i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions > 0 {
		t.Errorf("the handler saw its entry's %d casts with %d inversions", n, inversions)
	}
}

// holdAcrossAJoin delivers one message to a group's only member and holds its
// handler while a second process joins, until the member's site has handed the
// member the join's view. The handler then gives the member's monitor up to
// 100 ms to see that view, calls inside, and returns. holdAcrossAJoin returns
// the order in which "handler" (its return) and "monitor" (the 2-member view)
// happened.
func holdAcrossAJoin(t *testing.T, inside func(a *Process, gid Address)) []string {
	t.Helper()
	c := newTestCluster(t, 2)
	a := spawn(t, c, 1)
	v, err := a.CreateGroup("held")
	if err != nil {
		t.Fatal(err)
	}
	gid := v.Group
	var mu sync.Mutex
	var trace []string
	note := func(s string) {
		mu.Lock()
		trace = append(trace, s)
		mu.Unlock()
	}
	saw := make(chan struct{})
	a.Monitor(gid, func(view View) {
		if view.Size() == 2 {
			note("monitor")
			close(saw)
		}
	})
	started, joined := make(chan struct{}), make(chan struct{})
	a.BindEntry(EntryUserBase, func(*Message) {
		close(started)
		<-joined
		select {
		case <-saw:
		case <-time.After(100 * time.Millisecond):
		}
		inside(a, gid)
		note("handler")
	})
	if _, err := a.Cast(CBCAST, []Address{gid}, EntryUserBase, Text("m")); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := spawn(t, c, 2).Join(gid, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the join's view at the member's site", 5*time.Second, func() bool {
		v, ok := c.Site(1).daemon.CurrentView(gid)
		return ok && v.Size() == 2
	})
	close(joined)
	waitUntil(t, "the handler and the monitor", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(trace) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	return trace
}

// TestMonitorOrderedAgainstHandlers: a view installed after a message reaches
// Monitor only after that message's handler has returned.
func TestMonitorOrderedAgainstHandlers(t *testing.T) {
	if trace := holdAcrossAJoin(t, func(*Process, Address) {}); trace[0] != "handler" {
		t.Errorf("the monitor saw the join before the handler of the message delivered ahead of it returned: %v", trace)
	}
}

// TestHandlerSeesTheViewItWasDeliveredIn: a handler held across a join reads
// the view its message was delivered in, not the join's.
func TestHandlerSeesTheViewItWasDeliveredIn(t *testing.T) {
	var size int
	holdAcrossAJoin(t, func(a *Process, gid Address) {
		v, _ := a.CurrentView(gid)
		size = v.Size()
	})
	if size != 1 {
		t.Errorf("the handler of a message delivered in the 1-member view read a %d-member view", size)
	}
}

// TestStateCaptureNotHeldByAReplyWait: the provider's state capture waits for
// the handler before it, and that handler waits for a reply; the reply passes
// the queue, so the capture waits 100 ms, not for the Cast's timeout.
func TestStateCaptureNotHeldByAReplyWait(t *testing.T) {
	c := newTestCluster(t, 3)
	server := spawn(t, c, 3)
	server.BindEntry(EntryUserBase, func(m *Message) {
		time.Sleep(100 * time.Millisecond)
		_ = server.Reply(m, Text("answer"))
	})
	first := spawn(t, c, 1)
	v, err := first.CreateGroup("provider")
	if err != nil {
		t.Fatal(err)
	}
	if err := first.SetStateProvider(v.Group, func() [][]byte { return [][]byte{[]byte("state")} }); err != nil {
		t.Fatal(err)
	}
	asking, queried := make(chan struct{}), make(chan error, 1)
	first.BindEntry(EntryUserBase, func(*Message) {
		close(asking)
		_, err := first.Query(CBCAST, []Address{server.Address()}, EntryUserBase, Text("slow"))
		queried <- err
	})
	if _, err := first.Cast(CBCAST, []Address{v.Group}, EntryUserBase, Text("go")); err != nil {
		t.Fatal(err)
	}
	<-asking
	start := time.Now()
	received := make(chan struct{})
	if _, err := spawn(t, c, 2).Join(v.Group, JoinOptions{StateReceiver: func(_ []byte, last bool) {
		if last {
			close(received)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-received:
	case <-time.After(10 * time.Second):
		t.Fatal("the state transfer never completed")
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("the join with state took %v behind a handler waiting 100 ms for a reply", took)
	}
	if err := <-queried; err != nil {
		t.Errorf("the handler's Query: %v", err)
	}
}

// TestCastInAHandlerNoticesAFailure: a handler's Cast counts the destinations
// that can still answer by the site's view, since the view that removes a
// failed member is queued behind that very handler.
func TestCastInAHandlerNoticesAFailure(t *testing.T) {
	c := newTestCluster(t, 3)
	const ask = EntryUserBase + 1
	h, o := spawn(t, c, 1), spawn(t, c, 2)
	v, err := h.CreateGroup("pair")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Join(v.Group, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	asked := make(chan struct{})
	o.BindEntry(ask, func(*Message) { close(asked) }) // never replies
	h.BindEntry(ask, func(m *Message) { _ = h.Reply(m, Text("here")) })
	type result struct {
		replies []*Message
		err     error
		took    time.Duration
	}
	done := make(chan result, 1)
	h.BindEntry(EntryUserBase, func(*Message) {
		start := time.Now()
		replies, err := h.Cast(CBCAST, []Address{v.Group}, ask, Text("q"), Replies(All))
		done <- result{replies, err, time.Since(start)}
	})
	if _, err := spawn(t, c, 3).Cast(CBCAST, []Address{h.Address()}, EntryUserBase, Text("go")); err != nil {
		t.Fatal(err)
	}
	<-asked
	if err := o.Kill(); err != nil {
		t.Fatal(err)
	}
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the handler's Cast never returned")
	}
	if r.err != nil || len(r.replies) != 1 {
		t.Errorf("the handler's Cast returned %d replies and %v", len(r.replies), r.err)
	}
	if limit := c.cfg.ReplyTimeout / 4; r.took > limit {
		t.Errorf("the handler's Cast took %v to notice the failure, over %v", r.took, limit)
	}
}
