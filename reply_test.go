package isis

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"
)

// The reply path, pinned from outside on both backends: a reply is one
// asynchronous message per responder, delivered on the caller's process queue
// and matched to the waiting Cast by session; whatever has nobody waiting for
// it any more is dropped without an error at either end.

// replyGroup forms a group with one member per site of a three-site cluster.
// Every member answers a request at EntryUserBase through answer, which gets
// the member's index.
func replyGroup(t *testing.T, c *Cluster, name string, answer func(i int, p *Process, m *Message)) ([]*Process, Address) {
	t.Helper()
	members := make([]*Process, 3)
	var gid Address
	for i := range members {
		i, p := i, spawn(t, c, SiteID(i+1))
		members[i] = p
		p.BindEntry(EntryUserBase, func(m *Message) { answer(i, p, m) })
		if i == 0 {
			v, err := p.CreateGroup(name)
			if err != nil {
				t.Fatal(err)
			}
			gid = v.Group
		} else if _, err := p.Join(gid, JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the full membership at the creator", 5*time.Second, func() bool {
		v, ok := members[0].CurrentView(gid)
		return ok && v.Size() == 3
	})
	return members, gid
}

func TestReplyPath(t *testing.T) {
	for _, backend := range []string{BackendSimnet, BackendTCP} {
		t.Run(backend, func(t *testing.T) {
			c := newBackendCluster(t, backend, 3)
			t.Run("all replies carry sender, session and protocol", func(t *testing.T) { repliesFromThreeSites(t, c) })
			t.Run("null and duplicate replies", func(t *testing.T) { nullAndDuplicateReplies(t, c) })
			t.Run("late reply to a finished cast", func(t *testing.T) { lateReplyIsDropped(t, c) })
			t.Run("reply to a killed caller", func(t *testing.T) { replyToKilledCaller(t, c) })
			t.Run("10 KB reply", func(t *testing.T) { largeReplyArrivesIntact(t, c) })
		})
	}
}

// repliesFromThreeSites: the caller sits at site 1, so one reply is handed
// over inside its daemon and two arrive as packets; all three look the same.
func repliesFromThreeSites(t *testing.T, c *Cluster) {
	members, gid := replyGroup(t, c, "reply-all", func(i int, p *Process, m *Message) {
		_ = p.Reply(m, NewMessage().PutInt("from", int64(i)).PutInt("echo", m.GetInt("n", 0)))
	})
	client := spawn(t, c, 1)
	for round := int64(1); round <= 2; round++ {
		replies, err := client.Cast(ABCAST, []Address{gid}, EntryUserBase, NewMessage().PutInt("n", 40+round), Replies(All))
		if err != nil || len(replies) != 3 {
			t.Fatalf("round %d: %d replies, err %v; want 3", round, len(replies), err)
		}
		var senders []Address
		for _, r := range replies {
			senders = append(senders, r.Sender())
			if want := members[r.GetInt("from", -1)].Address(); r.Sender() != want {
				t.Errorf("reply of member %d has sender %v, want %v", r.GetInt("from", -1), r.Sender(), want)
			}
			if r.Session() != round || r.GetInt("@protocol", 0) != int64(CBCAST) || r.GetInt("@reply", 0) != 1 {
				t.Errorf("round %d reply reads session %d, protocol %d, reply kind %d; want %d, %d, 1",
					round, r.Session(), r.GetInt("@protocol", 0), r.GetInt("@reply", 0), round, CBCAST)
			}
			if r.Has("@group") || r.Has("@viewid") || r.GetInt("echo", 0) != 40+round {
				t.Errorf("round %d reply carries %s", round, r.Format())
			}
		}
		slices.SortFunc(senders, Address.Compare)
		if len(slices.Compact(senders)) != 3 {
			t.Errorf("round %d: replies from %v, want three different members", round, senders)
		}
	}
}

// nullAndDuplicateReplies: member 1 declines, member 2 answers twice. The
// caller gets two replies, one per answering member, and is not kept waiting.
func nullAndDuplicateReplies(t *testing.T, c *Cluster) {
	var errsMu sync.Mutex
	var errs []error
	_, gid := replyGroup(t, c, "reply-null-dup", func(i int, p *Process, m *Message) {
		var err error
		switch i {
		case 1:
			err = p.NullReply(m)
		case 2:
			err = p.Reply(m, Text("first"))
			if err == nil {
				err = p.Reply(m, Text("second"))
			}
		default:
			err = p.Reply(m, Text("only"))
		}
		if err != nil {
			errsMu.Lock()
			errs = append(errs, err)
			errsMu.Unlock()
		}
	})
	client := spawn(t, c, 1)
	replies, err := client.Cast(CBCAST, []Address{gid}, EntryUserBase, Text("q"), Replies(All), CastTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var bodies []string
	for _, r := range replies {
		bodies = append(bodies, r.GetString("body", ""))
	}
	slices.Sort(bodies)
	if !slices.Equal(bodies, []string{"first", "only"}) {
		t.Errorf("replies = %v, want [first only]: a null reply is not returned, a second reply is dropped", bodies)
	}
	errsMu.Lock()
	defer errsMu.Unlock()
	if len(errs) != 0 {
		t.Errorf("a responder saw %v; surplus replies are dropped silently", errs)
	}
}

// lateReplyIsDropped: the Cast returns on its first reply while the other
// members are held back; their replies then arrive for a session nobody waits
// on, raise no error, and do not leak into the caller's next Cast.
func lateReplyIsDropped(t *testing.T, c *Cluster) {
	release := make(chan struct{})
	late := make(chan error, 2)
	_, gid := replyGroup(t, c, "reply-late", func(i int, p *Process, m *Message) {
		body := m.GetString("body", "")
		if i != 0 && body == "one" {
			<-release
			late <- p.Reply(m, Text("late:"+body))
			return
		}
		_ = p.Reply(m, Text("re:"+body))
	})
	client := spawn(t, c, 1)
	first, err := client.Cast(CBCAST, []Address{gid}, EntryUserBase, Text("one"), Replies(1))
	if err != nil || len(first) != 1 || first[0].GetString("body", "") != "re:one" {
		t.Fatalf("first cast: %v, err %v", first, err)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-late; err != nil {
			t.Errorf("a reply to a cast that already returned failed: %v", err)
		}
	}
	second, err := client.Cast(CBCAST, []Address{gid}, EntryUserBase, Text("two"), Replies(All))
	if err != nil || len(second) != 3 {
		t.Fatalf("second cast: %d replies, err %v; want 3", len(second), err)
	}
	for _, r := range second {
		if r.GetString("body", "") != "re:two" || r.Session() != 2 {
			t.Errorf("second cast collected %s", r.Format())
		}
	}
}

// replyToKilledCaller: a caller at site 1, then one at site 3, dies while the
// members hold their answers, so each is dropped once inside the caller's own
// daemon and twice off the wire. The replies go nowhere, nobody is told, and the
// members answer the next caller as before.
func replyToKilledCaller(t *testing.T, c *Cluster) {
	holding, release, results := make(chan struct{}, 3), make(chan struct{}, 3), make(chan error, 3)
	_, gid := replyGroup(t, c, "reply-dead", func(i int, p *Process, m *Message) {
		if m.GetString("body", "") == "doomed" {
			holding <- struct{}{}
			<-release
			results <- p.Reply(m, Text("too late"))
			return
		}
		_ = p.Reply(m, Text("alive"))
	})
	await := func(what string, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	for _, site := range []SiteID{1, 3} {
		doomed := spawn(t, c, site)
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			_, _ = doomed.Cast(CBCAST, []Address{gid}, EntryUserBase, Text("doomed"), Replies(All), CastTimeout(300*time.Millisecond))
		}()
		for i := 0; i < 3; i++ {
			await("the request at every member", holding)
		}
		if err := doomed.Kill(); err != nil {
			t.Fatal(err)
		}
		await("the killed caller's Cast to give up", returned)
		for i := 0; i < 3; i++ {
			release <- struct{}{}
		}
		for i := 0; i < 3; i++ {
			select {
			case err := <-results:
				if err != nil {
					t.Errorf("a reply to the killed caller of site %d failed: %v", site, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("only %d of 3 held replies were sent", i)
			}
		}
	}
	replies, err := spawn(t, c, 2).Cast(CBCAST, []Address{gid}, EntryUserBase, Text("next"), Replies(All))
	if err != nil || len(replies) != 3 {
		t.Errorf("after the dropped replies: %d replies, err %v; want 3", len(replies), err)
	}
}

// largeReplyArrivesIntact: a reply larger than any frame, which the transport
// fragments, from a member at another site.
func largeReplyArrivesIntact(t *testing.T, c *Cluster) {
	big := make([]byte, 10<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	server := spawn(t, c, 2)
	server.BindEntry(EntryUserBase, func(m *Message) { _ = server.Reply(m, NewMessage().PutBytes("big", big).PutString("s", "tail")) })
	reply, err := spawn(t, c, 1).Query(CBCAST, []Address{server.Address()}, EntryUserBase, Text("send it"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply.GetBytes("big"), big) || reply.GetString("s", "") != "tail" || reply.Sender() != server.Address() {
		t.Errorf("10 KB reply arrived as %d bytes, s=%q, from %v", len(reply.GetBytes("big")), reply.GetString("s", ""), reply.Sender())
	}
}
