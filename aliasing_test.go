package isis

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

// The ownership rules of the allocation-lean data path (ARCHITECTURE.md,
// "Message ownership and copies"): Cast keeps one stripped clone and the
// caller keeps its message; every delivery has a field table of its own over
// values that are shared and immutable. So no mutation — by the caller after
// Cast returns, or by a handler of what it was handed — may show through to
// another member, to the wire, or to a reply.

// userFields renders the application's fields of a delivery, contents
// included, leaving out the system fields the toolkit adds (which differ per
// delivery).
func userFields(m *Message) string {
	c := m.CloneStripped(0)
	enc, _ := c.Marshal()
	return fmt.Sprintf("%s %q", c.Format(), enc)
}

// scribble mutates a message every way the API allows, starting with writes
// through the slices GetBytes hands out (which the caller owns).
func scribble(m *Message) {
	if sub := m.GetMessage("sub"); sub != nil {
		copy(sub.GetBytes("p"), "XXXXXX")
	}
	copy(m.GetBytes("p"), "XXXXXXXXXXXXXXXX")
	m.PutBytes("p", []byte("overwritten by a handler"))
	m.PutString("s", "changed")
	m.PutInt("n", -1)
	m.PutAddressList("l", nil)
	m.Delete("keep")
	m.PutInt("added", 1)
	if sub := m.GetMessage("sub"); sub != nil {
		sub.PutBytes("p", []byte("nested overwritten")).PutInt("added", 1)
	}
}

func aliasingMessage(to Address) *Message {
	return NewMessage().
		PutBytes("p", []byte("original payload")).
		PutString("s", "text").
		PutInt("n", 7).
		PutInt("keep", 1).
		PutAddressList("l", []Address{to}).
		PutMessage("sub", NewMessage().PutBytes("p", []byte("nested")))
}

func TestDeliveriesShareNothingMutable(t *testing.T) {
	for _, proto := range []Protocol{CBCAST, ABCAST, GBCAST} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newTestCluster(t, 2)
			// The sender and one more member at site 1, two members at site
			// 2: local and remote deliveries, and two deliveries built from
			// one decoded packet.
			sites := []SiteID{1, 1, 2, 2}
			procs := make([]*Process, len(sites))
			var mu sync.Mutex
			got := make([]string, len(sites)) // what each member saw on entry
			after := make([]*Message, len(sites))
			scribbled := make(chan struct{})
			var gid Address
			for i, s := range sites {
				i, p := i, spawn(t, c, s)
				procs[i] = p
				p.BindEntry(EntryUserBase, func(m *Message) {
					var seen string
					if i == 2 {
						// The first member at site 2 mutates at once...
						seen = userFields(m)
						scribble(m)
						close(scribbled)
					} else {
						// ...and everybody else looks only afterwards.
						<-scribbled
						seen = userFields(m)
					}
					// In one hold: the wait below reads after[i] once got[i] is set.
					mu.Lock()
					got[i], after[i] = seen, m
					mu.Unlock()
				})
				if i == 0 {
					v, err := p.CreateGroup("alias")
					if err != nil {
						t.Fatal(err)
					}
					gid = v.Group
				} else if _, err := p.Join(gid, JoinOptions{}); err != nil {
					t.Fatal(err)
				}
			}

			m := aliasingMessage(procs[0].Address())
			want := userFields(m)
			if _, err := procs[0].Cast(proto, []Address{gid}, EntryUserBase, m); err != nil {
				t.Fatal(err)
			}
			scribble(m) // the caller's message is the caller's again

			waitUntil(t, "every member delivered", 5*time.Second, func() bool {
				mu.Lock()
				defer mu.Unlock()
				for _, g := range got {
					if g == "" {
						return false
					}
				}
				return true
			})
			mu.Lock()
			defer mu.Unlock()
			for i, g := range got {
				if g != want {
					t.Errorf("member %d saw %s\nwant %s", i, g, want)
				}
			}
			// The untouched deliveries stay untouched for good.
			for _, i := range []int{0, 1, 3} {
				if g := userFields(after[i]); g != want {
					t.Errorf("member %d's message changed after delivery: %s", i, g)
				}
			}
		})
	}
}

// lossyPair is the fixture of the two tests below: a sender at site 1 and a
// member at site 2 of one group, heartbeats off (so a cut link is not taken
// for a crash), and the largest packet the network dropped and delivered from
// site 1 to site 2 remembered. onSender and onRemote see the deliveries.
type lossyPair struct {
	net    *simnet.Network
	sender *Process
	gid    Address

	mu   sync.Mutex
	size map[simnet.EventKind]int // the largest 1→2 packet, by what became of it
}

func (l *lossyPair) Trace(e simnet.Event) {
	if e.From == 1 && e.To == 2 {
		l.mu.Lock()
		l.size[e.Kind] = max(l.size[e.Kind], e.Size)
		l.mu.Unlock()
	}
}

// largest returns the size of the largest 1→2 packet that met the given fate
// (simnet.EventDrop: lost to the cut; simnet.EventDeliver: arrived), 0 if none.
func (l *lossyPair) largest(fate simnet.EventKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size[fate]
}

func newLossyPair(t *testing.T, onSender, onRemote func(*Message)) *lossyPair {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Sites: 2, CallTimeout: 2 * time.Second, DisableHeartbeats: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	l := &lossyPair{net: c.Fabric().(*simnet.Network), sender: spawn(t, c, 1), size: make(map[simnet.EventKind]int)}
	l.sender.BindEntry(EntryUserBase, onSender)
	v, err := l.sender.CreateGroup("alias-frames")
	if err != nil {
		t.Fatal(err)
	}
	l.gid = v.Group
	remote := spawn(t, c, 2)
	remote.BindEntry(EntryUserBase, onRemote)
	if _, err := remote.Join(l.gid, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	l.net.SetTracer(l)
	return l
}

// Two casts that arrive in one frame are decoded out of one buffer, which
// both deliveries then refer to: scribbling on the first, before the second
// is so much as looked at, must not show in the second. The frame is shared
// for certain: both casts are first sent into a cut link, and the link heals
// only once a retransmission sweep has been seen to resend them as one packet
// (records resent together stay together).
func TestDeliveriesFromOneFrameShareNothingMutable(t *testing.T) {
	var mu sync.Mutex
	var got []string
	l := newLossyPair(t, func(*Message) {}, func(m *Message) {
		seen := userFields(m)
		scribble(m)
		mu.Lock()
		got = append(got, seen)
		mu.Unlock()
	})
	casts := []*Message{aliasingMessage(l.sender.Address()), aliasingMessage(l.gid)}
	var want []string
	l.net.Partition(1, 2)
	for _, m := range casts {
		m.PutBytes("pad", make([]byte, 1000)) // two to a frame, and a frame of two tells itself apart
		want = append(want, userFields(m))
		if _, err := l.sender.Cast(CBCAST, []Address{l.gid}, EntryUserBase, m); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "a sweep to resend both casts as one packet", 5*time.Second, func() bool { return l.largest(simnet.EventDrop) > 2000 })
	l.net.Heal(1, 2)
	waitUntil(t, "both deliveries", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	if n := l.largest(simnet.EventDeliver); n < 2000 {
		t.Fatalf("the casts did not arrive in one frame (largest packet delivered: %d bytes)", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delivery %d saw %s\nwant %s", i, got[i], want[i])
		}
	}
}

// The send window refers to the one encoding of a cast until the far site
// acknowledges it, and a retransmission reads those bytes again. By then the
// caller has its message back and the sender's own delivery — built from the
// same payload — has been through a handler: neither's scribbling may reach
// what the retransmission carries.
func TestScribblingDoesNotReachARetransmission(t *testing.T) {
	local, remote := make(chan struct{}), make(chan string, 1)
	l := newLossyPair(t,
		func(m *Message) { scribble(m); close(local) },
		func(m *Message) { remote <- userFields(m) })
	m := aliasingMessage(l.sender.Address())
	want := userFields(m)
	l.net.Partition(1, 2)
	if _, err := l.sender.Cast(CBCAST, []Address{l.gid}, EntryUserBase, m); err != nil {
		t.Fatal(err)
	}
	scribble(m)
	<-local
	waitUntil(t, "the first transmission to be lost", 5*time.Second, func() bool { return l.largest(simnet.EventDrop) > 0 })
	l.net.Heal(1, 2)
	select {
	case got := <-remote:
		if got != want {
			t.Errorf("the retransmission delivered %s\nwant %s", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cast never arrived")
	}
}

// A reply belongs to the replier again once Reply returns, and each caller
// owns the replies it collected.
func TestRepliesShareNothingMutable(t *testing.T) {
	c := newTestCluster(t, 2)
	var gid Address
	for i, s := range []SiteID{1, 2, 2} {
		p := spawn(t, c, s)
		p.BindEntry(EntryUserBase, func(req *Message) {
			reply := aliasingMessage(p.Address())
			if err := p.Reply(req, reply); err != nil {
				t.Error(err)
			}
			scribble(reply)
			scribble(req)
		})
		if i == 0 {
			v, err := p.CreateGroup("alias-replies")
			if err != nil {
				t.Fatal(err)
			}
			gid = v.Group
		} else if _, err := p.Join(gid, JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	client := spawn(t, c, 1)
	replies, err := client.Cast(ABCAST, []Address{gid}, EntryUserBase, Text("q"), Replies(All))
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 {
		t.Fatalf("%d replies, want 3", len(replies))
	}
	for i, r := range replies {
		want := userFields(aliasingMessage(r.Sender()))
		if g := userFields(r); g != want {
			t.Errorf("reply %d = %s\nwant %s", i, g, want)
		}
	}
	scribble(replies[0])
	for i, r := range replies[1:] {
		if g, want := userFields(r), userFields(aliasingMessage(r.Sender())); g != want {
			t.Errorf("reply %d changed when another was mutated: %s", i+1, g)
		}
	}
}
