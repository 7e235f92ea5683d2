package isis

import (
	"fmt"
	"sync"
	"testing"
	"time"
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
	c := m.Clone()
	c.StripSystemFields()
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
					if i == 2 {
						// The first member at site 2 mutates at once...
						mu.Lock()
						got[i] = userFields(m)
						mu.Unlock()
						scribble(m)
						close(scribbled)
					} else {
						// ...and everybody else looks only afterwards.
						<-scribbled
						mu.Lock()
						got[i] = userFields(m)
						mu.Unlock()
					}
					mu.Lock()
					after[i] = m
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
