package netback_test

// The fault injector is one value, netback.Faults, embedded by both fabrics;
// this table runs its contract through each fabric's own method set, so a
// fabric that shadowed or forgot the embedding would show here. The delivery
// contract (a payload is the receiver's own, capped range) runs on both too.

import (
	"bytes"
	"maps"
	"testing"
	"time"

	"repro/internal/netback"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
)

// injector is what a fabric offers for partition testing.
type injector interface {
	netback.Network
	netback.FaultInjector
	netback.LinkWatcher
	Blocked(a, b netback.SiteID) bool
}

// fabrics opens each in-tree fabric.
var fabrics = map[string]func() injector{
	"simnet": func() injector { return simnet.New(simnet.FastConfig()) },
	"tcp":    func() injector { return tcpnet.New(tcpnet.Config{}) },
}

func TestFaultsOnBothFabrics(t *testing.T) {
	down := func(a, b netback.SiteID) netback.LinkEvent { return netback.LinkEvent{A: a, B: b} }
	up := func(a, b netback.SiteID) netback.LinkEvent { return netback.LinkEvent{A: a, B: b, Up: true} }
	cases := []struct {
		name string
		do   func(f injector)
		want []netback.LinkEvent // in any order: HealAll walks a map
	}{
		{"a transition is reported once, lower site first", func(f injector) {
			f.Partition(2, 1)
			f.Heal(1, 2)
		}, []netback.LinkEvent{down(1, 2), up(1, 2)}},
		{"severing a severed pair is not a transition", func(f injector) {
			f.Partition(1, 2)
			f.Partition(2, 1)
			f.Heal(1, 2)
		}, []netback.LinkEvent{down(1, 2), up(1, 2)}},
		{"healing a healthy link is not a transition", func(f injector) {
			f.Heal(1, 2)
			f.HealAll()
		}, nil},
		{"HealAll gives one Up per severed pair", func(f injector) {
			f.Partition(1, 2)
			f.Partition(3, 1)
			f.HealAll()
		}, []netback.LinkEvent{down(1, 2), down(1, 3), up(1, 2), up(1, 3)}},
	}
	count := func(evs []netback.LinkEvent) map[netback.LinkEvent]int {
		n := make(map[netback.LinkEvent]int)
		for _, ev := range evs {
			n[ev]++
		}
		return n
	}
	for name, open := range fabrics {
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				f := open()
				defer f.Close()
				var got []netback.LinkEvent
				f.WatchLinks(func(ev netback.LinkEvent) { got = append(got, ev) })
				c.do(f)
				if !maps.Equal(count(got), count(c.want)) {
					t.Errorf("events = %v, want %v", got, c.want)
				}
				if f.Blocked(1, 2) || f.Blocked(3, 1) {
					t.Error("a pair the case healed is still blocked")
				}
			})
		}
		t.Run(name+"/blocked is undirected and a cancelled watcher hears nothing", func(t *testing.T) {
			f := open()
			defer f.Close()
			heard := 0
			cancel := f.WatchLinks(func(netback.LinkEvent) { heard++ })
			f.Partition(1, 2)
			if !f.Blocked(1, 2) || !f.Blocked(2, 1) || f.Blocked(1, 3) {
				t.Errorf("Blocked(1,2)=%v Blocked(2,1)=%v Blocked(1,3)=%v after Partition(1,2)",
					f.Blocked(1, 2), f.Blocked(2, 1), f.Blocked(1, 3))
			}
			cancel()
			f.Heal(1, 2)
			if heard != 1 {
				t.Errorf("the watcher heard %d events, want the one before its cancel", heard)
			}
		})
	}
}

// attachPair attaches sites 1 and 2 to a fabric.
func attachPair(t *testing.T, f netback.Network) (a, b netback.Endpoint) {
	t.Helper()
	a, err := f.Attach(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b, err = f.Attach(2, 1); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestDeliveredPayloadsAreDisjointRanges pins what a fabric hands a receiver:
// every payload is a copy of what was sent, made before Send returned, and a
// range of its own whose capacity ends at its length, so writing one reaches
// no other. Packets of up to a quarter of MaxPacket share backing arrays, so
// the sizes run from 1 byte to there, then one of MaxPacket; each goes to the
// other site and to the sender's own.
func TestDeliveredPayloadsAreDisjointRanges(t *testing.T) {
	for name, open := range fabrics {
		t.Run(name, func(t *testing.T) {
			f := open()
			defer f.Close()
			a, b := attachPair(t, f)
			maxPacket := f.Profile().MaxPacket
			var want [][]byte // packet i is byte(i), repeated
			for i := 0; i < 200; i++ {
				want = append(want, bytes.Repeat([]byte{byte(i)}, 1+i*(maxPacket/4-1)/199))
			}
			want = append(want, bytes.Repeat([]byte{200}, maxPacket))
			buf := make([]byte, maxPacket) // the sender reuses one buffer
			for _, w := range want {
				for _, to := range []netback.SiteID{2, 1} {
					copy(buf, w)
					if err := a.Send(to, buf[:len(w)]); err != nil {
						t.Fatal(err)
					}
					copy(buf, bytes.Repeat([]byte{0xEE}, len(w)))
				}
			}
			var got [][]byte
			timeout := time.After(10 * time.Second)
			for _, ep := range []netback.Endpoint{b, a} {
				for i, w := range want {
					select {
					case p := <-ep.Recv():
						if !bytes.Equal(p.Payload, w) || cap(p.Payload) != len(p.Payload) {
							t.Fatalf("site %d: packet %d has %d bytes (cap %d), want %d of %d",
								ep.Site(), i, len(p.Payload), cap(p.Payload), len(w), w[0])
						}
						got = append(got, p.Payload)
					case <-timeout:
						t.Fatalf("site %d received %d of %d packets", ep.Site(), i, len(want))
					}
				}
			}
			for k, p := range got {
				for i := range p {
					p[i] = ^p[i]
				}
				for j, q := range got {
					if w := want[j%len(want)]; j != k && !bytes.Equal(q, w) {
						t.Fatalf("writing payload %d changed payload %d", k, j)
					}
				}
				copy(p, want[k%len(want)])
			}
		})
	}
}
