package netback_test

// The fault injector is one value, netback.Faults, embedded by both fabrics;
// this table runs its contract through each fabric's own method set, so a
// fabric that shadowed or forgot the embedding would show here.

import (
	"maps"
	"testing"

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
	fabrics := map[string]func() injector{
		"simnet": func() injector { return simnet.New(simnet.FastConfig()) },
		"tcp":    func() injector { return tcpnet.New(tcpnet.Config{}) },
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
