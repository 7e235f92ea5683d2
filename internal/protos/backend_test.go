package protos

// Protos-level backend conformance: one end-to-end group scenario — create,
// join, causal and total-order multicast, site crash with view change, and a
// restart under a bumped incarnation — runs unchanged over the simulated LAN
// and the TCP-loopback wire, proving the protocol stack does not depend on
// simnet-only behaviour.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/netback"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
)

func protosFabrics() []struct {
	name string
	make func() netback.Network
} {
	return []struct {
		name string
		make func() netback.Network
	}{
		{"simnet", func() netback.Network { return simnet.New(simnet.FastConfig()) }},
		{"tcp", func() netback.Network { return tcpnet.New(tcpnet.Config{}) }},
	}
}

func TestBackendGroupScenario(t *testing.T) {
	for _, fc := range protosFabrics() {
		t.Run(fc.name, func(t *testing.T) {
			tc := newTestClusterOn(t, fc.make(), 3)
			procs := buildGroup(t, tc, "conf", 1, 2, 3)
			gid := groupOf(t, tc, procs[0], "conf")

			// Causal multicast reaches every member.
			if _, err := procs[0].d.Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("hello")); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "CBCAST delivery", 5*time.Second, func() bool {
				for _, p := range procs {
					if !p.got("hello") {
						return false
					}
				}
				return true
			})

			// Concurrent ABCASTs from two members arrive in one total order.
			const perSender = 10
			var wg sync.WaitGroup
			for s := 0; s < 2; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					p := procs[s]
					for i := 0; i < perSender; i++ {
						if _, err := p.d.Multicast(p.addr, ABCAST, addr.List{gid}, addr.EntryUserBase, body(fmt.Sprintf("ab-s%d-%d", s, i))); err != nil {
							t.Errorf("abcast s%d-%d: %v", s, i, err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			waitFor(t, "ABCAST delivery", 10*time.Second, func() bool {
				for _, p := range procs {
					if p.numMsgs() < 1+2*perSender {
						return false
					}
				}
				return true
			})
			abOrder := func(p *testProc) []string {
				var out []string
				for _, b := range p.bodies() {
					if len(b) > 3 && b[:3] == "ab-" {
						out = append(out, b)
					}
				}
				return out
			}
			ref := abOrder(procs[0])
			for i := 1; i < 3; i++ {
				got := abOrder(procs[i])
				for j := range ref {
					if got[j] != ref[j] {
						t.Fatalf("total order diverges at %d: member %d saw %v, member 0 saw %v", j, i, got, ref)
					}
				}
			}

			// A process that is no member casts to the group through the
			// coordinator's site.
			client := tc.newProc(2)
			if err := relay(tc, client, gid, "ext-before"); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "relayed CBCAST delivery", 5*time.Second, func() bool {
				return procs[0].got("ext-before") && procs[1].got("ext-before") && procs[2].got("ext-before")
			})

			// Site 3 crashes; the survivors install the 2-member view.
			tc.daemons[3].Close()
			waitFor(t, "crash view", 10*time.Second, func() bool {
				return procs[0].lastView().Size() == 2 && procs[1].lastView().Size() == 2
			})

			// Site 3 restarts under a bumped incarnation — on the TCP backend
			// this is a mid-stream reconnect with an epoch bump: survivors
			// must accept the fresh numbering and refuse stragglers of the
			// dead incarnation — and a new member there rejoins with a state
			// transfer.
			tc.addSite(3)
			reborn := tc.newProc(3)
			gid3, err := tc.daemons[3].Lookup("conf")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tc.daemons[3].Join(reborn.addr, gid3, JoinOptions{}); err != nil {
				t.Fatalf("rejoin after restart: %v", err)
			}
			waitFor(t, "rejoin view", 10*time.Second, func() bool {
				return procs[0].lastView().Size() == 3 && reborn.lastView().Size() == 3
			})

			// The group is fully live again across the restarted wire.
			if _, err := procs[0].d.Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, body("after-restart")); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "post-restart delivery", 5*time.Second, func() bool {
				return procs[0].got("after-restart") && procs[1].got("after-restart") && reborn.got("after-restart")
			})

			// The member that joined after the client's first cast receives its
			// later ones.
			if err := relay(tc, client, gid, "ext-after"); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "relayed CBCAST at the late joiner", 5*time.Second, func() bool {
				return procs[0].got("ext-after") && procs[1].got("ext-after") && reborn.got("ext-after")
			})
		})
	}
}
