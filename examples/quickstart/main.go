// Command quickstart is the smallest complete ISIS program: it builds a
// simulated three-site cluster, forms a process group, and demonstrates the
// three multicast primitives (CBCAST, ABCAST, GBCAST), ranked membership
// views, and group RPC with reply collection.
package main

import (
	"fmt"
	"log"
	"maps"
	"sort"
	"sync"
	"time"

	isis "repro"
)

func main() {
	// A cluster of three sites on a simulated LAN with no artificial
	// delays (use isis.PaperNetConfig() to reproduce the 1987 testbed).
	cluster, err := isis.NewCluster(isis.ClusterConfig{Sites: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// One member process per site. Each member records what it receives
	// and answers queries with its rank.
	type member struct {
		proc *isis.Process
		mu   sync.Mutex
		log  []string
	}
	members := make([]*member, 3)
	var gid isis.Address
	for i := 0; i < 3; i++ {
		p, err := cluster.Site(isis.SiteID(i + 1)).Spawn()
		if err != nil {
			log.Fatal(err)
		}
		m := &member{proc: p}
		members[i] = m
		p.BindEntry(isis.EntryUserBase, func(msg *isis.Message) {
			m.mu.Lock()
			m.log = append(m.log, msg.GetString("body", ""))
			m.mu.Unlock()
			if msg.Has("@session") { // the caller asked for replies
				view, _ := p.CurrentView(gid)
				_ = p.Reply(msg, isis.NewMessage().
					PutInt("rank", int64(view.RankOf(p.Address()))).
					PutString("body", "ack"))
			}
		})
		if i == 0 {
			v, err := p.CreateGroup("demo")
			if err != nil {
				log.Fatal(err)
			}
			gid = v.Group
			fmt.Printf("created group %v with view %v\n", gid, v)
		} else {
			v, err := p.JoinByName("demo", isis.JoinOptions{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("member %d joined; first view %v\n", i, v)
		}
	}

	// Every member sees the same ranked view.
	view, _ := members[0].proc.CurrentView(gid)
	fmt.Printf("final membership (ranked by age): %v\n", view)

	// Asynchronous CBCAST: the sender continues immediately.
	if _, err := members[0].proc.Cast(isis.CBCAST, []isis.Address{gid},
		isis.EntryUserBase, isis.Text("causal broadcast")); err != nil {
		log.Fatal(err)
	}

	// ABCAST from two members concurrently: delivered in the same order
	// everywhere.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = members[i].proc.Cast(isis.ABCAST, []isis.Address{gid},
				isis.EntryUserBase, isis.Text(fmt.Sprintf("total order from member %d", i)))
		}(i)
	}
	wg.Wait()

	// GBCAST: ordered relative to everything (used here as a marker).
	if _, err := members[0].proc.Cast(isis.GBCAST, []isis.Address{gid},
		isis.EntryUserBase, isis.Text("globally ordered marker")); err != nil {
		log.Fatal(err)
	}

	// A client (not a member) performs a group RPC and waits for ALL
	// replies; it learns each member's rank without knowing the membership.
	client, err := cluster.Site(2).Spawn()
	if err != nil {
		log.Fatal(err)
	}
	replies, err := client.Cast(isis.CBCAST, []isis.Address{gid},
		isis.EntryUserBase, isis.Text("who is out there?"), isis.Replies(isis.All))
	if err != nil {
		log.Fatal(err)
	}
	ranks := make([]int, 0, len(replies))
	for _, r := range replies {
		ranks = append(ranks, int(r.GetInt("rank", -1)))
	}
	sort.Ints(ranks)
	fmt.Printf("group RPC collected %d replies from ranks %v\n", len(replies), ranks)

	// Show that every member delivered the same messages in the same
	// relative order for the ordered primitives.
	time.Sleep(200 * time.Millisecond)
	for i, m := range members {
		m.mu.Lock()
		fmt.Printf("member %d delivery log: %v\n", i, m.log)
		m.mu.Unlock()
	}

	// The GBCAST marker is ordered with respect to every other broadcast:
	// the set of messages delivered before it must be identical at every
	// member. This is a pinned invariant, not a demo — while the group is
	// wedged the holder numbers no ABCAST, and the flush delivers at every
	// member what any member delivered before it, so a concurrent ABCAST can
	// never land on different sides of the marker at different sites (CI
	// runs this program and fails on a violation).
	const marker = "globally ordered marker"
	markerAt := func(m *member) int {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, b := range m.log {
			if b == marker {
				return i
			}
		}
		return -1
	}
	// Wait for the marker itself first, so a slow delivery reads as the
	// timeout it is, not as an ordering violation.
	deadline := time.Now().Add(5 * time.Second)
	for _, m := range members {
		for markerAt(m) < 0 {
			if time.Now().After(deadline) {
				log.Fatalf("marker not delivered at every member within 5s (a liveness problem, not an ordering violation)")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var ref map[string]bool
	for i, m := range members {
		m.mu.Lock()
		before := make(map[string]bool)
		for _, b := range m.log {
			if b == marker {
				break
			}
			before[b] = true
		}
		m.mu.Unlock()
		if i == 0 {
			ref = before
		} else if !maps.Equal(before, ref) {
			log.Fatalf("marker invariant violated: member %d delivered %v before the marker, member 0 delivered %v", i, before, ref)
		}
	}
	fmt.Println("marker invariant holds: every member delivered the same messages before the GBCAST marker")
	fmt.Printf("cluster protocol counters: %+v\n", cluster.Counters())
}
