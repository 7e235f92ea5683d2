// Command partition demonstrates the primary-partition rule and partition
// merge, which extend the paper's crash-only fault model: a five-site
// replicated ledger is split 3/2; the majority keeps committing while the
// minority wedges read-only (no split-brain view, writes refused with
// ErrNonPrimary); and when the partition heals the minority members merge
// back automatically — same processes, no restart — rebuilding their state
// from the primary through the ordinary state-transfer machinery.
//
// The whole cycle is traced through the operational event stream
// (Site.Events): the minority site's wedge, primary loss, merge and
// primary resumption are printed as they happen, and the run fails if the
// collected trace is empty or tells the story out of order — the trace is
// an assertion, not just decoration.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	isis "repro"
	"repro/internal/netback"
)

// ledger is the replicated application state: an ordered log of entries.
// Its state receiver replaces the log wholesale on every transfer, which is
// the partition-merge contract — speculative minority state is discarded in
// favour of the primary's.
type ledger struct {
	mu   sync.Mutex
	rows []string
}

func (l *ledger) apply(row string) {
	l.mu.Lock()
	l.rows = append(l.rows, row)
	l.mu.Unlock()
}

func (l *ledger) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.rows...)
}

func (l *ledger) provider() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, len(l.rows))
	for i, r := range l.rows {
		out[i] = []byte(r)
	}
	return out
}

func (l *ledger) receiver() func([]byte, bool) {
	fresh := true
	return func(b []byte, last bool) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if fresh {
			l.rows = nil
			fresh = false
		}
		if len(b) > 0 {
			l.rows = append(l.rows, string(b))
		}
		if last {
			fresh = true
		}
	}
}

func waitFor(what string, pred func() bool) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatalf("timed out waiting for %s", what)
}

func main() {
	cluster, err := isis.NewCluster(isis.ClusterConfig{Sites: 5})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	net := cluster.Fabric().(netback.FaultInjector) // both backends implement it

	// A five-member replicated ledger, one member per site. Every member is
	// both a state provider (it can seed a joiner) and a state receiver (a
	// merge can rebuild it).
	members := make([]*isis.Process, 5)
	ledgers := make([]*ledger, 5)
	var gid isis.Address
	for i := 0; i < 5; i++ {
		p, err := cluster.Site(isis.SiteID(i + 1)).Spawn()
		if err != nil {
			log.Fatal(err)
		}
		l := &ledger{}
		members[i], ledgers[i] = p, l
		p.BindEntry(isis.EntryUserBase, func(m *isis.Message) {
			l.apply(m.GetString("body", ""))
		})
		if i == 0 {
			v, err := p.CreateGroup("bank")
			if err != nil {
				log.Fatal(err)
			}
			gid = v.Group
			if err := p.SetStateReceiver(gid, l.receiver()); err != nil {
				log.Fatal(err)
			}
		} else if _, err := p.JoinByName("bank", isis.JoinOptions{StateReceiver: l.receiver()}); err != nil {
			log.Fatal(err)
		}
		if err := p.SetStateProvider(gid, l.provider); err != nil {
			log.Fatal(err)
		}
	}
	waitFor("full membership", func() bool {
		v, ok := members[0].CurrentView(gid)
		return ok && v.Size() == 5
	})
	fmt.Println("five-member ledger formed; committing w1, w2")
	for _, w := range []string{"w1", "w2"} {
		if _, err := members[0].Cast(isis.ABCAST, []isis.Address{gid}, isis.EntryUserBase, isis.Text(w)); err != nil {
			log.Fatal(err)
		}
	}
	waitFor("pre-partition replication", func() bool {
		return len(ledgers[4].snapshot()) == 2
	})

	// Trace the minority site's view of the partition lifecycle through the
	// operational event stream.
	events, cancelEvents := cluster.Site(5).Events(isis.EventFilter{Group: gid})
	var traceMu sync.Mutex
	var trace []isis.Event
	traceDone := make(chan struct{})
	go func() {
		defer close(traceDone)
		for e := range events {
			traceMu.Lock()
			trace = append(trace, e)
			traceMu.Unlock()
			fmt.Printf("  event: %v\n", e)
		}
	}()

	fmt.Println("\n--- partitioning {1,2,3} | {4,5} ---")
	for _, a := range []isis.SiteID{1, 2, 3} {
		for _, b := range []isis.SiteID{4, 5} {
			net.Partition(a, b)
		}
	}
	waitFor("majority view without the minority", func() bool {
		v, ok := members[0].CurrentView(gid)
		return ok && v.Size() == 3
	})
	waitFor("minority wedged non-primary", func() bool {
		return !members[4].GroupPrimary(gid)
	})
	fmt.Println("majority removed the stranded members and keeps committing: p1, p2")
	for _, w := range []string{"p1", "p2"} {
		if _, err := members[0].Cast(isis.ABCAST, []isis.Address{gid}, isis.EntryUserBase, isis.Text(w)); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := members[4].Cast(isis.CBCAST, []isis.Address{gid}, isis.EntryUserBase, isis.Text("forbidden")); errors.Is(err, isis.ErrNonPrimary) {
		fmt.Println("minority write correctly refused:", err)
	} else {
		log.Fatalf("minority write was not refused (err=%v)", err)
	}
	waitFor("majority commits", func() bool { return len(ledgers[0].snapshot()) == 4 })
	fmt.Printf("majority ledger: %v\n", ledgers[0].snapshot())
	fmt.Printf("minority ledger (stale, read-only): %v\n", ledgers[4].snapshot())

	fmt.Println("\n--- healing the partition ---")
	net.HealAll()
	waitFor("minority merged back", func() bool {
		v, ok := members[0].CurrentView(gid)
		return ok && v.Size() == 5 &&
			v.Contains(members[3].Address()) && v.Contains(members[4].Address()) &&
			members[3].GroupPrimary(gid) && members[4].GroupPrimary(gid)
	})
	waitFor("minority state rebuilt from the primary", func() bool {
		return len(ledgers[3].snapshot()) == 4 && len(ledgers[4].snapshot()) == 4
	})
	fmt.Println("minority merged back without a restart; state rebuilt from the primary")
	fmt.Printf("site 4 ledger after merge: %v\n", ledgers[3].snapshot())
	fmt.Printf("site 5 ledger after merge: %v\n", ledgers[4].snapshot())

	// The merged members carry writes again.
	if _, err := members[4].Cast(isis.ABCAST, []isis.Address{gid}, isis.EntryUserBase, isis.Text("after-merge")); err != nil {
		log.Fatal(err)
	}
	waitFor("post-merge write everywhere", func() bool {
		for _, l := range ledgers {
			if len(l.snapshot()) != 5 {
				return false
			}
		}
		return true
	})
	fmt.Printf("\nfinal ledgers (identical at all five members): %v\n", ledgers[0].snapshot())

	// The event trace must exist and must tell the partition story in order:
	// wedge and primary loss before the merge starts, the merge landing
	// before primaryness resumes. An empty or shuffled trace means the
	// observability layer lies about what the protocols did.
	waitFor("primary-resumed event in the trace", func() bool {
		return eventIndex(snapshotTrace(&traceMu, &trace), isis.EventPrimaryResumed) >= 0
	})
	cancelEvents()
	<-traceDone
	final := snapshotTrace(&traceMu, &trace)
	wedge := eventIndex(final, isis.EventPartitionWedge)
	lost := eventIndex(final, isis.EventPrimaryLost)
	start := eventIndex(final, isis.EventMergeStart)
	land := eventIndex(final, isis.EventMergeLand)
	resumed := eventIndex(final, isis.EventPrimaryResumed)
	if wedge < 0 || lost < 0 || start < 0 || land < 0 || resumed < 0 {
		log.Fatalf("incomplete event trace (wedge=%d lost=%d start=%d land=%d resumed=%d)",
			wedge, lost, start, land, resumed)
	}
	if !(wedge < start && lost < start && start < land && land < resumed) {
		log.Fatalf("incoherent event trace order (wedge=%d lost=%d start=%d land=%d resumed=%d)",
			wedge, lost, start, land, resumed)
	}
	fmt.Printf("event trace coherent: %d events, wedge→merge→resume in order\n", len(final))
}

func snapshotTrace(mu *sync.Mutex, trace *[]isis.Event) []isis.Event {
	mu.Lock()
	defer mu.Unlock()
	return append([]isis.Event(nil), (*trace)...)
}

func eventIndex(evs []isis.Event, k isis.EventKind) int {
	for i, e := range evs {
		if e.Kind == k {
			return i
		}
	}
	return -1
}
