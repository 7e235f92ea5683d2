package isis

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/netback"
)

// ledger is the replicated application state used by the partition tests:
// an ordered log of applied entries, transferable as one block per row. Its
// receiver replaces the log wholesale on every transfer, which is the
// partition-merge contract — the minority's speculative state is discarded
// in favour of the primary's.
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

func (l *ledger) provider() func() [][]byte {
	return func() [][]byte {
		l.mu.Lock()
		defer l.mu.Unlock()
		out := make([][]byte, len(l.rows))
		for i, r := range l.rows {
			out[i] = []byte(r)
		}
		return out
	}
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

// TestPrimaryPartitionMajorityCommitsMinorityMerges is the flagship
// partition scenario: a 5-site replicated ledger partitioned 3/2. The
// majority side must keep committing; the minority must wedge read-only
// (rejecting writes with ErrNonPrimary) instead of forming a split-brain
// view; and after Heal the minority members must merge back — same
// processes, no RestartSite — with their state rebuilt from the primary.
func TestPrimaryPartitionMajorityCommitsMinorityMerges(t *testing.T) {
	c := newTestCluster(t, 5)
	net := c.Fabric().(netback.FaultInjector)

	members := make([]*Process, 5)
	ledgers := make([]*ledger, 5)
	var gid Address
	for i := 0; i < 5; i++ {
		p := spawn(t, c, SiteID(i+1))
		l := &ledger{}
		members[i], ledgers[i] = p, l
		p.BindEntry(EntryUserBase, func(m *Message) {
			l.apply(m.GetString("body", ""))
		})
		if i == 0 {
			v, err := p.CreateGroup("bank")
			if err != nil {
				t.Fatal(err)
			}
			gid = v.Group
			if err := p.SetStateReceiver(gid, l.receiver()); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := p.JoinByName("bank", JoinOptions{StateReceiver: l.receiver()}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.SetStateProvider(gid, l.provider()); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "full five-member view", 5*time.Second, func() bool {
		v, ok := members[0].CurrentView(gid)
		return ok && v.Size() == 5
	})

	// Pre-partition traffic reaches everybody.
	for _, w := range []string{"w1", "w2"} {
		if _, err := members[0].Cast(ABCAST, []Address{gid}, EntryUserBase, Text(w)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "pre-partition writes applied everywhere", 5*time.Second, func() bool {
		for _, l := range ledgers {
			if !slices.Equal(l.snapshot(), []string{"w1", "w2"}) {
				return false
			}
		}
		return true
	})

	// Partition sites {1,2,3} from {4,5}.
	for _, a := range []SiteID{1, 2, 3} {
		for _, b := range []SiteID{4, 5} {
			net.Partition(a, b)
		}
	}

	// The majority removes the stranded members and keeps committing.
	waitUntil(t, "majority view without the minority", 10*time.Second, func() bool {
		v, ok := members[0].CurrentView(gid)
		return ok && v.Size() == 3
	})
	// The minority wedges read-only: no split-brain view, writes refused.
	waitUntil(t, "minority wedged non-primary", 10*time.Second, func() bool {
		return !members[3].GroupPrimary(gid) && !members[4].GroupPrimary(gid)
	})
	if _, err := members[3].Cast(CBCAST, []Address{gid}, EntryUserBase, Text("forbidden")); !errors.Is(err, ErrNonPrimary) {
		t.Errorf("minority write err = %v, want ErrNonPrimary", err)
	}
	// A synchronous GBCAST from the other minority site routes to the
	// minority's acting coordinator over the wire; the refusal must come
	// back as the ErrNonPrimary sentinel, not opaque text. Wait for site
	// 5's own suspicions to settle first: before that, the request would be
	// routed toward the unreachable primary coordinator instead, and a
	// request stuck behind a partition can still commit there after the
	// heal (the usual timeout ambiguity — committed in the primary, so not
	// split-brain, but not the refusal this assertion is about).
	waitUntil(t, "site 5 suspects the majority", 10*time.Second, func() bool {
		return len(c.Site(5).Daemon().SuspectedSites()) >= 3
	})
	if _, err := members[4].Cast(GBCAST, []Address{gid}, EntryUserBase, Text("gb-forbidden")); !errors.Is(err, ErrNonPrimary) {
		t.Errorf("minority GBCAST err = %v, want ErrNonPrimary", err)
	}
	if v, ok := members[4].CurrentView(gid); !ok || v.Size() != 5 {
		t.Errorf("minority installed a split-brain view: %v", v)
	}
	for _, w := range []string{"p1", "p2", "p3"} {
		if _, err := members[0].Cast(ABCAST, []Address{gid}, EntryUserBase, Text(w)); err != nil {
			t.Fatalf("majority write during partition: %v", err)
		}
	}
	majority := []string{"w1", "w2", "p1", "p2", "p3"}
	waitUntil(t, "majority-side commits during the partition", 10*time.Second, func() bool {
		for i := 0; i < 3; i++ {
			if !slices.Equal(ledgers[i].snapshot(), majority) {
				return false
			}
		}
		return true
	})

	// Heal: the minority merges back automatically — no RestartSite — and
	// rebuilds its ledger from the primary via the state transfer.
	net.HealAll()
	waitUntil(t, "minority merged back after the heal", 20*time.Second, func() bool {
		v, ok := members[0].CurrentView(gid)
		if !ok || v.Size() != 5 || !v.Contains(members[3].Address()) || !v.Contains(members[4].Address()) {
			return false
		}
		return members[3].GroupPrimary(gid) && members[4].GroupPrimary(gid)
	})
	okLedgers := func() bool {
		return slices.Equal(ledgers[3].snapshot(), majority) && slices.Equal(ledgers[4].snapshot(), majority)
	}
	dl := time.Now().Add(10 * time.Second)
	for time.Now().Before(dl) && !okLedgers() {
		time.Sleep(2 * time.Millisecond)
	}
	if !okLedgers() {
		t.Fatalf("minority ledgers not rebuilt: l4=%v l5=%v want %v", ledgers[3].snapshot(), ledgers[4].snapshot(), majority)
	}

	// The merged members carry writes again, everywhere.
	if _, err := members[4].Cast(ABCAST, []Address{gid}, EntryUserBase, Text("after")); err != nil {
		t.Fatalf("write from a merged member: %v", err)
	}
	final := append(append([]string(nil), majority...), "after")
	waitUntil(t, "post-merge write applied at every member", 10*time.Second, func() bool {
		for i := range ledgers {
			if !slices.Equal(ledgers[i].snapshot(), final) {
				return false
			}
		}
		return true
	})
	for i, p := range members {
		if !p.Alive() {
			t.Errorf("member %d not alive after the merge", i)
		}
	}
}

// TestStateTransferProviderFailover kills the state-transfer provider (the
// group's oldest member) after the join view committed but before it shipped
// its state blocks. The joiner must not wait forever: the takeover view
// change makes the new oldest member re-run the transfer, and the joiner
// assembles its state from the successor alone.
func TestStateTransferProviderFailover(t *testing.T) {
	c := newTestCluster(t, 3)

	first := spawn(t, c, 1)
	v, err := first.CreateGroup("vault")
	if err != nil {
		t.Fatal(err)
	}
	// The original provider stalls mid-capture and its site dies before any
	// block reaches the wire.
	if err := first.SetStateProvider(v.Group, func() [][]byte {
		time.Sleep(500 * time.Millisecond)
		return [][]byte{[]byte("stale")}
	}); err != nil {
		t.Fatal(err)
	}
	second := spawn(t, c, 2)
	if _, err := second.JoinByName("vault", JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := second.SetStateProvider(v.Group, func() [][]byte {
		return [][]byte{[]byte("row-a"), []byte("row-b")}
	}); err != nil {
		t.Fatal(err)
	}

	third := spawn(t, c, 3)
	var mu sync.Mutex
	var rows []string
	var bodies []string
	done := false
	third.BindEntry(EntryUserBase, func(m *Message) {
		mu.Lock()
		bodies = append(bodies, m.GetString("body", ""))
		mu.Unlock()
	})
	if _, err := third.JoinByName("vault", JoinOptions{
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

	// The join view has committed; the provider is asleep in its capture.
	// Crash its site: the survivors' takeover must re-trigger the transfer
	// from the new oldest member.
	if err := c.CrashSite(1); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "state transfer completed by the fail-over provider", 15*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return done
	})
	mu.Lock()
	if fmt.Sprint(rows) != "[row-a row-b]" {
		t.Errorf("transferred rows = %v, want [row-a row-b] from the successor", rows)
	}
	mu.Unlock()

	// The joiner's held deliveries drain and new traffic flows.
	if _, err := second.Cast(CBCAST, []Address{v.Group}, EntryUserBase, Text("unblocked")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "post-failover delivery at the joiner", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, b := range bodies {
			if b == "unblocked" {
				return true
			}
		}
		return false
	})
}

// TestRestartAfterCrashRejoinsWithStateTransfer crashes a whole site, brings
// it back with RestartSite (fresh incarnation, fresh transport epoch), and
// rejoins the group with a state transfer — the paper's recovery model: a
// recovered site returns with no memory of its previous incarnation and
// reconstructs its groups from the survivors.
func TestRestartAfterCrashRejoinsWithStateTransfer(t *testing.T) {
	c := newTestCluster(t, 2)

	first := spawn(t, c, 1)
	v, err := first.CreateGroup("ledger")
	if err != nil {
		t.Fatal(err)
	}
	if err := first.SetStateProvider(v.Group, func() [][]byte {
		return [][]byte{[]byte("entry-1"), []byte("entry-2")}
	}); err != nil {
		t.Fatal(err)
	}
	second := spawn(t, c, 2)
	if _, err := second.JoinByName("ledger", JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "two-member view", 5*time.Second, func() bool {
		view, ok := first.CurrentView(v.Group)
		return ok && view.Size() == 2
	})

	if err := c.CrashSite(2); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "survivor view without the crashed site", 10*time.Second, func() bool {
		view, ok := first.CurrentView(v.Group)
		return ok && view.Size() == 1
	})

	site, err := c.RestartSite(2)
	if err != nil {
		t.Fatal(err)
	}
	reborn, err := site.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var rows []string
	var bodies []string
	xferDone := false
	reborn.BindEntry(EntryUserBase, func(m *Message) {
		mu.Lock()
		bodies = append(bodies, m.GetString("body", ""))
		mu.Unlock()
	})
	if _, err := reborn.JoinByName("ledger", JoinOptions{
		StateReceiver: func(b []byte, last bool) {
			mu.Lock()
			defer mu.Unlock()
			if len(b) > 0 {
				rows = append(rows, string(b))
			}
			if last {
				xferDone = true
			}
		},
	}); err != nil {
		t.Fatalf("rejoin after restart: %v", err)
	}
	waitUntil(t, "state transfer to the restarted site", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return xferDone
	})
	mu.Lock()
	if len(rows) != 2 || rows[0] != "entry-1" || rows[1] != "entry-2" {
		t.Errorf("transferred state = %v", rows)
	}
	mu.Unlock()
	waitUntil(t, "two-member view including the restarted site", 5*time.Second, func() bool {
		view, ok := first.CurrentView(v.Group)
		return ok && view.Size() == 2 && view.Contains(reborn.Address())
	})

	// Traffic flows to the restarted site: the transport recognised the new
	// incarnation's stream epoch instead of discarding it as duplicates.
	if _, err := first.Cast(CBCAST, []Address{v.Group}, EntryUserBase, Text("post-restart")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "delivery at the restarted site", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, b := range bodies {
			if b == "post-restart" {
				return true
			}
		}
		return false
	})
}

// TestPartitionedSiteRestartsAndRejoins cuts one site off from the rest of
// the cluster with injected partitions, lets the primary side remove its
// member, and then — after healing — recovers the orphaned site by
// restarting it, discarding its split-brain state (partition merge is
// outside the paper's fault model; restart is the prescribed recovery).
func TestPartitionedSiteRestartsAndRejoins(t *testing.T) {
	for _, backend := range []string{BackendSimnet, BackendTCP} {
		t.Run(backend, func(t *testing.T) {
			partitionedSiteRestartsAndRejoins(t, newBackendCluster(t, backend, 3))
		})
	}
}

func partitionedSiteRestartsAndRejoins(t *testing.T, c *Cluster) {
	members, gid := echoService(t, c, "part", 1, 2, 3)
	net := c.Fabric().(netback.FaultInjector)

	net.Partition(3, 1)
	net.Partition(3, 2)
	waitUntil(t, "primary side removes the partitioned member", 10*time.Second, func() bool {
		view, ok := members[0].CurrentView(gid)
		return ok && view.Size() == 2
	})
	net.HealAll()

	site, err := c.RestartSite(3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := site.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []string
	p.BindEntry(EntryUserBase, func(m *Message) {
		mu.Lock()
		got = append(got, m.GetString("body", ""))
		mu.Unlock()
	})
	if _, err := p.JoinByName("part", JoinOptions{}); err != nil {
		t.Fatalf("rejoin after partition + restart: %v", err)
	}
	waitUntil(t, "three-member view after the rejoin", 10*time.Second, func() bool {
		view, ok := members[0].CurrentView(gid)
		return ok && view.Size() == 3 && view.Contains(p.Address())
	})

	if _, err := members[0].Cast(CBCAST, []Address{gid}, EntryUserBase, Text("rejoined")); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "broadcast at the rejoined site", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, b := range got {
			if b == "rejoined" {
				return true
			}
		}
		return false
	})
}
