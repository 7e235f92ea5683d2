package isis

// Public-surface tests for the operational event stream and the
// request-outcome API: the partition lifecycle must tell a coherent story
// through Site.Events on both network backends, and a timed-out GBCAST must
// be answerable with Committed / Aborted / Unknown afterwards.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fdetect"
	"repro/internal/netback"
)

// fastDetector reacts to partitions within a few hundred milliseconds, which
// both backends need for a brisk partition test.
func fastDetector() fdetect.Config {
	return fdetect.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		InitialTimeout:    150 * time.Millisecond,
		MinTimeout:        100 * time.Millisecond,
		MaxTimeout:        500 * time.Millisecond,
		DeviationFactor:   4,
	}
}

func newBackendCluster(t *testing.T, backend string, sites int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Sites:        sites,
		Backend:      backend,
		Detector:     fastDetector(),
		CallTimeout:  2 * time.Second,
		ReplyTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// collectEvents drains an event channel into a slice until cancel closes it.
func collectEvents(ch <-chan Event) (get func() []Event, wait func()) {
	var mu sync.Mutex
	var got []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range ch {
			mu.Lock()
			got = append(got, e)
			mu.Unlock()
		}
	}()
	get = func() []Event {
		mu.Lock()
		defer mu.Unlock()
		return append([]Event(nil), got...)
	}
	wait = func() { <-done }
	return get, wait
}

func firstIndex(evs []Event, k EventKind) int {
	for i, e := range evs {
		if e.Kind == k {
			return i
		}
	}
	return -1
}

// TestPartitionMergeEventSequence cuts the minority site of a three-member
// group off, heals it, and checks that the site's event stream tells the
// partition story in order: the copy wedges and loses primaryness, then a
// merge starts, lands, and primaryness resumes. The same sequence must come
// out of both network backends, using only the backend-neutral fault
// injector.
func TestPartitionMergeEventSequence(t *testing.T) {
	for _, backend := range []string{BackendSimnet, BackendTCP} {
		t.Run(backend, func(t *testing.T) {
			c := newBackendCluster(t, backend, 3)
			members, gid := echoService(t, c, "evseq-"+backend, 1, 2, 3)

			ch, cancel := c.Site(3).Events(EventFilter{
				Kinds: []EventKind{
					EventPartitionWedge, EventPrimaryLost,
					EventMergeStart, EventMergeLand, EventPrimaryResumed,
				},
				Group: gid,
			})
			get, wait := collectEvents(ch)

			fi, ok := c.Fabric().(netback.FaultInjector)
			if !ok {
				t.Fatalf("%s fabric does not support fault injection", backend)
			}
			fi.Partition(3, 1)
			fi.Partition(3, 2)

			waitUntil(t, "majority removes the stranded member", 15*time.Second, func() bool {
				v, ok := members[0].CurrentView(gid)
				return ok && v.Size() == 2
			})
			waitUntil(t, "minority wedges read-only", 15*time.Second, func() bool {
				return !members[2].GroupPrimary(gid)
			})

			fi.HealAll()
			waitUntil(t, "minority merges back and resumes", 30*time.Second, func() bool {
				v, ok := members[2].CurrentView(gid)
				return ok && v.Size() == 3 && members[2].GroupPrimary(gid)
			})
			// Give trailing events (PrimaryResumed is published just before
			// the public state flips) a moment to land, then stop.
			waitUntil(t, "primary-resumed event arrives", 5*time.Second, func() bool {
				return firstIndex(get(), EventPrimaryResumed) >= 0
			})
			cancel()
			wait()

			evs := get()
			wedge := firstIndex(evs, EventPartitionWedge)
			lost := firstIndex(evs, EventPrimaryLost)
			start := firstIndex(evs, EventMergeStart)
			land := firstIndex(evs, EventMergeLand)
			resumed := firstIndex(evs, EventPrimaryResumed)
			for name, idx := range map[string]int{
				"partition-wedge": wedge, "primary-lost": lost,
				"merge-start": start, "merge-land": land, "primary-resumed": resumed,
			} {
				if idx < 0 {
					t.Fatalf("event %s missing from stream: %v", name, evs)
				}
			}
			if !(wedge < start && lost < start && start < land && land < resumed) {
				t.Fatalf("incoherent event order (wedge=%d lost=%d start=%d land=%d resumed=%d): %v",
					wedge, lost, start, land, resumed, evs)
			}
			for _, e := range evs {
				if e.Site != 3 {
					t.Errorf("event from wrong site: %v", e)
				}
				if e.Group != gid {
					t.Errorf("event for wrong group: %v", e)
				}
			}
		})
	}
}

// TestClusterEventsMergesSites checks that the cluster-wide stream carries
// events from several sites, stamped with the observing site, and that
// cancel terminates it.
func TestClusterEventsMergesSites(t *testing.T) {
	c := newTestCluster(t, 3)
	ch, cancel := c.Events(EventFilter{Kinds: []EventKind{EventViewInstalled}})
	get, wait := collectEvents(ch)

	_, gid := echoService(t, c, "evmerge", 1, 2, 3)
	waitUntil(t, "view-installed events from every site", 10*time.Second, func() bool {
		sites := map[SiteID]bool{}
		for _, e := range get() {
			if e.Group == gid {
				sites[e.Site] = true
			}
		}
		return len(sites) == 3
	})
	cancel()
	wait()

	if st := c.EventStats(); st.Published == 0 {
		t.Error("cluster event stats report nothing published")
	}
}

// TestOutcomeUnknownThenAbortedForNeverPreparedRequest wedges the requester's
// site into a minority partition, so its GBCAST is refused before it ever
// reaches a coordinator. While isolated the outcome is Unknown — nobody can
// prove anything about the id. After the heal the settlement round must
// answer Aborted, and the answer must be definitive (the dedupe mark has
// moved past the id, so no straggler can ever execute it).
func TestOutcomeUnknownThenAbortedForNeverPreparedRequest(t *testing.T) {
	c := newBackendCluster(t, BackendSimnet, 3)
	members, gid := echoService(t, c, "outcome-np", 1, 2, 3)

	fi := c.Fabric().(netback.FaultInjector)
	fi.Partition(3, 1)
	fi.Partition(3, 2)
	waitUntil(t, "minority wedges read-only", 15*time.Second, func() bool {
		return !members[2].GroupPrimary(gid)
	})

	var rid RequestID
	_, err := members[2].Cast(GBCAST, []Address{gid}, EntryUserBase, Text("doomed"), TrackRequest(&rid))
	if !errors.Is(err, ErrNonPrimary) {
		t.Fatalf("wedged GBCAST err = %v, want ErrNonPrimary", err)
	}
	if rid == 0 {
		t.Fatal("failed Cast did not fill in the tracked request id")
	}

	// Isolated: the fate is undecidable, and saying so is the correct answer.
	if out, _ := members[2].Outcome(rid); out != OutcomeUnknown {
		t.Fatalf("isolated Outcome = %v, want unknown", out)
	}

	fi.HealAll()
	waitUntil(t, "minority merges back", 30*time.Second, func() bool {
		v, ok := members[2].CurrentView(gid)
		return ok && v.Size() == 3 && members[2].GroupPrimary(gid)
	})

	waitUntil(t, "outcome settles as aborted", 15*time.Second, func() bool {
		out, err := members[2].Outcome(rid)
		if out == OutcomeCommitted {
			t.Fatalf("Outcome = committed for a never-prepared request (err %v)", err)
		}
		return out == OutcomeAborted
	})

	// The group still works, and an unknown id is reported as such.
	if _, err := members[0].Cast(CBCAST, []Address{gid}, EntryUserBase, Text("alive")); err != nil {
		t.Fatal(err)
	}
	if _, err := members[2].Outcome(rid + 1<<40); !errors.Is(err, ErrUnknownRequest) {
		t.Errorf("foreign id err = %v, want ErrUnknownRequest", err)
	}
}

// TestCastOptionsPerCallTimeout pins the CastTimeout option: a Cast waiting
// for replies that never come must give up after the per-call timeout, not
// the process default.
func TestCastOptionsPerCallTimeout(t *testing.T) {
	c := newTestCluster(t, 2)
	// A member that never answers.
	p := spawn(t, c, 1)
	p.BindEntry(EntryUserBase, func(m *Message) {})
	v, err := p.CreateGroup("mute")
	if err != nil {
		t.Fatal(err)
	}
	client := spawn(t, c, 2)
	start := time.Now()
	_, err = client.Cast(CBCAST, []Address{v.Group}, EntryUserBase, Text("anyone?"),
		Replies(1), CastTimeout(200*time.Millisecond))
	if !errors.Is(err, ErrReplyTimeout) {
		t.Fatalf("err = %v, want ErrReplyTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("per-call timeout not honoured: took %v", elapsed)
	}
}

// TestMonitorCancel pins that a cancelled pg_monitor callback stops firing.
func TestMonitorCancel(t *testing.T) {
	c := newTestCluster(t, 2)
	p := spawn(t, c, 1)
	v, err := p.CreateGroup("moncancel")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	cancel := p.Monitor(v.Group, func(View) {
		mu.Lock()
		calls++
		mu.Unlock()
	})

	joiner := spawn(t, c, 2)
	if _, err := joiner.Join(v.Group, JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "monitor sees the join", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return calls >= 1
	})
	cancel()
	mu.Lock()
	frozen := calls
	mu.Unlock()

	if err := joiner.Leave(v.Group); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "creator sees the leave", 5*time.Second, func() bool {
		cv, ok := p.CurrentView(v.Group)
		return ok && cv.Size() == 1
	})
	mu.Lock()
	after := calls
	mu.Unlock()
	if after != frozen {
		t.Errorf("cancelled monitor fired %d more times", after-frozen)
	}
}

// TestSiteDownEventThenCancel pins that a site's crash reaches a Site.Events
// subscriber as EventSiteDown naming the crashed peer, and that cancel closes
// the channel.
func TestSiteDownEventThenCancel(t *testing.T) {
	c := newTestCluster(t, 3)
	// Sites only monitor peers they have exchanged traffic with: put a group
	// across the cluster before crashing a member site.
	_, _ = echoService(t, c, "sitedown", 1, 2, 3)
	ch, cancel := c.Site(1).Events(EventFilter{Kinds: []EventKind{EventSiteDown}})
	get, wait := collectEvents(ch)
	if err := c.CrashSite(3); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "site-down event reaches the subscriber", 10*time.Second, func() bool {
		for _, e := range get() {
			if e.Peer == 3 {
				return true
			}
		}
		return false
	})
	cancel()
	wait() // returns only once the channel is closed
}

// TestEventStringsAreReadable smoke-checks the trace rendering used by the
// bench dump and the partition example.
func TestEventStringsAreReadable(t *testing.T) {
	c := newTestCluster(t, 2)
	ch, cancel := c.Events(EventFilter{})
	get, wait := collectEvents(ch)
	_, _ = echoService(t, c, "evstr", 1, 2)
	waitUntil(t, "some events", 5*time.Second, func() bool { return len(get()) > 0 })
	cancel()
	wait()
	for _, e := range get() {
		if s := e.String(); s == "" || s == fmt.Sprintf("#%d", e.Seq) {
			t.Fatalf("unreadable event rendering: %q", s)
		}
	}
}
