package fdetect

import (
	"sync"
	"testing"
	"time"
)

// eventSink collects detector events.
type eventSink struct {
	mu     sync.Mutex
	events []Event
}

func (s *eventSink) notify(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

func (s *eventSink) snapshot() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

func (s *eventSink) waitFor(t *testing.T, pred func([]Event) bool, d time.Duration) []Event {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if evs := s.snapshot(); pred(evs) {
			return evs
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached; events = %+v", s.snapshot())
	return nil
}

// fakePeers stands in for the transport's Poll: it reports its peers, each
// with whether hear was called for it since the previous poll, and counts the
// polls.
type fakePeers struct {
	mu    sync.Mutex
	heard map[SiteID]bool
	polls int
}

func newFakePeers(sites ...SiteID) *fakePeers {
	f := &fakePeers{heard: make(map[SiteID]bool)}
	for _, s := range sites {
		f.heard[s] = false
	}
	return f
}

func (f *fakePeers) poll(heard func(SiteID, bool)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.polls++
	for s, any := range f.heard {
		heard(s, any)
		f.heard[s] = false
	}
}

func (f *fakePeers) hear(s SiteID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.heard[s] = true
}

func fastConfig() Config {
	return Config{
		HeartbeatInterval: 5 * time.Millisecond,
		InitialTimeout:    40 * time.Millisecond,
		MinTimeout:        20 * time.Millisecond,
		MaxTimeout:        500 * time.Millisecond,
		DeviationFactor:   4,
	}
}

func TestEventKindString(t *testing.T) {
	if SiteFailed.String() != "site-failed" || SiteRecovered.String() != "site-recovered" {
		t.Error("EventKind strings wrong")
	}
	if EventKind(9).String() != "unknown" {
		t.Error("unknown EventKind string wrong")
	}
}

// TestPollsOncePerInterval: the running detector polls its peers once a
// HeartbeatInterval, which is also the pace of the transport's keepalives.
func TestPollsOncePerInterval(t *testing.T) {
	f := newFakePeers(2, 3)
	d := New(1, fastConfig(), f.poll, nil)
	d.Start()
	time.Sleep(60 * time.Millisecond)
	d.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.polls < 3 || f.polls > 13 {
		t.Errorf("%d polls in 60 ms at a 5 ms interval", f.polls)
	}
}

// TestSelfIsNeverMonitored: a poll that reports this site is ignored, so this
// site is never declared failed by its own detector.
func TestSelfIsNeverMonitored(t *testing.T) {
	sink := &eventSink{}
	d := New(1, fastConfig(), newFakePeers(1).poll, sink.notify)
	d.Start()
	time.Sleep(3 * fastConfig().InitialTimeout)
	d.Stop()
	if evs := sink.snapshot(); len(evs) != 0 {
		t.Errorf("detector reported on itself: %+v", evs)
	}
}

func TestFailureDetection(t *testing.T) {
	sink := &eventSink{}
	d := New(1, fastConfig(), newFakePeers(2).poll, sink.notify)
	d.Start()
	defer d.Stop()
	// Nothing is ever heard from site 2: it must be declared failed.
	evs := sink.waitFor(t, func(evs []Event) bool {
		return len(evs) >= 1
	}, time.Second)
	if evs[0].Site != 2 || evs[0].Kind != SiteFailed {
		t.Errorf("event = %+v", evs[0])
	}
}

func TestFailureReportedOnce(t *testing.T) {
	sink := &eventSink{}
	d := New(1, fastConfig(), newFakePeers(2).poll, sink.notify)
	d.Start()
	defer d.Stop()
	sink.waitFor(t, func(evs []Event) bool { return len(evs) >= 1 }, time.Second)
	time.Sleep(100 * time.Millisecond)
	if evs := sink.snapshot(); len(evs) != 1 {
		t.Errorf("failure reported %d times", len(evs))
	}
}

func TestHealthySiteNotSuspected(t *testing.T) {
	sink := &eventSink{}
	f := newFakePeers(2)
	d := New(1, fastConfig(), f.poll, sink.notify)
	d.Start()
	defer d.Stop()
	// Site 2's frames keep arriving.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				f.hear(2)
			}
		}
	}()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if evs := sink.snapshot(); len(evs) != 0 {
		t.Errorf("healthy site produced events: %+v", evs)
	}
}

func TestRecoveryEvent(t *testing.T) {
	sink := &eventSink{}
	f := newFakePeers(2)
	d := New(1, fastConfig(), f.poll, sink.notify)
	d.Start()
	defer d.Stop()
	// Let it fail, then hear from it: a recovery event must follow.
	sink.waitFor(t, func(evs []Event) bool { return len(evs) >= 1 }, time.Second)
	f.hear(2)
	evs := sink.waitFor(t, func(evs []Event) bool { return len(evs) >= 2 }, time.Second)
	if evs[1].Kind != SiteRecovered || evs[1].Site != 2 {
		t.Errorf("second event = %+v", evs[1])
	}
}

// stepped feeds a detector that is never started: the site is registered by
// a first tick at start, then heard once every gap.
func stepped(d *Detector, f *fakePeers, site SiteID, start time.Time, gap time.Duration, n int) {
	d.tick(start)
	for i := 1; i <= n; i++ {
		f.hear(site)
		d.tick(start.Add(time.Duration(i) * gap))
	}
}

func TestAdaptiveTimeoutGrowsWithSlowHeartbeats(t *testing.T) {
	cfg := fastConfig()
	f := newFakePeers(2)
	d := New(1, cfg, f.poll, nil)
	d.tick(time.Now())
	// Before any samples the initial timeout applies.
	if got := d.TimeoutFor(2); got != cfg.InitialTimeout {
		t.Errorf("initial timeout = %v", got)
	}
	// Hear from it slowly (60 ms apart, beyond MinTimeout).
	stepped(d, f, 2, time.Now(), 60*time.Millisecond, 6)
	slow := d.TimeoutFor(2)
	if slow <= cfg.MinTimeout {
		t.Errorf("adaptive timeout %v did not grow beyond the minimum", slow)
	}
	if slow > cfg.MaxTimeout {
		t.Errorf("adaptive timeout %v exceeds the maximum", slow)
	}
	// An overloaded-but-alive site heard from more slowly than the *initial*
	// timeout must not be declared failed once the estimator has adapted: its
	// timeout must exceed the observed 60 ms gap.
	if slow < 60*time.Millisecond {
		t.Errorf("adaptive timeout %v would misclassify a slow site", slow)
	}
	if d.TimeoutFor(99) != cfg.InitialTimeout {
		t.Error("unknown peer should use the initial timeout")
	}
}

func TestTimeoutClamping(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxTimeout = 80 * time.Millisecond
	f := newFakePeers(2)
	d := New(1, cfg, f.poll, nil)
	stepped(d, f, 2, time.Now(), 50*time.Millisecond, 4)
	if got := d.TimeoutFor(2); got > cfg.MaxTimeout {
		t.Errorf("timeout %v exceeds the configured maximum %v", got, cfg.MaxTimeout)
	}
	cfg2 := fastConfig()
	cfg2.MinTimeout = 70 * time.Millisecond
	f2 := newFakePeers(3)
	d2 := New(1, cfg2, f2.poll, nil)
	stepped(d2, f2, 3, time.Now(), time.Millisecond, 6)
	if got := d2.TimeoutFor(3); got < cfg2.MinTimeout {
		t.Errorf("timeout %v fell below the configured minimum %v", got, cfg2.MinTimeout)
	}
}

// TestFirstPollRegistersThePeer: a site the transport reports is monitored
// from that poll on, with the initial timeout, and declared failed if nothing
// comes from it within that timeout.
func TestFirstPollRegistersThePeer(t *testing.T) {
	sink := &eventSink{}
	cfg := fastConfig()
	f := newFakePeers()
	d := New(1, cfg, f.poll, sink.notify)
	start := time.Now()
	d.tick(start)
	if len(d.peers) != 0 {
		t.Fatalf("peers before any poll reported one: %v", d.peers)
	}
	f.hear(7)
	d.tick(start.Add(cfg.HeartbeatInterval))
	if p, ok := d.peers[7]; len(d.peers) != 1 || !ok || p.haveSample {
		t.Fatalf("after the first poll that reports site 7: peers = %v", d.peers)
	}
	if got := d.TimeoutFor(7); got != cfg.InitialTimeout {
		t.Errorf("a newly registered peer's timeout = %v, want the initial %v", got, cfg.InitialTimeout)
	}
	d.tick(start.Add(cfg.HeartbeatInterval + cfg.InitialTimeout + time.Millisecond))
	if evs := sink.snapshot(); len(evs) != 1 || evs[0].Site != 7 || evs[0].Kind != SiteFailed {
		t.Errorf("events = %+v, want site 7 failed", evs)
	}
}

func TestStopIsIdempotent(t *testing.T) {
	d := New(1, fastConfig(), newFakePeers().poll, nil)
	d.Start()
	d.Stop()
	d.Stop()
}
