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

func TestHeartbeatsAreSent(t *testing.T) {
	var mu sync.Mutex
	sent := map[SiteID]int{}
	d := New(1, fastConfig(), func(to SiteID) {
		mu.Lock()
		sent[to]++
		mu.Unlock()
	}, nil)
	d.AddPeer(2)
	d.AddPeer(3)
	d.Start()
	defer d.Stop()
	time.Sleep(60 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if sent[2] < 3 || sent[3] < 3 {
		t.Errorf("heartbeats sent = %v, want several to each peer", sent)
	}
}

func TestSelfIsNeverMonitored(t *testing.T) {
	d := New(1, fastConfig(), nil, nil)
	d.AddPeer(1)
	if len(d.Peers()) != 0 {
		t.Error("detector monitors itself")
	}
}

func TestFailureDetection(t *testing.T) {
	sink := &eventSink{}
	d := New(1, fastConfig(), func(SiteID) {}, sink.notify)
	d.AddPeer(2)
	d.Start()
	defer d.Stop()
	// Site 2 never sends a heartbeat: it must be declared failed.
	evs := sink.waitFor(t, func(evs []Event) bool {
		return len(evs) >= 1
	}, time.Second)
	if evs[0].Site != 2 || evs[0].Kind != SiteFailed {
		t.Errorf("event = %+v", evs[0])
	}
	if got := d.Suspected(); len(got) != 1 || got[0] != 2 {
		t.Errorf("Suspected = %v", got)
	}
}

func TestFailureReportedOnce(t *testing.T) {
	sink := &eventSink{}
	d := New(1, fastConfig(), func(SiteID) {}, sink.notify)
	d.AddPeer(2)
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
	d := New(1, fastConfig(), func(SiteID) {}, sink.notify)
	d.AddPeer(2)
	d.Start()
	defer d.Stop()
	// Simulate regular heartbeats from site 2.
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
				d.OnHeartbeat(2)
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
	d := New(1, fastConfig(), func(SiteID) {}, sink.notify)
	d.AddPeer(2)
	d.Start()
	defer d.Stop()
	// Let it fail, then deliver a heartbeat: a recovery event must follow.
	sink.waitFor(t, func(evs []Event) bool { return len(evs) >= 1 }, time.Second)
	d.OnHeartbeat(2)
	evs := sink.waitFor(t, func(evs []Event) bool { return len(evs) >= 2 }, time.Second)
	if evs[1].Kind != SiteRecovered || evs[1].Site != 2 {
		t.Errorf("second event = %+v", evs[1])
	}
	if len(d.Suspected()) != 0 {
		t.Errorf("Suspected after recovery = %v", d.Suspected())
	}
}

func TestAdaptiveTimeoutGrowsWithSlowHeartbeats(t *testing.T) {
	cfg := fastConfig()
	d := New(1, cfg, nil, nil)
	d.AddPeer(2)
	// Before any samples the initial timeout applies.
	if got := d.TimeoutFor(2); got != cfg.InitialTimeout {
		t.Errorf("initial timeout = %v", got)
	}
	// Feed slow heartbeats (about 60 ms apart, beyond MinTimeout).
	for i := 0; i < 6; i++ {
		time.Sleep(60 * time.Millisecond)
		d.OnHeartbeat(2)
	}
	slow := d.TimeoutFor(2)
	if slow <= cfg.MinTimeout {
		t.Errorf("adaptive timeout %v did not grow beyond the minimum", slow)
	}
	if slow > cfg.MaxTimeout {
		t.Errorf("adaptive timeout %v exceeds the maximum", slow)
	}
	// An overloaded-but-alive site with heartbeats slower than the
	// *initial* timeout must not be declared failed once the estimator has
	// adapted: its timeout must exceed the observed 60 ms gap.
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
	d := New(1, cfg, nil, nil)
	d.AddPeer(2)
	for i := 0; i < 4; i++ {
		time.Sleep(50 * time.Millisecond)
		d.OnHeartbeat(2)
	}
	if got := d.TimeoutFor(2); got > cfg.MaxTimeout {
		t.Errorf("timeout %v exceeds the configured maximum %v", got, cfg.MaxTimeout)
	}
	cfg2 := fastConfig()
	cfg2.MinTimeout = 70 * time.Millisecond
	d2 := New(1, cfg2, nil, nil)
	d2.AddPeer(3)
	for i := 0; i < 6; i++ {
		time.Sleep(time.Millisecond)
		d2.OnHeartbeat(3)
	}
	if got := d2.TimeoutFor(3); got < cfg2.MinTimeout {
		t.Errorf("timeout %v fell below the configured minimum %v", got, cfg2.MinTimeout)
	}
}

func TestHeartbeatFromUnknownSiteStartsMonitoring(t *testing.T) {
	d := New(1, fastConfig(), nil, nil)
	d.OnHeartbeat(7)
	peers := d.Peers()
	if len(peers) != 1 || peers[0] != 7 {
		t.Errorf("Peers = %v", peers)
	}
}

func TestStopIsIdempotent(t *testing.T) {
	d := New(1, fastConfig(), nil, nil)
	d.Start()
	d.Stop()
	d.Stop()
}
