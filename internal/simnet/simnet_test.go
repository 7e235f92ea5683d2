package simnet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func recvWithTimeout(t *testing.T, ep *Endpoint, d time.Duration) Packet {
	t.Helper()
	select {
	case p := <-ep.Recv():
		return p
	case <-time.After(d):
		t.Fatalf("timed out waiting for packet at site %d", ep.Site())
		return Packet{}
	}
}

func TestBasicDelivery(t *testing.T) {
	n := New(FastConfig())
	defer n.Close()
	a := n.AddSite(1)
	b := n.AddSite(2)
	if err := a.Send(2, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	p := recvWithTimeout(t, b, time.Second)
	if string(p.Payload) != "hello" || p.From != 1 || p.To != 2 {
		t.Errorf("packet = %+v", p)
	}
	st := n.Stats()
	if st.PacketsSent != 1 || st.PacketsDelivered != 1 || st.BytesSent != 5 {
		t.Errorf("stats = %+v", st)
	}
	if st.InterSitePackets != 1 || st.IntraSitePackets != 0 {
		t.Errorf("site packet classification wrong: %+v", st)
	}
}

func TestIntraSiteDelivery(t *testing.T) {
	n := New(FastConfig())
	defer n.Close()
	a := n.AddSite(1)
	if err := a.Send(1, []byte("self")); err != nil {
		t.Fatal(err)
	}
	p := recvWithTimeout(t, a, time.Second)
	if string(p.Payload) != "self" {
		t.Errorf("payload = %q", p.Payload)
	}
	if n.Stats().IntraSitePackets != 1 {
		t.Errorf("intra-site packet not counted: %+v", n.Stats())
	}
}

func TestSendToUnknownSiteIsDiscarded(t *testing.T) {
	// The destination not being attached is detected at delivery time (a
	// real LAN cannot tell at send time); the packet is discarded.
	n := New(FastConfig())
	defer n.Close()
	a := n.AddSite(1)
	if err := a.Send(99, []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if n.Stats().PacketsDiscarded == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("packet to unknown site not discarded: %+v", n.Stats())
}

func TestPayloadTooLarge(t *testing.T) {
	cfg := FastConfig()
	cfg.MaxPacket = 16
	n := New(cfg)
	defer n.Close()
	a := n.AddSite(1)
	n.AddSite(2)
	if err := a.Send(2, make([]byte, 17)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	if err := a.Send(2, make([]byte, 16)); err != nil {
		t.Errorf("err = %v for max-size payload", err)
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	n := New(FastConfig())
	defer n.Close()
	a := n.AddSite(1)
	n.AddSite(2)
	a.Close()
	if err := a.Send(2, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestDetachDiscardsInFlight(t *testing.T) {
	cfg := FastConfig()
	cfg.InterSiteDelay = 30 * time.Millisecond
	n := New(cfg)
	defer n.Close()
	a := n.AddSite(1)
	b := n.AddSite(2)
	if err := a.Send(2, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	b.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if n.Stats().PacketsDiscarded == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("in-flight packet to crashed site not discarded: %+v", n.Stats())
}

func TestPerLinkFIFO(t *testing.T) {
	cfg := FastConfig()
	cfg.InterSiteDelay = time.Millisecond
	n := New(cfg)
	defer n.Close()
	a := n.AddSite(1)
	b := n.AddSite(2)
	const k = 50
	for i := 0; i < k; i++ {
		if err := a.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		p := recvWithTimeout(t, b, time.Second)
		if int(p.Payload[0]) != i {
			t.Fatalf("out of order delivery: got %d at position %d", p.Payload[0], i)
		}
	}
}

func TestPayloadIsCopied(t *testing.T) {
	n := New(FastConfig())
	defer n.Close()
	a := n.AddSite(1)
	b := n.AddSite(2)
	buf := []byte{1, 2, 3}
	if err := a.Send(2, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	p := recvWithTimeout(t, b, time.Second)
	if p.Payload[0] != 1 {
		t.Error("network aliased the caller's buffer")
	}
}

func TestLossModel(t *testing.T) {
	cfg := LossyConfig(0.5, 7)
	n := New(cfg)
	defer n.Close()
	a := n.AddSite(1)
	n.AddSite(2)
	const total = 400
	for i := 0; i < total; i++ {
		if err := a.Send(2, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.PacketsDropped == 0 || st.PacketsDropped == total {
		t.Errorf("loss model inactive or total: dropped %d of %d", st.PacketsDropped, total)
	}
	// With rate 0.5 and 400 packets the drop count should be within a wide
	// tolerance of 200.
	if st.PacketsDropped < 120 || st.PacketsDropped > 280 {
		t.Errorf("drop count %d far from expectation 200", st.PacketsDropped)
	}
	// Intra-site packets are never dropped.
	n.ResetStats()
	for i := 0; i < 100; i++ {
		if err := a.Send(1, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if d := n.Stats().PacketsDropped; d != 0 {
		t.Errorf("intra-site packets dropped: %d", d)
	}
}

func TestLossIsReproducible(t *testing.T) {
	run := func() uint64 {
		n := New(LossyConfig(0.3, 42))
		defer n.Close()
		a := n.AddSite(1)
		n.AddSite(2)
		for i := 0; i < 200; i++ {
			_ = a.Send(2, []byte{1})
		}
		return n.Stats().PacketsDropped
	}
	if run() != run() {
		t.Error("same seed produced different loss patterns")
	}
}

func TestInterSiteDelayApplied(t *testing.T) {
	cfg := FastConfig()
	cfg.InterSiteDelay = 50 * time.Millisecond
	n := New(cfg)
	defer n.Close()
	a := n.AddSite(1)
	b := n.AddSite(2)
	start := time.Now()
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b, time.Second)
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Errorf("packet arrived after %v, expected >= ~50ms", elapsed)
	}
}

func TestBandwidthAddsTransmissionTime(t *testing.T) {
	cfg := FastConfig()
	cfg.BytesPerSecond = 100_000 // 10 KB payload -> 100 ms
	n := New(cfg)
	defer n.Close()
	a := n.AddSite(1)
	b := n.AddSite(2)
	start := time.Now()
	if err := a.Send(2, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b, 2*time.Second)
	// 4096 bytes at 100 KB/s is ~41 ms.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("transmission time not charged, elapsed = %v", elapsed)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	cfg := FastConfig()
	cfg.SendCPU = time.Millisecond
	cfg.RecvCPU = 2 * time.Millisecond
	n := New(cfg)
	defer n.Close()
	a := n.AddSite(1)
	b := n.AddSite(2)
	for i := 0; i < 5; i++ {
		if err := a.Send(2, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		recvWithTimeout(t, b, time.Second)
	}
	if got := n.BusyTime(1); got != 5*time.Millisecond {
		t.Errorf("sender busy time = %v, want 5ms", got)
	}
	if got := n.BusyTime(2); got != 10*time.Millisecond {
		t.Errorf("receiver busy time = %v, want 10ms", got)
	}
	n.ResetStats()
	if n.BusyTime(1) != 0 || n.Stats().PacketsSent != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

func TestRecorderTracing(t *testing.T) {
	n := New(FastConfig())
	defer n.Close()
	rec := NewRecorder()
	n.SetTracer(rec)
	a := n.AddSite(1)
	b := n.AddSite(2)
	if err := a.Send(2, []byte("traced")); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b, time.Second)
	// Wait briefly for the deliver event to be recorded.
	time.Sleep(10 * time.Millisecond)
	if rec.CountKind(EventSend) != 1 {
		t.Errorf("send events = %d", rec.CountKind(EventSend))
	}
	if rec.CountKind(EventDeliver) != 1 {
		t.Errorf("deliver events = %d", rec.CountKind(EventDeliver))
	}
	evs := rec.Events()
	if len(evs) < 2 || evs[0].Kind != EventSend || evs[0].Size != 6 {
		t.Errorf("events = %+v", evs)
	}
	rec.Reset()
	if len(rec.Events()) != 0 {
		t.Error("Reset did not clear events")
	}
}

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		EventSend: "send", EventDeliver: "deliver", EventDrop: "drop",
		EventDiscard: "discard", EventPhase: "phase", EventKind(99): "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestSitesAndReattach(t *testing.T) {
	n := New(FastConfig())
	defer n.Close()
	n.AddSite(1)
	n.AddSite(2)
	if len(n.Sites()) != 2 {
		t.Errorf("Sites = %v", n.Sites())
	}
	// Re-attaching models recovery: the old endpoint stops working.
	old := n.AddSite(3)
	renewed := n.AddSite(3)
	if err := old.Send(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("old endpoint still sends after reattach: %v", err)
	}
	if err := renewed.Send(1, []byte("x")); err != nil {
		t.Errorf("new endpoint cannot send: %v", err)
	}
	if len(n.Sites()) != 3 {
		t.Errorf("Sites after reattach = %v", n.Sites())
	}
}

func TestConcurrentSenders(t *testing.T) {
	n := New(FastConfig())
	defer n.Close()
	dst := n.AddSite(100)
	const senders = 8
	const per = 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep := n.AddSite(SiteID(s + 1))
		wg.Add(1)
		go func(ep *Endpoint, s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send(100, []byte(fmt.Sprintf("%d-%d", s, i))); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(ep, s)
	}
	wg.Wait()
	got := 0
	timeout := time.After(5 * time.Second)
	for got < senders*per {
		select {
		case <-dst.Recv():
			got++
		case <-timeout:
			t.Fatalf("received %d of %d packets", got, senders*per)
		}
	}
	if st := n.Stats(); st.PacketsDelivered != senders*per {
		t.Errorf("delivered = %d", st.PacketsDelivered)
	}
}

func TestNetworkCloseStopsTraffic(t *testing.T) {
	n := New(FastConfig())
	a := n.AddSite(1)
	n.AddSite(2)
	n.Close()
	if err := a.Send(2, []byte("x")); err == nil {
		t.Error("send after network close succeeded")
	}
}

func TestQueueOverflowPreservesFIFO(t *testing.T) {
	// A receive queue far smaller than the burst forces most deliveries
	// through the queue-full fallback; they must still arrive in send order
	// (the transport's sequence numbers depend on per-link FIFO).
	cfg := FastConfig()
	cfg.QueueLen = 2
	n := New(cfg)
	defer n.Close()
	a := n.AddSite(1)
	b := n.AddSite(2)
	const k = 200
	for i := 0; i < k; i++ {
		if err := a.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		p := recvWithTimeout(t, b, 5*time.Second)
		if int(p.Payload[0]) != i {
			t.Fatalf("FIFO violated under queue overflow: got %d at position %d", p.Payload[0], i)
		}
	}
}

func TestDetachUnblocksOverflowedDelivery(t *testing.T) {
	// With the receive queue full, delivery blocks on the link goroutine;
	// detaching the endpoint must release it (and discard the packets)
	// rather than leaving the goroutine blocked forever.
	cfg := FastConfig()
	cfg.QueueLen = 1
	n := New(cfg)
	defer n.Close()
	a := n.AddSite(1)
	b := n.AddSite(2)
	// One packet fills the queue, the second blocks the link goroutine, the
	// third waits behind it.
	for i := 0; i < 3; i++ {
		if err := a.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && n.Stats().PacketsDelivered < 2 {
		time.Sleep(time.Millisecond)
	}
	b.Close()
	for time.Now().Before(deadline) {
		if n.Stats().PacketsDiscarded >= 2 {
			// Exactly one packet actually reached the receive queue; the
			// blocked one must have had its optimistic delivery accounting
			// rolled back, not be counted as both delivered and discarded.
			if d := n.Stats().PacketsDelivered; d != 1 {
				t.Errorf("PacketsDelivered = %d after detach, want 1", d)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("blocked deliveries not released by detach: %+v", n.Stats())
}

// TestDetachReleasesABlockedSend: a Send waiting for room on a full link (a
// paused one) returns ErrClosed once its endpoint detaches. It used to wait
// for the network to close, so a site whose transport waited for its sender
// before detaching waited for the whole cluster.
func TestDetachReleasesABlockedSend(t *testing.T) {
	n := New(FastConfig())
	defer n.Close()
	a := n.AddSite(1)
	n.AddSite(2)
	n.PauseLink(1, 2)
	failed := make(chan error, 1)
	go func() {
		for {
			if err := a.Send(2, []byte{1}); err != nil {
				failed <- err
				return
			}
		}
	}()
	// The link queues 4 096 packets behind the one its goroutine holds, so
	// the 4 098th Send waits.
	for deadline := time.Now().Add(5 * time.Second); n.Stats().PacketsSent < 4098; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d packets sent, want a Send blocked behind 4 097", n.Stats().PacketsSent)
		}
	}
	a.Close()
	select {
	case err := <-failed:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("the blocked Send returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a Send blocked on a full link outlived its endpoint's detaching")
	}
}

func TestPartitionBlocksUntilHealed(t *testing.T) {
	n := New(FastConfig())
	defer n.Close()
	a := n.AddSite(1)
	b := n.AddSite(2)
	n.Partition(1, 2)
	if err := a.Send(2, []byte("cut")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(1, []byte("cut-back")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-b.Recv():
		t.Fatalf("packet crossed a partition: %+v", p)
	case <-time.After(50 * time.Millisecond):
	}
	if st := n.Stats(); st.PacketsBlocked != 2 {
		t.Errorf("PacketsBlocked = %d, want 2", st.PacketsBlocked)
	}
	n.Heal(1, 2)
	if err := a.Send(2, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if p := recvWithTimeout(t, b, time.Second); string(p.Payload) != "ok" {
		t.Errorf("post-heal payload = %q", p.Payload)
	}
	// HealAll clears every cut.
	n.Partition(1, 2)
	n.HealAll()
	if err := a.Send(2, []byte("ok2")); err != nil {
		t.Fatal(err)
	}
	if p := recvWithTimeout(t, b, time.Second); string(p.Payload) != "ok2" {
		t.Errorf("post-HealAll payload = %q", p.Payload)
	}
}

func TestPauseLinkHoldsPacketsInOrder(t *testing.T) {
	n := New(FastConfig())
	defer n.Close()
	a := n.AddSite(1)
	b := n.AddSite(2)
	n.PauseLink(1, 2)
	const k = 5
	for i := 0; i < k; i++ {
		if err := a.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case p := <-b.Recv():
		t.Fatalf("packet crossed a paused link: %+v", p)
	case <-time.After(50 * time.Millisecond):
	}
	// Pause is directional: the reverse link still delivers.
	if err := b.Send(1, []byte{99}); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, a, time.Second)
	n.ResumeLink(1, 2)
	for i := 0; i < k; i++ {
		p := recvWithTimeout(t, b, time.Second)
		if int(p.Payload[0]) != i {
			t.Fatalf("held packets resumed out of order: got %d at position %d", p.Payload[0], i)
		}
	}
	// ResumeAll releases any remaining pause.
	n.PauseLink(1, 2)
	if err := a.Send(2, []byte{7}); err != nil {
		t.Fatal(err)
	}
	n.ResumeAll()
	if p := recvWithTimeout(t, b, time.Second); p.Payload[0] != 7 {
		t.Errorf("post-ResumeAll payload = %v", p.Payload)
	}
}

func TestPaperConfigValues(t *testing.T) {
	c := PaperConfig()
	if c.InterSiteDelay != 16*time.Millisecond {
		t.Errorf("InterSiteDelay = %v", c.InterSiteDelay)
	}
	if c.IntraSiteDelay != 10*time.Microsecond {
		t.Errorf("IntraSiteDelay = %v", c.IntraSiteDelay)
	}
	if c.MaxPacket != 4096 {
		t.Errorf("MaxPacket = %d", c.MaxPacket)
	}
	if c.BytesPerSecond != 1_250_000 {
		t.Errorf("BytesPerSecond = %d", c.BytesPerSecond)
	}
}

func TestWatchLinksReportsPartitionAndHeal(t *testing.T) {
	n := New(FastConfig())
	defer n.Close()
	var mu sync.Mutex
	var evs []LinkEvent
	n.WatchLinks(func(ev LinkEvent) {
		mu.Lock()
		evs = append(evs, ev)
		mu.Unlock()
	})

	n.Partition(1, 2)
	n.Heal(1, 2)
	n.Heal(1, 2) // healing a healthy link is not an event
	n.Partition(3, 4)
	n.Partition(5, 6)
	n.HealAll()

	mu.Lock()
	defer mu.Unlock()
	want := []LinkEvent{
		{A: 1, B: 2, Up: false},
		{A: 1, B: 2, Up: true},
		{A: 3, B: 4, Up: false},
		{A: 5, B: 6, Up: false},
	}
	if len(evs) < 4 {
		t.Fatalf("events = %v", evs)
	}
	for i, w := range want {
		if evs[i] != w {
			t.Errorf("event %d = %v, want %v", i, evs[i], w)
		}
	}
	// HealAll reports one Up event per partitioned pair, in any order.
	up := map[LinkEvent]bool{}
	for _, ev := range evs[4:] {
		up[ev] = true
	}
	if len(evs[4:]) != 2 || !up[LinkEvent{A: 3, B: 4, Up: true}] || !up[LinkEvent{A: 5, B: 6, Up: true}] {
		t.Errorf("HealAll events = %v", evs[4:])
	}
}
