//go:build !race

package transport

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/netback"
)

// AllocsPerRun and MemStats deltas are meaningless under the race detector,
// hence the build tag.

// TestSteadyStateAllocations pins the data path's allocation budget: a
// 100-byte message from Send to the peer's handler costs the sender nothing
// (the window refers to the caller's bytes; the frame is built in the
// flusher's reused buffer) and the receiver nothing (the handler gets a
// sub-slice of the received frame). The in-memory pipe adds one copy per
// frame, and each delayed pure ack one more for its 17 bytes: at most 2 per
// message, and — the point of the reused buffer — nowhere near a
// MaxPacket-sized frame's worth of bytes.
func TestSteadyStateAllocations(t *testing.T) {
	a, b := newPipe()
	cfg := Config{MaxPacket: 4096, RetransmitInterval: time.Hour}
	ta, err := New(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	arrived := make(chan struct{}, 1)
	tb, err := New(b, cfg, func(SiteID, []byte) { arrived <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	payload := make([]byte, 100)
	pingPong := func(n int) {
		for i := 0; i < n; i++ {
			if err := ta.Send(2, payload); err != nil {
				t.Fatal(err)
			}
			<-arrived
		}
	}
	pingPong(200) // goroutines started, window and timers in place
	a.mu.Lock()
	a.sent = nil
	a.mu.Unlock()

	const n = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pingPong(n)
	runtime.ReadMemStats(&m1)
	// The pipe's record of sent frames is the test's own; subtract it.
	a.mu.Lock()
	frames := len(a.sent)
	a.mu.Unlock()
	allocs := float64(m1.Mallocs-m0.Mallocs) / n
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("%.2f allocs, %.0f bytes per message (%d frames)", allocs, bytes, frames)
	if allocs > 2 {
		t.Errorf("%.2f allocations per message, want at most 2", allocs)
	}
	if bytes > 1024 {
		t.Errorf("%.0f bytes allocated per 100-byte message: a frame buffer is being allocated per frame", bytes)
	}
}

// TestSendAllocatesNothing pins the send half of the ownership rule: Send
// files a reference to the caller's bytes in a queue that has reached its
// working size, however long the message, and the flusher's pass cuts records
// from the queue into a window that has too, so neither allocates.
func TestSendAllocatesNothing(t *testing.T) {
	ep := &sinkEnd{recv: make(chan netback.Packet, 1)}
	tr, err := New(ep, Config{MaxPacket: 4096, RetransmitInterval: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ps, pass := handDriven(tr)
	small, big := make([]byte, 100), make([]byte, 10_000) // one record, and three or four
	send := func() {
		if tr.Send(2, small) != nil || tr.Send(2, big) != nil || tr.Send(2, nil) != nil {
			t.Fatal("Send failed")
		}
	}
	// Grow the queue and the window to what the measured runs will hold, then
	// send and acknowledge all of it: both empty and keep their capacity.
	const runs = 100
	for i := 0; i <= runs; i++ {
		send()
	}
	pass()
	tr.applyAck(2, ps.epoch, ps.nextSeq-1)
	if n := tr.Unacked(); n != 0 {
		t.Fatalf("Unacked = %d after the covering ack, want 0", n)
	}

	if n := testing.AllocsPerRun(runs, send); n != 0 {
		t.Errorf("three steady-state Sends allocate %.0f times, want 0", n)
	}
	if got, want := tr.Unacked(), 3*(runs+1); got != want {
		t.Errorf("%d messages queued, want %d", got, want)
	}
	// MemStats counts every goroutine; as AllocsPerRun does, run the measured
	// pass on one P so that no background loop allocates beside it.
	var m0, m1 runtime.MemStats
	procs := runtime.GOMAXPROCS(1)
	runtime.ReadMemStats(&m0)
	pass()
	runtime.ReadMemStats(&m1)
	runtime.GOMAXPROCS(procs)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Errorf("a pass over %d queued messages allocates %d times, want 0", 3*(runs+1), n)
	}
}

// TestTwoFragmentMessageIsAssembledInOneAllocation pins the receive half for
// fragmented messages (the commonest is a state block behind its header):
// the earlier fragments wait in the frames they arrived in, and the last one
// copies them all into one buffer of the message's exact length, which is what
// the handler gets. The buffer used to be sized at twice the first fragment:
// 8 192 bytes for a 6 000-byte message.
func TestTwoFragmentMessageIsAssembledInOneAllocation(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection's own bookkeeping would be counted
	for _, c := range []struct {
		size, frags int
		maxBytes    float64 // the size class of an exact buffer
	}{{6000, 2, 6144}, {10_000, 3, 10_240}} {
		allocs, bytes := reassemblyCost(t, c.size, c.frags)
		if allocs > 1.05 {
			t.Errorf("%.2f allocations per %d-fragment message at the receiver, want 1", allocs, c.frags)
		}
		if bytes > c.maxBytes {
			t.Errorf("%.0f bytes allocated per %d-byte message at the receiver, want at most %.0f", bytes, c.size, c.maxBytes)
		}
	}
}

// reassemblyCost sends messages of the given size, each in a flusher pass of
// its own so that it starts a frame and takes frags frames, and returns the
// allocations and bytes a receiver spends on one. It
// counts only the feed: MemStats counts every goroutine, and the receiver's
// background loops (the retransmission ticker, the flusher the first frame
// opens) make their one-time allocations whenever the scheduler first runs
// them, so the feed is measured in windows of n messages and the cheapest
// window is the cost; a one-time allocation lands in one window at most.
func reassemblyCost(t *testing.T, size, frags int) (allocs, bytes float64) {
	t.Helper()
	a, _ := newPipe()
	a.drop = true // frames are kept in a.sent and fed to the receiver by hand
	cfg := Config{MaxPacket: 4096, RetransmitInterval: time.Hour, AckDelay: time.Hour}
	ta, err := New(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	_, pass := handDriven(ta)
	const warm, n, windows = 10, 200, 3
	msg := make([]byte, size)
	for i := range msg {
		msg[i] = byte(i)
	}
	for i := 0; i < warm+windows*n; i++ {
		if err := ta.Send(2, msg); err != nil {
			t.Fatal(err)
		}
		pass()
	}
	frames := a.dataFrames()
	if len(frames) != frags*(warm+windows*n) {
		t.Fatalf("%d frames for %d messages, want %d a message", len(frames), warm+windows*n, frags)
	}

	delivered := 0
	tb, err := New(&sinkEnd{recv: make(chan netback.Packet)}, cfg, func(_ SiteID, data []byte) {
		if string(data) != string(msg) {
			t.Errorf("message %d arrived changed", delivered)
		}
		delivered++
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	feed := func(frames [][]byte) {
		for _, f := range frames {
			tb.handlePacket(netback.Packet{From: 1, To: 2, Payload: f})
		}
	}
	feed(frames[:frags*warm]) // receive state and ack timer in place
	frames = frames[frags*warm:]
	allocs, bytes = math.Inf(1), math.Inf(1)
	for w := 0; w < windows; w++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		feed(frames[w*frags*n : (w+1)*frags*n])
		runtime.ReadMemStats(&m1)
		allocs = min(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
		bytes = min(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	}
	if delivered != warm+windows*n {
		t.Fatalf("%d messages delivered, want %d", delivered, warm+windows*n)
	}
	return allocs, bytes
}
