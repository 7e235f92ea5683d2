//go:build !race

package transport

import (
	"encoding/binary"
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

// sinkEnd is an endpoint that allocates nothing: what is sent vanishes, and
// only the test feeds its receive channel.
type sinkEnd struct{ recv chan netback.Packet }

func (e *sinkEnd) Site() SiteID                { return 1 }
func (e *sinkEnd) Recv() <-chan netback.Packet { return e.recv }
func (e *sinkEnd) Close()                      {}
func (e *sinkEnd) Send(SiteID, []byte) error   { return nil }

// TestSendAllocatesNothing pins the send half of the ownership rule: Send
// files references to the caller's bytes in a window that has reached its
// working size, whether the message is one record or four, so neither it nor
// the flusher behind it allocates.
func TestSendAllocatesNothing(t *testing.T) {
	ep := &sinkEnd{recv: make(chan netback.Packet, 1)}
	tr, err := New(ep, Config{MaxPacket: 4096, RetransmitInterval: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	small, big := make([]byte, 100), make([]byte, 10_000) // one record, and three
	send := func() {
		if tr.Send(2, small) != nil || tr.Send(2, big) != nil || tr.Send(2, nil) != nil {
			t.Fatal("Send failed")
		}
	}
	// Grow the window to what the measured runs will queue, then acknowledge
	// all of it: the window empties and keeps its capacity.
	const runs = 100
	for i := 0; i <= runs; i++ {
		send()
	}
	waitUntil(t, "the flusher to catch up", func() bool {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.sends[2].sentUpTo+1 == tr.sends[2].nextSeq
	})
	ack := []byte{kindAck, 16: 0}
	tr.mu.Lock()
	binary.BigEndian.PutUint64(ack[1:9], tr.sends[2].epoch)
	binary.BigEndian.PutUint64(ack[9:17], tr.sends[2].sentUpTo)
	tr.mu.Unlock()
	ep.recv <- netback.Packet{From: 2, To: 1, Payload: ack}
	waitUntil(t, "the ack to retire the window", func() bool { return tr.Unacked() == 0 })

	if n := testing.AllocsPerRun(runs, send); n != 0 {
		t.Errorf("three steady-state Sends allocate %.0f times, want 0", n)
	}
	if got, want := tr.Unacked(), 5*(runs+1); got != want {
		t.Errorf("%d records outstanding, want %d", got, want)
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

// reassemblyCost sends messages of the given size, which take frags frames
// each, and returns the allocations and bytes a receiver spends on one. It
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
	const warm, n, windows = 10, 200, 3
	msg := make([]byte, size)
	for i := range msg {
		msg[i] = byte(i)
	}
	for i := 0; i < warm+windows*n; i++ {
		if err := ta.Send(2, msg); err != nil {
			t.Fatal(err)
		}
	}
	frames := a.takeRecords(t, frags*(warm+windows*n))
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
