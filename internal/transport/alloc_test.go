//go:build !race

package transport

import (
	"runtime"
	"testing"
	"time"
)

// AllocsPerRun and MemStats deltas are meaningless under the race detector,
// hence the build tag.

// TestSteadyStateAllocations pins the data path's allocation budget: a
// 100-byte message from Send to the peer's handler costs the sender one
// allocation (its window record; the frame is built in the flusher's reused
// buffer) and the receiver none (the handler gets a sub-slice of the received
// frame). The in-memory pipe adds one copy per frame, and each delayed pure
// ack one more for its 17 bytes: at most 3 per message, and — the point of
// the reused buffer — nowhere near a MaxPacket-sized frame's worth of bytes.
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
	if allocs > 3 {
		t.Errorf("%.2f allocations per message, want at most 3", allocs)
	}
	if bytes > 1024 {
		t.Errorf("%.0f bytes allocated per 100-byte message: a frame buffer is being allocated per frame", bytes)
	}
}
