//go:build !race

package simnet

import (
	"runtime"
	"testing"
	"time"
)

// MemStats deltas are meaningless under the race detector, hence the build
// tag.

// TestDelayedPacketsAllocateNothing pins the delay path's cost: a link waits
// out every packet's delay on its one timer, and a packet's copy is carved
// from the network's slab, so 100-byte packets that each wait allocate a
// small fraction of an object apiece (a timer per packet used to cost three).
func TestDelayedPacketsAllocateNothing(t *testing.T) {
	cfg := FastConfig()
	cfg.InterSiteDelay = 200 * time.Microsecond
	n := New(cfg)
	defer n.Close()
	a, b := n.AddSite(1), n.AddSite(2)
	payload := make([]byte, 100)
	ping := func(count int) {
		for i := 0; i < count; i++ {
			if err := a.Send(2, payload); err != nil {
				t.Fatal(err)
			}
			<-b.Recv()
		}
	}
	ping(10) // the link and its goroutine in place

	const pkts = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ping(pkts)
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / pkts
	t.Logf("%.3f allocs per delayed packet", allocs)
	if allocs > 0.1 {
		t.Errorf("%.3f allocations per delayed 100-byte packet, want at most 0.1", allocs)
	}
}
