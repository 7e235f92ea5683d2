//go:build !race

package netback_test

import (
	"runtime"
	"testing"
)

// MemStats deltas are meaningless under the race detector, hence the build
// tag, and hence a file of its own beside the contract test.

// TestSmallPacketsAllocateNothing pins the backends' cost per packet: a
// 100-byte packet's copies (simnet's one; tcpnet's frame at the sender and at
// the reader) are carved from slabs, so from Send to Recv it costs a small
// fraction of an allocation on either fabric, where each copy was one.
func TestSmallPacketsAllocateNothing(t *testing.T) {
	for name, open := range fabrics {
		t.Run(name, func(t *testing.T) {
			f := open()
			defer f.Close()
			a, b := attachPair(t, f)
			payload := make([]byte, 100)
			ping := func(count int) {
				for i := 0; i < count; i++ {
					if err := a.Send(2, payload); err != nil {
						t.Fatal(err)
					}
					<-b.Recv()
				}
			}
			ping(100) // links, connections and goroutines in place

			const pkts = 2000
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			ping(pkts)
			runtime.ReadMemStats(&m1)
			allocs := float64(m1.Mallocs-m0.Mallocs) / pkts
			t.Logf("%.3f allocs per packet", allocs)
			if allocs > 0.1 {
				t.Errorf("%.3f allocations per 100-byte packet, want at most 0.1", allocs)
			}
		})
	}
}
