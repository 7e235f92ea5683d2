//go:build !race

package isis

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestProcessCost pins what a process costs in heap (HeapAlloc after two
// collections, averaged over 200 processes) and goroutines: spawned, after
// handling one message at one entry, and killed. With a delivery queue of
// channels a spawned process took 28.7 KB and a goroutine, one that had
// handled a message 95.3 KB and two, and a killed one kept 94 KB and a
// goroutine until its site closed. MemStats are meaningless under the race
// detector, hence the build tag.
func TestProcessCost(t *testing.T) {
	const n = 200
	c, err := NewCluster(ClusterConfig{Sites: 1, DisableHeartbeats: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	sender := spawn(t, c, 1)
	measure := func() (heap int64, goroutines int) {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc), runtime.NumGoroutine()
	}
	heap0, g0 := measure()
	check := func(what string, maxBytes int64, maxGoroutines int) {
		t.Helper()
		heap, g := measure()
		for deadline := time.Now().Add(5 * time.Second); g-g0 > maxGoroutines*n && time.Now().Before(deadline); heap, g = measure() {
			time.Sleep(5 * time.Millisecond)
		}
		per := (heap - heap0) / n
		t.Logf("%s: %d bytes and %.2f goroutines", what, per, float64(g-g0)/n)
		if per > maxBytes || g-g0 > maxGoroutines*n {
			t.Errorf("%s costs %d bytes and %.2f goroutines, budget %d and %d", what, per, float64(g-g0)/n, maxBytes, maxGoroutines)
		}
	}

	procs := make([]*Process, n)
	for i := range procs {
		procs[i] = spawn(t, c, 1)
	}
	check("a spawned process", 4096, 0)

	var handled atomic.Int64
	for _, p := range procs {
		p.BindEntry(EntryUserBase, func(*Message) { handled.Add(1) })
		if _, err := sender.Cast(CBCAST, []Address{p.Address()}, EntryUserBase, Text("one")); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "every process to handle its message", 5*time.Second, func() bool { return handled.Load() == n })
	check("a process that handled one message", 8192, 1)

	for _, p := range procs {
		if err := p.Kill(); err != nil {
			t.Fatal(err)
		}
	}
	check("a killed process", 4096, 0)
}
