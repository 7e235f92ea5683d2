package protos

// The repair table with no daemon and no network: attempts are closures over
// channels, so every test waits on the event it is about.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addr"
)

// key names the n-th of a test's repairs.
func key(n int) repairKey { return repairKey{proc: addr.NewProcess(1, 0, uint32(n))} }

// tried receives from an attempt's channel, or fails the test.
func tried(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// notTried fails the test if the attempt runs while it watches. The table
// has nothing that would start a pass by itself, so a short watch is enough.
func notTried(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatalf("%s", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// idle waits until no pass is out.
func (r *repairs) idle(t *testing.T) {
	t.Helper()
	waitFor(t, "the pass to end", 2*time.Second, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return !r.running
	})
}

func TestRepairsFailedEntryWaitsForAKick(t *testing.T) {
	var r repairs
	ran := make(chan struct{}, 8)
	var works atomic.Bool
	r.add(key(1), func() bool { ran <- struct{}{}; return works.Load() })
	tried(t, ran, "the attempt filing starts")
	r.idle(t)
	notTried(t, ran, "a failed attempt was retried with no kick")
	if n := len(r.filed()); n != 1 {
		t.Fatalf("%d entries filed after a failed attempt, want it kept", n)
	}

	r.kick()
	tried(t, ran, "the kicked retry")
	r.idle(t)
	if n := len(r.filed()); n != 1 {
		t.Fatalf("%d entries filed after a second failure, want it kept", n)
	}

	works.Store(true)
	r.kick()
	tried(t, ran, "the retry that succeeds")
	r.idle(t)
	if n := len(r.filed()); n != 0 {
		t.Fatalf("%d entries filed after the attempt reported done", n)
	}
	r.kick()
	notTried(t, ran, "a finished repair ran again")
}

func TestRepairsEntryAddedMidPassNeedsNoKick(t *testing.T) {
	var r repairs
	started, release := make(chan struct{}), make(chan struct{})
	r.add(key(1), func() bool { close(started); <-release; return true })
	tried(t, started, "the first attempt")
	late := make(chan struct{}, 1)
	r.add(key(2), func() bool { late <- struct{}{}; return true })
	notTried(t, late, "a second pass started while the first was out")
	close(release)
	tried(t, late, "the entry filed mid-pass to get its pass")
	r.idle(t)
	if n := len(r.filed()); n != 0 {
		t.Fatalf("%d entries left", n)
	}
}

func TestRepairsNeverTwoPassesAtOnce(t *testing.T) {
	var r repairs
	var inFlight, most, runs atomic.Int32
	attempt := func() bool {
		n := inFlight.Add(1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		time.Sleep(100 * time.Microsecond)
		inFlight.Add(-1)
		return runs.Add(1) > 200
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.add(key(g*50+i+1), attempt)
				r.kick()
			}
		}()
	}
	wg.Wait()
	waitFor(t, "every repair to finish", 10*time.Second, func() bool {
		r.kick()
		return len(r.filed()) == 0
	})
	if most.Load() != 1 {
		t.Errorf("%d attempts ran at once, want 1", most.Load())
	}
}

func TestRepairsNothingRunsAfterClose(t *testing.T) {
	var r repairs
	started, release := make(chan struct{}), make(chan struct{})
	ran := make(chan struct{}, 8)
	r.add(key(1), func() bool { close(started); <-release; return false })
	tried(t, started, "the first attempt")
	// Filed behind the running pass: owed a pass of its own, but for close.
	r.add(key(2), func() bool { ran <- struct{}{}; return true })
	r.close()
	close(release)
	r.idle(t)
	r.kick()
	r.add(key(3), func() bool { ran <- struct{}{}; return true })
	notTried(t, ran, "an attempt ran after close")
}
