package task

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/msg"
)

// recv returns what the handler under test sent, or fails the test after a
// second.
func recv[T any](t *testing.T, ch <-chan T) T {
	t.Helper()
	var v T
	select {
	case v = <-ch:
	case <-time.After(time.Second):
		t.Fatal("the handler did not run")
	}
	return v
}

func TestDispatchRunsHandler(t *testing.T) {
	g := NewManager()
	got := make(chan int64, 1)
	g.BindEntry(addr.EntryUserBase, func(m *msg.Message) { got <- m.GetInt("x", 0) })
	if err := g.Dispatch(addr.EntryUserBase, msg.New().PutInt("x", 7)); err != nil {
		t.Fatal(err)
	}
	if x := recv(t, got); x != 7 {
		t.Errorf("handler saw x = %d", x)
	}
}

func TestDispatchNoEntry(t *testing.T) {
	g := NewManager()
	err := g.Dispatch(addr.EntryUserBase, msg.New())
	if !errors.Is(err, ErrNoEntry) {
		t.Errorf("err = %v, want ErrNoEntry", err)
	}
}

func TestBindNilUnbinds(t *testing.T) {
	g := NewManager()
	g.BindEntry(5, func(*msg.Message) {})
	if err := g.Dispatch(5, msg.New()); err != nil {
		t.Fatalf("entry not bound: %v", err)
	}
	g.BindEntry(5, nil)
	if err := g.Dispatch(5, msg.New()); !errors.Is(err, ErrNoEntry) {
		t.Errorf("after nil bind err = %v", err)
	}
}

func TestRebindReplacesHandler(t *testing.T) {
	g := NewManager()
	ran := make(chan string, 2)
	g.BindEntry(1, func(*msg.Message) { ran <- "first" })
	g.BindEntry(1, func(*msg.Message) { ran <- "second" })
	_ = g.Dispatch(1, msg.New())
	if who := recv(t, ran); who != "second" {
		t.Errorf("the %s binding ran", who)
	}
}

func TestFilterDropsMessage(t *testing.T) {
	g := NewManager()
	ran := make(chan string, 2)
	g.BindEntry(1, func(m *msg.Message) { ran <- m.GetString("allowed", "") })
	g.AddFilter(func(e addr.EntryID, m *msg.Message) bool {
		return m.GetString("allowed", "") == "yes"
	})
	if err := g.Dispatch(1, msg.New().PutString("allowed", "no")); err != nil {
		t.Fatalf("dropped message should not be an error: %v", err)
	}
	if err := g.Dispatch(1, msg.New().PutString("allowed", "yes")); err != nil {
		t.Fatal(err)
	}
	// One entry runs its tasks in dispatch order: had the first message got
	// through, it would be here first.
	if got := recv(t, ran); got != "yes" {
		t.Errorf("the handler ran for the message the filter dropped (allowed=%q)", got)
	}
}

func TestFilterChainOrder(t *testing.T) {
	g := NewManager()
	var order []int
	var mu sync.Mutex
	g.AddFilter(func(addr.EntryID, *msg.Message) bool {
		mu.Lock()
		order = append(order, 1)
		mu.Unlock()
		return true
	})
	g.AddFilter(func(addr.EntryID, *msg.Message) bool {
		mu.Lock()
		order = append(order, 2)
		mu.Unlock()
		return false // drop, third filter must not run
	})
	g.AddFilter(func(addr.EntryID, *msg.Message) bool {
		mu.Lock()
		order = append(order, 3)
		mu.Unlock()
		return true
	})
	g.BindEntry(1, func(*msg.Message) {})
	_ = g.Dispatch(1, msg.New())
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("filter order = %v", order)
	}
}

func TestFilterSeesEntry(t *testing.T) {
	g := NewManager()
	var seen atomic.Int64
	g.AddFilter(func(e addr.EntryID, m *msg.Message) bool {
		seen.Store(int64(e))
		return true
	})
	g.BindEntry(42, func(*msg.Message) {})
	_ = g.Dispatch(42, msg.New())
	if seen.Load() != 42 {
		t.Errorf("filter saw entry %d", seen.Load())
	}
}

func TestConcurrentTasksAcrossEntries(t *testing.T) {
	// Tasks for different entry points run concurrently: all ten must start
	// even though none has finished.
	g := NewManager()
	release := make(chan struct{})
	started := make(chan struct{}, 10)
	for e := addr.EntryID(1); e <= 10; e++ {
		g.BindEntry(e, func(*msg.Message) {
			started <- struct{}{}
			<-release
		})
	}
	for e := addr.EntryID(1); e <= 10; e++ {
		if err := g.Dispatch(e, msg.New()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		select {
		case <-started:
		case <-time.After(time.Second):
			t.Fatalf("only %d tasks started concurrently", i)
		}
	}
	close(release)
}

func TestSameEntryTasksRunInDispatchOrder(t *testing.T) {
	// Tasks for the same entry point are serialized in dispatch order,
	// mirroring the non-preemptive coroutines of the original system; this
	// is what lets the replicated-data tool apply ABCAST updates in the
	// delivery order.
	g := NewManager()
	const k = 200
	order := make(chan int64, k)
	g.BindEntry(1, func(m *msg.Message) { order <- m.GetInt("i", -1) })
	for i := 0; i < k; i++ {
		if err := g.Dispatch(1, msg.New().PutInt("i", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		if v := recv(t, order); v != int64(i) {
			t.Fatalf("task %d ran in place %d", v, i)
		}
	}
}

func TestBlockedEntryDoesNotStallOtherEntries(t *testing.T) {
	g := NewManager()
	block := make(chan struct{})
	defer close(block)
	g.BindEntry(1, func(*msg.Message) { <-block })
	ran := make(chan struct{}, 1)
	g.BindEntry(2, func(*msg.Message) { ran <- struct{}{} })
	_ = g.Dispatch(1, msg.New())
	_ = g.Dispatch(2, msg.New())
	recv(t, ran) // fails if the blocked entry stalled the unrelated one
}

func TestCloseRejectsNewWork(t *testing.T) {
	g := NewManager()
	g.BindEntry(1, func(*msg.Message) {})
	g.Close()
	if err := g.Dispatch(1, msg.New()); !errors.Is(err, ErrClosed) {
		t.Errorf("Dispatch after close = %v", err)
	}
}

// barrierDone runs Barrier in the background and returns a channel closed
// when it returns.
func barrierDone(g *Manager) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		g.Barrier()
		close(done)
	}()
	return done
}

func TestBarrierWaitsForEarlierTasks(t *testing.T) {
	g := NewManager()
	recv(t, barrierDone(g)) // idle: returns at once
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Int32
	g.BindEntry(1, func(*msg.Message) { close(started); <-release; finished.Add(1) })
	g.BindEntry(2, func(*msg.Message) { finished.Add(1) })
	for _, e := range []addr.EntryID{1, 2} {
		if err := g.Dispatch(e, msg.New()); err != nil {
			t.Fatal(err)
		}
	}
	recv(t, started)
	done := barrierDone(g)
	select {
	case <-done:
		t.Fatal("Barrier returned while an earlier task was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	recv(t, done)
	if n := finished.Load(); n != 2 {
		t.Errorf("Barrier returned with %d of 2 tasks finished", n)
	}
}

func TestBarrierReturnsOnClose(t *testing.T) {
	g := NewManager()
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	g.BindEntry(1, func(*msg.Message) { close(started); <-release })
	if err := g.Dispatch(1, msg.New()); err != nil {
		t.Fatal(err)
	}
	recv(t, started)
	done := barrierDone(g)
	g.Close()
	recv(t, done)
}
