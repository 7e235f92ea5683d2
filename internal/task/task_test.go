package task

import (
	"errors"
	"runtime"
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
	called(t, g) // the filters run on the entry's goroutine, before the call
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
	called(t, g)
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

// called schedules a call and waits for it: every task scheduled before it,
// its filters included, has then finished.
func called(t *testing.T, g *Manager) {
	t.Helper()
	done := make(chan struct{})
	g.Call(func() { close(done) })
	recv(t, done)
}

func TestCallWaitsForEarlierTasks(t *testing.T) {
	g := NewManager()
	defer g.Close()
	called(t, g) // idle: runs at once
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
	done := make(chan int32, 1)
	g.Call(func() { done <- finished.Load() })
	select {
	case <-done:
		t.Fatal("the call ran while an earlier task was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if n := recv(t, done); n != 2 {
		t.Errorf("the call ran with %d of 2 earlier tasks finished", n)
	}
}

func TestCallDroppedOnClose(t *testing.T) {
	g := NewManager()
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	g.BindEntry(1, func(*msg.Message) { close(started); <-release })
	if err := g.Dispatch(1, msg.New()); err != nil {
		t.Fatal(err)
	}
	recv(t, started)
	ran := make(chan struct{}, 2)
	g.Call(func() { ran <- struct{}{} }) // queued behind the running task
	g.Close()
	g.Call(func() { ran <- struct{}{} }) // scheduled on a closed manager
	release <- struct{}{}
	select {
	case <-ran:
		t.Fatal("a call ran after Close")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestLaterTasksWaitForACall: a call holds back every task scheduled after
// it, at every entry, while tasks scheduled before it run.
func TestLaterTasksWaitForACall(t *testing.T) {
	g := NewManager()
	defer g.Close()
	ran := make(chan addr.EntryID, 3)
	for e := addr.EntryID(1); e <= 3; e++ {
		g.BindEntry(e, func(*msg.Message) { ran <- e })
	}
	inCall, release := make(chan struct{}), make(chan struct{})
	_ = g.Dispatch(1, msg.New())
	g.Call(func() { close(inCall); <-release })
	_ = g.Dispatch(2, msg.New())
	_ = g.Dispatch(3, msg.New())
	if e := recv(t, ran); e != 1 {
		t.Fatalf("entry %d ran ahead of the call", e)
	}
	recv(t, inCall)
	select {
	case e := <-ran:
		t.Fatalf("entry %d ran while the call scheduled before it was running", e)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	recv(t, ran)
	recv(t, ran)
}

// TestDispatchRunsNoFilter: filters are application code, and Dispatch is
// called by the protocols process under its lock, so a filter that blocks
// must not hold Dispatch.
func TestDispatchRunsNoFilter(t *testing.T) {
	g := NewManager()
	defer g.Close()
	release := make(chan struct{})
	g.AddFilter(func(addr.EntryID, *msg.Message) bool { <-release; return true })
	ran := make(chan struct{}, 1)
	g.BindEntry(1, func(*msg.Message) { ran <- struct{}{} })
	dispatched := make(chan error, 1)
	go func() { dispatched <- g.Dispatch(1, msg.New()) }()
	if err := recv(t, dispatched); err != nil {
		t.Fatal(err)
	}
	close(release)
	recv(t, ran)
}

// TestBacklogKeepsDispatchOrder: an entry's queue grows instead of
// overflowing, and keeps its order while it is filled and drained at once.
func TestBacklogKeepsDispatchOrder(t *testing.T) {
	g := NewManager()
	defer g.Close()
	const k = 10000
	release := make(chan struct{})
	order := make(chan int64, k)
	g.BindEntry(1, func(m *msg.Message) {
		if m.GetInt("i", -1) == 0 {
			<-release
		}
		order <- m.GetInt("i", -1)
	})
	for i := 0; i < k; i++ {
		if i == k/2 {
			close(release)
		}
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

// TestCloseEndsEveryLane: a manager has a goroutine per entry in use and one
// for its calls, and none once it is closed.
func TestCloseEndsEveryLane(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewManager()
	for e := addr.EntryID(1); e <= 3; e++ {
		g.BindEntry(e, func(*msg.Message) {})
		for i := 0; i < 3; i++ {
			_ = g.Dispatch(e, msg.New())
		}
	}
	called(t, g)
	if n := runtime.NumGoroutine() - before; n > 4 {
		t.Errorf("%d goroutines for 3 entries and the calls", n)
	}
	g.Close()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after Close", runtime.NumGoroutine()-before)
		}
	}
}
