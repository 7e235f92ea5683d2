package task

import (
	"errors"
	"sync"

	"repro/internal/addr"
	"repro/internal/msg"
)

// Handler is a routine bound to an entry point. It runs in its own task.
type Handler func(m *msg.Message)

// Filter examines an arriving message before a task is created for it. A
// filter returns false to discard the message (for example, the protection
// tool rejects messages from untrusted senders). Filters run in the order
// they were added, on the dispatcher's goroutine.
type Filter func(entry addr.EntryID, m *msg.Message) bool

// Errors returned by Dispatch.
var (
	ErrClosed  = errors.New("task: manager closed")
	ErrNoEntry = errors.New("task: no handler bound to entry")
)

// Manager owns one process's entry table, filter chain, and running tasks.
// It is safe for concurrent use.
type Manager struct {
	mu      sync.Mutex
	entries map[addr.EntryID]Handler
	filters []Filter
	workers map[addr.EntryID]chan queued
	running int       // tasks scheduled and not yet finished
	idle    sync.Cond // on mu: running reached zero, or the manager closed
	closed  bool
	done    chan struct{}
}

// queued is one message awaiting its entry worker.
type queued struct {
	h Handler
	m *msg.Message
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	g := &Manager{
		entries: make(map[addr.EntryID]Handler),
		workers: make(map[addr.EntryID]chan queued),
		done:    make(chan struct{}),
	}
	g.idle.L = &g.mu
	return g
}

// BindEntry binds handler h to entry point e, replacing any previous
// binding. Binding a nil handler removes the entry.
func (g *Manager) BindEntry(e addr.EntryID, h Handler) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if h == nil {
		delete(g.entries, e)
		return
	}
	g.entries[e] = h
}

// AddFilter appends a filter to the chain.
func (g *Manager) AddFilter(f Filter) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.filters = append(g.filters, f)
}

// Dispatch runs the filter chain for the message and, if every filter
// passes, schedules a task running the handler bound to the entry point.
// Tasks for the same entry run sequentially in dispatch order; tasks for
// different entries run concurrently. Dispatch returns ErrNoEntry when
// nothing is bound to the entry, ErrClosed when the manager has been
// closed, and nil when a task was scheduled or the message was (silently)
// dropped by a filter.
func (g *Manager) Dispatch(entry addr.EntryID, m *msg.Message) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	filters := make([]Filter, len(g.filters))
	copy(filters, g.filters)
	h, ok := g.entries[entry]
	g.mu.Unlock()

	for _, f := range filters {
		if !f(entry, m) {
			return nil // dropped by a filter; not an error
		}
	}
	if !ok {
		return ErrNoEntry
	}

	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrClosed
	}
	w, exists := g.workers[entry]
	if !exists {
		w = make(chan queued, 4096)
		g.workers[entry] = w
		go g.runEntryWorker(w)
	}
	g.running++
	// Enqueue under the lock so queue order equals dispatch order.
	select {
	case w <- queued{h: h, m: m}:
		g.mu.Unlock()
	default:
		// The entry's queue is saturated: fall back to an unordered task
		// rather than blocking the caller (which is the protocols process).
		g.mu.Unlock()
		go g.run(queued{h: h, m: m})
	}
	return nil
}

// runEntryWorker executes one entry point's tasks sequentially.
func (g *Manager) runEntryWorker(w chan queued) {
	for {
		select {
		case q := <-w:
			g.run(q)
		case <-g.done:
			return
		}
	}
}

// run executes one task and counts it finished.
func (g *Manager) run(q queued) {
	q.h(q.m)
	g.mu.Lock()
	g.running--
	if g.running == 0 {
		g.idle.Broadcast()
	}
	g.mu.Unlock()
}

// Barrier returns once every task scheduled before the call has finished, or
// the manager is closed. It waits until no task is queued or running, so one
// scheduled while it waits holds it back too; called from the goroutine that
// dispatches (the process's delivery queue), it waits for exactly the earlier
// ones.
func (g *Manager) Barrier() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.running > 0 && !g.closed {
		g.idle.Wait()
	}
}

// Close stops the manager: subsequent Dispatch calls fail. Running tasks are
// allowed to finish; queued tasks are discarded.
func (g *Manager) Close() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.done)
		g.idle.Broadcast()
	}
	g.mu.Unlock()
}
