package task

import (
	"errors"
	"sync"

	"repro/internal/addr"
	"repro/internal/msg"
)

// Handler is a routine bound to an entry point. It runs in its own task.
type Handler func(m *msg.Message)

// Filter examines an arriving message before its handler runs. A filter
// returns false to discard the message (for example, the protection tool
// rejects messages from untrusted senders). Filters run in the order they were
// added, on the entry's goroutine, just before the handler would.
type Filter func(entry addr.EntryID, m *msg.Message) bool

// Errors returned by Dispatch.
var (
	ErrClosed  = errors.New("task: manager closed")
	ErrNoEntry = errors.New("task: no handler bound to entry")
)

// Manager owns one process's entry table, filter chain, and its one queue of
// tasks and calls, which it runs in the order the package comment gives. It is
// safe for concurrent use.
type Manager struct {
	mu      sync.Mutex
	entries map[addr.EntryID]Handler
	filters []Filter
	lanes   map[int]*lane // by entry, and the calls' at callLane
	closed  bool

	// How many tasks and calls have been scheduled and finished: a task may
	// start once every call scheduled before it has finished, a call once
	// every task scheduled before it has (queued.seq).
	tasks, tasksDone, calls, callsDone uint64
}

// callLane is the lanes key of the calls.
const callLane = -1

// queued is a task (the handler h for m at entry) or a call fn. seq counts the
// items of the other kind scheduled before it.
type queued struct {
	entry addr.EntryID
	h     Handler
	m     *msg.Message
	fn    func()
	seq   uint64
}

// run runs a call, or a task's filters and, if they all pass, its handler.
func (q queued) run(filters []Filter) {
	if q.fn != nil {
		q.fn()
		return
	}
	for _, f := range filters {
		if !f(q.entry, q.m) {
			return
		}
	}
	q.h(q.m)
}

// lane is one entry's tasks, or the calls, in the order they were scheduled
// (q from head on), and the goroutine that runs them, parked on wake while its
// head may not start.
type lane struct {
	q    []queued
	head int
	wake sync.Cond
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{entries: make(map[addr.EntryID]Handler), lanes: make(map[int]*lane)}
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

// Dispatch schedules a task for the message: the filter chain and, if every
// filter passes, the handler bound to the entry point now. It only queues: it
// neither blocks nor runs application code. Dispatch returns ErrNoEntry when
// nothing is bound to the entry, ErrClosed when the manager has been closed,
// and nil when the task was scheduled.
func (g *Manager) Dispatch(entry addr.EntryID, m *msg.Message) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.entries[entry]
	switch {
	case g.closed:
		return ErrClosed
	case !ok:
		return ErrNoEntry
	}
	g.tasks++
	g.scheduleLocked(int(entry), queued{entry: entry, h: h, m: m, seq: g.calls})
	return nil
}

// Call schedules fn to run once every task and call scheduled before it has
// finished; tasks and calls scheduled after it wait for it. Like Dispatch it
// only queues. A call scheduled on a closed manager, or still queued when it
// closes, never runs.
func (g *Manager) Call(fn func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.closed {
		g.calls++
		g.scheduleLocked(callLane, queued{fn: fn, seq: g.tasks})
	}
}

// scheduleLocked queues q on a lane, starting the lane's goroutine at its first
// item. Caller holds g.mu.
func (g *Manager) scheduleLocked(key int, q queued) {
	l := g.lanes[key]
	if l == nil {
		l = &lane{}
		l.wake.L = &g.mu
		g.lanes[key] = l
		go g.run(l)
	}
	if l.head > len(l.q)/2 { // slide down over what was taken rather than grow
		l.q, l.head = append(l.q[:0], l.q[l.head:]...), 0
	}
	l.q = append(l.q, q)
	g.wakeLocked(l)
}

// run is a lane's goroutine: it takes the lane's head whenever it may start
// (a lane that empties starts over at the front) and runs it, until the manager
// closes.
func (g *Manager) run(l *lane) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.closed {
		if !g.mayStartLocked(l) {
			l.wake.Wait()
			continue
		}
		q, filters := l.q[l.head], g.filters
		l.q[l.head] = queued{}
		if l.head++; l.head == len(l.q) {
			l.q, l.head = l.q[:0], 0
		}
		g.mu.Unlock()
		q.run(filters)
		g.mu.Lock()
		if q.fn == nil {
			g.tasksDone++
		} else {
			g.callsDone++
		}
		for _, o := range g.lanes { // what waited for q: a call, or tasks after one
			g.wakeLocked(o)
		}
	}
}

// mayStartLocked reports whether l's head may start: every item of the other
// kind scheduled before it has finished. Caller holds g.mu.
func (g *Manager) mayStartLocked(l *lane) bool {
	if l.head == len(l.q) {
		return false
	}
	q, done := l.q[l.head], g.callsDone
	if q.fn != nil {
		done = g.tasksDone
	}
	return q.seq == done
}

// wakeLocked wakes l's goroutine if its head may start. Caller holds g.mu.
func (g *Manager) wakeLocked(l *lane) {
	if g.mayStartLocked(l) {
		l.wake.Signal()
	}
}

// Close stops the manager: subsequent Dispatch calls fail and calls are
// dropped. Running tasks and calls are allowed to finish; queued ones are
// discarded, and every lane's goroutine ends, a running one once its task or
// call returns.
func (g *Manager) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	for _, l := range g.lanes {
		l.wake.Broadcast()
	}
	g.lanes = nil
}
