package isis

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/protos"
	"repro/internal/task"
)

// Errors returned by Process operations.
var (
	ErrProcessKilled = errors.New("isis: process has been killed")
	ErrNoResponders  = errors.New("isis: all destinations failed before enough replies arrived")
	ErrReplyTimeout  = errors.New("isis: timed out waiting for replies")
	ErrNotARequest   = errors.New("isis: message carries no reply session")
)

// Process is a client process of the ISIS system: the unit that joins
// process groups, sends and receives multicasts, and runs tasks. A Process
// is created with Site.Spawn and is bound to its site for life (the paper's
// processes do not migrate; migration is expressed as joining from a new
// process plus a state transfer, as in Section 3.8).
type Process struct {
	site         *Site
	addr         Address
	tasks        *task.Manager
	replyTimeout time.Duration

	mu          sync.Mutex
	killed      bool
	session     int64
	pending     map[int64]*pendingCall
	monitors    map[Address]map[int]func(View)
	nextMonitor int
	lastViews   map[Address]View
}

// pendingCall tracks one Cast waiting for replies. The process's mu guards
// the two lists; wake nudges the waiting Cast after a reply was recorded or a
// view installed.
type pendingCall struct {
	replies   []*Message // normal replies, in arrival order
	responded []Address  // every destination heard from, normally or with a null reply
	wake      chan struct{}
}

// nudge wakes the waiting Cast; one pending wake-up is enough.
func (c *pendingCall) nudge() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// record files a reply under p.mu and reports whether it was the first from
// its sender; duplicate replies are discarded silently. A null reply just
// marks the destination as having responded.
func (c *pendingCall) record(r *Message) bool {
	sender := r.Sender()
	if slices.Contains(c.responded, sender) {
		return false
	}
	c.responded = append(c.responded, sender)
	if r.GetInt(msg.FReply, replyNormal) == replyNormal {
		c.replies = append(c.replies, r)
	}
	return true
}

// Address returns the process's ISIS address.
func (p *Process) Address() Address { return p.addr }

// Site returns the site the process runs at.
func (p *Process) Site() *Site { return p.site }

// Tasks exposes the process's task manager (entry bindings, filters).
func (p *Process) Tasks() *task.Manager { return p.tasks }

// BindEntry binds a handler routine to an entry point; a new task runs the
// handler for every message delivered to the entry (Section 4.1 "Entries").
func (p *Process) BindEntry(e EntryID, h func(*Message)) {
	if h == nil {
		p.tasks.BindEntry(e, nil)
		return
	}
	p.tasks.BindEntry(e, func(m *msg.Message) { h(m) })
}

// AddFilter appends a message filter; filters run on the entry's task just
// before its handler and may drop the message (Section 4.1 "Filters", used by
// the protection tool).
func (p *Process) AddFilter(f func(EntryID, *Message) bool) {
	p.tasks.AddFilter(func(e EntryID, m *msg.Message) bool { return f(e, m) })
}

// Kill simulates a crash of this process. Its groups observe a failure.
func (p *Process) Kill() error {
	p.mu.Lock()
	if p.killed {
		p.mu.Unlock()
		return nil
	}
	p.killed = true
	p.mu.Unlock()
	p.tasks.Close()
	p.site.mu.Lock()
	delete(p.site.procs, p)
	p.site.mu.Unlock()
	return p.site.daemon.KillProcess(p.addr)
}

// Alive reports whether the process has not been killed.
func (p *Process) Alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.killed
}

// onDeliver is the daemon's delivery hand-off, called under its lock: a reply
// is filed with the Cast waiting for it, anything else is queued as a task at
// the destination entry point.
func (p *Process) onDeliver(entry EntryID, m *Message) {
	if m.Has(msg.FReply) {
		p.mu.Lock()
		if call := p.pending[m.Session()]; call != nil && call.record(m) {
			call.nudge()
		}
		p.mu.Unlock()
		return
	}
	_ = p.tasks.Dispatch(entry, m)
}

// onView is the daemon's membership callback, run as a call on the process's
// queue: it records the view and notifies the monitor routines (pg_monitor).
func (p *Process) onView(v View) {
	p.mu.Lock()
	if p.lastViews == nil {
		p.lastViews = make(map[Address]View)
	}
	p.lastViews[v.Group] = v
	// A destination some waiting Cast counts on may be gone with this view.
	for _, call := range p.pending {
		call.nudge()
	}
	ids := make([]int, 0, len(p.monitors[v.Group]))
	for id := range p.monitors[v.Group] {
		ids = append(ids, id)
	}
	sort.Ints(ids) // registration order: monitor ids are allocated monotonically
	cbs := make([]func(View), 0, len(ids))
	for _, id := range ids {
		cbs = append(cbs, p.monitors[v.Group][id])
	}
	p.mu.Unlock()
	for _, cb := range cbs {
		cb(v)
	}
}

// ---------------------------------------------------------------------------
// Process groups

// CreateGroup creates a new process group with this process as its first
// member (pg_create).
func (p *Process) CreateGroup(name string) (View, error) {
	if !p.Alive() {
		return View{}, ErrProcessKilled
	}
	return p.site.daemon.CreateGroup(p.addr, name)
}

// Lookup resolves a symbolic group name to a group address (pg_lookup).
func (p *Process) Lookup(name string) (Address, error) {
	return p.site.daemon.Lookup(name)
}

// JoinOptions configures Join.
type JoinOptions struct {
	// StateReceiver, when non-nil, requests a state transfer from the
	// group's oldest member (join_and_xfer); the callback receives the
	// state blocks, the last one flagged with last=true. Deliveries to the
	// new member are held until the transfer completes.
	StateReceiver func(block []byte, last bool)
}

// Join adds the process to an existing group (pg_join / join_and_xfer) and
// returns the first view that includes it.
func (p *Process) Join(gid Address, opts JoinOptions) (View, error) {
	if !p.Alive() {
		return View{}, ErrProcessKilled
	}
	return p.site.daemon.Join(p.addr, gid, toProtosJoin(opts))
}

// JoinByName looks the group up by name and joins it.
func (p *Process) JoinByName(name string, opts JoinOptions) (View, error) {
	gid, err := p.Lookup(name)
	if err != nil {
		return View{}, err
	}
	return p.Join(gid, opts)
}

// Leave removes the process from a group (pg_leave).
func (p *Process) Leave(gid Address) error {
	if !p.Alive() {
		return ErrProcessKilled
	}
	return p.site.daemon.Leave(p.addr, gid)
}

// Monitor registers a routine invoked on every membership change of the
// group (pg_monitor). Callbacks run in delivery order relative to the
// process's handlers: after the handlers of the messages delivered before the
// view have returned, and before those of the messages after it start — unlike
// the site-level event stream, which is asynchronous. The returned cancel removes
// the registration; no callback runs after cancel returns while p.mu is free.
func (p *Process) Monitor(gid Address, cb func(View)) (cancel func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	base := gid.Base()
	if p.monitors[base] == nil {
		p.monitors[base] = make(map[int]func(View))
	}
	p.nextMonitor++
	id := p.nextMonitor
	p.monitors[base][id] = cb
	return func() {
		p.mu.Lock()
		delete(p.monitors[base], id)
		p.mu.Unlock()
	}
}

// Outcome reports the fate of an earlier group request (a GBCAST Cast
// tracked with TrackRequest) whose call failed or timed out: OutcomeCommitted
// when some member executed it, OutcomeAborted when it provably never will,
// OutcomeUnknown when the system cannot yet tell — ask again after the
// partition heals. The answer is correct across coordinator fail-over: an
// Unknown request is settled by running a seal through the group, after
// which the request either is committed somewhere or can never commit.
func (p *Process) Outcome(rid RequestID) (Outcome, error) {
	if !p.Alive() {
		return OutcomeUnknown, ErrProcessKilled
	}
	return p.site.daemon.RequestOutcome(int64(rid))
}

// CurrentView returns the view of a group this process was last handed. Views
// are handed in delivery order with the handlers, so a handler reads the view
// its message was delivered in. For a group it has been handed no view of, it
// returns the site daemon's.
func (p *Process) CurrentView(gid Address) (View, bool) {
	p.mu.Lock()
	v, ok := p.lastViews[gid.Base()]
	p.mu.Unlock()
	if !ok {
		v, ok = p.site.daemon.CurrentView(gid)
		v = v.Clone() // the daemon's own is not the application's to write
	}
	return v, ok
}

// SetStateProvider registers the routine that encodes this member's copy of
// the group state when another process joins with a state transfer. Only
// the group's oldest member is asked to provide state. The provider runs
// once the handlers of every message delivered before the join have returned,
// and before any delivered after it starts, so the state is a consistent cut.
func (p *Process) SetStateProvider(gid Address, provider func() [][]byte) error {
	return p.site.daemon.SetStateProvider(p.addr, gid, provider)
}

// SetStateReceiver registers the routine that restores this member's copy of
// the group state from a transfer. Joining with JoinOptions.StateReceiver
// registers one implicitly; group creators — which never joined — use this
// call so that a partition-merge rejoin can rebuild their state from the
// primary partition.
func (p *Process) SetStateReceiver(gid Address, recv func(block []byte, last bool)) error {
	return p.site.daemon.SetStateReceiver(p.addr, gid, recv)
}

// GroupPrimary reports whether this process's site holds a primary copy of
// the group. While it reports false the group is read-only here: Cast, Join
// and Leave return ErrNonPrimary until the partition heals and the merge
// protocol rejoins the primary partition.
func (p *Process) GroupPrimary(gid Address) bool {
	return p.site.daemon.GroupPrimary(gid)
}

// Flush blocks until the process's asynchronous multicasts are ordered (an
// ABCAST cast away from the holder of its group's view has come back stamped
// and been delivered, so a CBCAST cast after Flush follows it everywhere) and
// all its site has sent is acknowledged (a steady sender there can time it
// out); the log and stable-storage tools call it (Section 3.2, footnote 3).
func (p *Process) Flush() error {
	if !p.Alive() {
		return ErrProcessKilled
	}
	return p.site.daemon.Flush(p.addr)
}

func toProtosJoin(opts JoinOptions) protos.JoinOptions {
	return protos.JoinOptions{
		WantState:     opts.StateReceiver != nil,
		StateReceiver: opts.StateReceiver,
	}
}
