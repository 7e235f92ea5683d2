package coordcohort

import (
	"sync"

	isis "repro"
	"repro/internal/core"
)

// Action computes the reply to a request. It runs in the coordinator only
// (and again in a cohort that takes over after a failure).
type Action func(req *isis.Message) *isis.Message

// GotReply is invoked in a cohort when the coordinator's reply has been
// observed; it receives a copy of the reply.
type GotReply func(reply *isis.Message)

// Tool is the per-process coordinator–cohort machinery. Create one per
// (process, group) pair with New; every member of the group must create its
// own Tool and call Handle for every request the group receives.
type Tool struct {
	p   *isis.Process
	gid isis.Address

	mu      sync.Mutex
	watches map[int64]*watch // keyed by the request's session id
	// completed remembers recently observed reply copies whose request had
	// not yet been handled locally (the copy can overtake the request when
	// they travel to this site over different paths); bounded FIFO.
	completed core.BoundedLog[int64, *isis.Message]
}

const completedLimit = 256

// watch is a cohort-side record of one computation being monitored.
type watch struct {
	req      *isis.Message
	plist    []isis.Address
	action   Action
	gotReply GotReply
	done     bool
}

// New creates the tool for one group member. It binds the generic
// GENERIC_CC_REPLY entry point and monitors the group so cohorts learn about
// coordinator failures.
func New(p *isis.Process, gid isis.Address) *Tool {
	t := &Tool{p: p, gid: gid, watches: make(map[int64]*watch),
		completed: core.NewBoundedLog[int64, *isis.Message](completedLimit)}
	p.BindEntry(isis.EntryGenericCCRply, t.onReplyCopy)
	p.Monitor(gid, t.onViewChange)
	return t
}

// Handle is called by every group member that received the request msg. The
// participant list plist names the members able to perform this action (in
// the same order at every member); action computes the result; gotReply is
// invoked in cohorts when the coordinator's reply is observed. Members not
// in plist send a null reply so the caller never waits for them.
func (t *Tool) Handle(req *isis.Message, plist []isis.Address, action Action, gotReply GotReply) {
	view, ok := t.p.CurrentView(t.gid)
	if !ok {
		return
	}
	me := t.p.Address()
	if !contains(plist, me) {
		_ = t.p.NullReply(req)
		return
	}
	coord := Choose(req.Sender(), view, plist)
	if coord == me.Base() {
		// Coordinator: perform the action synchronously and send the reply
		// (with copies to the cohorts so they stop monitoring).
		result := action(req)
		t.sendResult(req, result, plist)
		return
	}
	// Cohort: remember the computation and wait for the reply copy or a
	// coordinator failure. If the reply copy already arrived (it can
	// overtake the request), complete immediately.
	session := req.Session()
	t.mu.Lock()
	if reply, ok := t.completed.Get(session); ok {
		t.completed.Delete(session)
		t.mu.Unlock()
		if gotReply != nil {
			gotReply(reply)
		}
		return
	}
	t.watches[session] = &watch{req: req, plist: plist, action: action, gotReply: gotReply}
	t.mu.Unlock()
}

// sendResult replies to the caller and copies the reply to the cohorts.
func (t *Tool) sendResult(req *isis.Message, result *isis.Message, plist []isis.Address) {
	if result == nil {
		result = isis.NewMessage()
	}
	cohorts := make([]isis.Address, 0, len(plist)-1)
	for _, a := range plist {
		if a.Base() != t.p.Address().Base() {
			cohorts = append(cohorts, a)
		}
	}
	result = result.Clone()
	result.PutInt("cc-session", req.Session())
	_ = t.p.ReplyWithCopies(req, result, cohorts, isis.EntryGenericCCRply)
}

// onReplyCopy runs in a cohort when the coordinator's reply copy arrives: the
// computation succeeded, so the monitor is deactivated and gotReply invoked.
func (t *Tool) onReplyCopy(m *isis.Message) {
	session := m.GetInt("cc-session", m.GetInt("cc-origin-session", 0))
	t.mu.Lock()
	w, ok := t.watches[session]
	if ok {
		delete(t.watches, session)
	} else {
		// The copy overtook the request: remember it so Handle can complete
		// the computation the moment the request arrives.
		if _, dup := t.completed.Get(session); !dup {
			t.completed.Put(session, m)
		}
	}
	t.mu.Unlock()
	if ok && !w.done && w.gotReply != nil {
		w.gotReply(m)
	}
}

// onViewChange runs on every membership change: if the coordinator of a
// monitored computation has failed before its reply was observed, the
// cohorts re-run the selection rule on the surviving participants; the one
// now chosen performs the action and replies (taking over the computation).
func (t *Tool) onViewChange(view isis.View) {
	type takeover struct {
		w *watch
	}
	var mine []takeover
	t.mu.Lock()
	for session, w := range t.watches {
		survivors := make([]isis.Address, 0, len(w.plist))
		for _, a := range w.plist {
			if view.Contains(a) {
				survivors = append(survivors, a)
			}
		}
		if len(survivors) == 0 {
			delete(t.watches, session)
			continue
		}
		coord := Choose(w.req.Sender(), view, survivors)
		if coord == t.p.Address().Base() {
			delete(t.watches, session)
			mine = append(mine, takeover{w})
		} else {
			w.plist = survivors
		}
	}
	t.mu.Unlock()

	for _, tk := range mine {
		result := tk.w.action(tk.w.req)
		t.sendResult(tk.w.req, result, tk.w.plist)
	}
}

// Choose applies the paper's deterministic coordinator-selection rule
// (Section 6): prefer an operational participant at the caller's site (to
// minimise latency); otherwise use the caller's site id as a pseudo-random
// index into the participant list and take the first operational process in
// a circular scan. Because all members evaluate it on the same view and the
// same participant list, they agree without communicating.
func Choose(caller isis.Address, view isis.View, plist []isis.Address) isis.Address {
	operational := make([]isis.Address, 0, len(plist))
	for _, a := range plist {
		if view.Contains(a) {
			operational = append(operational, a.Base())
		}
	}
	if len(operational) == 0 {
		return isis.Address{}
	}
	for _, a := range operational {
		if a.Site == caller.Site {
			return a
		}
	}
	start := int(caller.Site) % len(operational)
	return operational[start]
}

func contains(list []isis.Address, a isis.Address) bool {
	for _, x := range list {
		if x.Base() == a.Base() {
			return true
		}
	}
	return false
}
