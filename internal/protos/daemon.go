package protos

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/fdetect"
	"repro/internal/msg"
	"repro/internal/netback"
	"repro/internal/transport"
)

// DeliverFunc hands a local process an application message or a reply,
// carrying the toolkit system fields (sender, group, view id, protocol, entry).
// It is called under the daemon lock, in delivery order, and must not block or
// call the daemon: it files a reply or queues the message, and nothing else.
type DeliverFunc func(entry addr.EntryID, m *msg.Message)

// CallFunc hands a local process a call (a view callback, a state block or a
// state capture) to run after every item handed to it before and ahead of every
// item after. It is called and must behave as DeliverFunc is.
type CallFunc func(fn func())

// ViewFunc receives a membership change notification for a group the
// process belongs to. It runs as a call, so in order relative to message
// deliveries, which is what makes the ranking trick of Section 3.2 safe.
type ViewFunc func(view core.View)

// Config parameterizes a Daemon.
type Config struct {
	// Site is this daemon's site identifier.
	Site addr.SiteID
	// Incarnation distinguishes restarts of the same site.
	Incarnation addr.Incarnation
	// Network is the fabric the site attaches to: the simulated LAN
	// (*simnet.Network) or the TCP-loopback backend (*tcpnet.Network).
	Network netback.Network
	// Transport optionally overrides the transport configuration; the zero
	// value derives it from the network configuration.
	Transport transport.Config
	// Detector optionally overrides the failure-detector configuration;
	// the zero value uses fdetect.DefaultConfig.
	Detector fdetect.Config
	// CallTimeout bounds internal request/response interactions (lookups,
	// coordinator requests, relays, flush prepares). Defaults to 5 s.
	CallTimeout time.Duration
	// DisableHeartbeats leaves the failure detector stopped: no peer is polled
	// or sent a keepalive, and no site is suspected but by hand. Benchmarks use
	// it for quiet links.
	DisableHeartbeats bool
}

// Counters tallies protocol activity; the Table 1 harness reads them before
// and after each toolkit call to report the multicast cost of the call. It is
// defined in the events package so the observability layer and the protocol
// layer share one vocabulary.
type Counters = events.Counters

// Errors returned by daemon operations.
var (
	ErrClosed        = errors.New("protos: daemon closed")
	ErrUnknownProc   = errors.New("protos: unknown local process")
	ErrUnknownGroup  = errors.New("protos: unknown group")
	ErrNotMember     = errors.New("protos: process is not a member")
	ErrTimeout       = errors.New("protos: request timed out")
	ErrDeadProcess   = errors.New("protos: process has failed")
	ErrEmptyDest     = errors.New("protos: no destinations")
	ErrBadProtocol   = errors.New("protos: unsupported protocol for destination set")
	ErrGroupVanished = errors.New("protos: group has no members")
	ErrNonPrimary    = errors.New("protos: group is in a non-primary partition (read-only)")
)

// localProc is one client process registered at this site.
type localProc struct {
	addr        addr.Address
	deliver     DeliverFunc
	call        CallFunc
	deliverView ViewFunc
	alive       bool
	nextSeq     uint64 // multicast sequence (msg ids)

	// relayMu serializes this process's relayed CBCASTs across the
	// acknowledged exchange and guards relayed: per destination group, the
	// stamp of the last one acknowledged, which the next relay names as the
	// cast it must come after.
	relayMu sync.Mutex
	relayed map[addr.Address]relayStamp
}

// queued is one item handed to a process: the message m for entry (a data or
// reply delivery), or a call fn (a view callback, a state block, a state
// capture).
type queued struct {
	entry addr.EntryID
	m     *msg.Message
	fn    func()
}

// memberState is the per-(group, local member) state: what is handed to the
// member, and when. The order is the copy's (groupState).
type memberState struct {
	proc *localProc

	// joinedView is the view in which this member entered the group at this
	// site. A GBCAST flush re-disseminates messages some member sites
	// missed, but a member that joined after a message was sent must not
	// receive it — its state-transfer cut already covers it (this matters
	// after a partition merge, when a freshly rejoined member's empty
	// recent-delivery set would otherwise read as "missed everything").
	joinedView core.ViewID

	awaitingState bool     // a joiner that has not yet received the group state
	held          []queued // deliveries deferred until the state arrives
	stateRecv     func(block []byte, last bool)
	stateProv     func() [][]byte

	// xferID identifies the state-transfer attempt the blocks in xferBuf
	// belong to (the view id the provider shipped under). Blocks buffer here
	// and reach the receiver only once the final block arrives, so a
	// transfer restarted from a new provider after the old one failed simply
	// discards the partial buffer instead of delivering duplicate blocks.
	xferID  uint64
	xferBuf [][]byte
}

// groupState is the per-group state kept at every site hosting members.
type groupState struct {
	view     core.View
	prevView core.View                     // the view this site held before the current one
	members  map[addr.Address]*memberState // local members only

	// The copy's one ordering state. The site runs CBCAST once on behalf of
	// every member it hosts and hands each released message to all of them
	// (releaseLocked): they see the same inputs under one lock and a view
	// installs for all of them at once, so a queue each would only repeat
	// this one. Re-disseminated messages go in the same way.
	//
	// An ABCAST is a CBCAST of rank 0, stamped by the view's holder (its
	// oldest member's site), so this queue orders ABCASTs too; at the holder
	// it also holds the submissions its clock does not yet dominate.
	// submitted holds this site's casts the holder has not yet sent back
	// stamped, by id.
	causal    *core.CausalQueue
	submitted map[core.MsgID]*dataPacket

	// The copy's lifecycle (lifecycle.go). phase is written by Daemon.step
	// alone; parked is what the open flush holds back, which step feeds back
	// in when the flush ends; flushDeadline is the
	// scan tick at which the flush now open counts as stale (the tick then
	// feeds the copy inWatchdog); carried is the call id of this site's
	// request try that carried the open flush's ack (tryLocked), 0 once any
	// other input reaches the copy; survey is the merge attempt's, while the
	// copy is merging (merge.go).
	phase         phase
	parked        []heldPacket
	flushDeadline uint64
	carried       int64
	survey        *survey

	// recent holds the last delivered data packets, which a flush
	// re-disseminates to members that missed them.
	recent core.BoundedLog[core.MsgID, []byte]

	// Coordinator-side state (only used while this site hosts the acting
	// coordinator): the requests waiting and the round open (gbcast.go).
	gbQueue []gbWork
	round   *gbRound

	// marks is the site's record of which GBCAST request ids have been
	// settled here (requestmarks.go).
	marks requestMarks
}

const recentLimit = 256

// newGroupState makes a group copy. It stamps for whichever local member
// sends, so its causal queue has no rank of its own; one made for a view yet
// to be installed (no members) gets its clock at the install.
func newGroupState(view core.View) *groupState {
	return &groupState{
		view:      view,
		members:   make(map[addr.Address]*memberState),
		causal:    core.NewCausalQueue(-1, view.Size()),
		submitted: make(map[core.MsgID]*dataPacket),
		recent:    core.NewBoundedLog[core.MsgID, []byte](recentLimit),
		marks:     newRequestMarks(),
	}
}

// Daemon is the protocols process of one site.
type Daemon struct {
	cfg  Config
	site addr.SiteID
	gen  *addr.Generator
	net  netback.Network
	ep   netback.Endpoint
	tr   *transport.Transport
	det  *fdetect.Detector

	mu          sync.Mutex
	procs       map[addr.Address]*localProc
	groups      map[addr.Address]*groupState
	remoteViews map[addr.Address]core.View
	nameCache   map[string]addr.Address
	failedProcs map[addr.Address]bool
	suspected   map[addr.SiteID]bool
	calls       map[int64]*pendingCall
	nextCall    int64
	nextReqID   int64
	// pendingJoin holds the state receiver a local process asked to join a
	// group with, until the view change that adds it is installed.
	pendingJoin map[joinKey]func(block []byte, last bool)

	// requests queues this daemon's GBCAST requests per group (groups.go).
	requests map[addr.Address][]*request

	// bus carries the operational event stream for this site; emitters
	// publish from protocol paths (often with d.mu held — the bus has its
	// own lock and never calls back into the daemon).
	bus *events.Bus

	// reqLog is the requester-side record of GBCAST request ids this daemon
	// minted: which group each went to and whether the call committed, is
	// still pending, or was given up on (timed out / errored with the
	// outcome unresolved). RequestOutcome consults it and, for given-up
	// ids, settles the outcome with a gbSeal round.
	reqLog core.BoundedLog[int64, reqRecord]

	// parked holds the members whose rejoin failed after their group copy was
	// discarded (merge.go): the scan tick files each one's retry, one at a time.
	parked map[joinKey]*rejoin

	// tick counts the scan ticks, the daemon's one clock, every scanInterval
	// (CallTimeout/4, 1–50 ms): every deadline it keeps
	// is a value of tick. wake (on mu) is broadcast by every tick, when a
	// copy's flush, a request or a merge attempt ends and on Close: senders
	// blocked by a flush (settledGroupLocked), a request's or an attempt's
	// caller (ask, MergeGroup) and a relay's retries (nextTick) wait on it.
	tick         uint64
	scanInterval time.Duration
	wake         sync.Cond

	counters Counters
	closed   bool

	unwatchLinks func()        // unregisters the link watcher on Close
	stopScan     chan struct{} // closed by Close: stops the scan loop

	wg sync.WaitGroup
}

// New creates and starts a daemon at the given site.
func New(cfg Config) (*Daemon, error) {
	if cfg.Network == nil {
		return nil, errors.New("protos: Config.Network is required")
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	// Fill unset transport parameters from the network defaults while
	// keeping explicit overrides (the batching ablation sets only flags).
	trCfg := cfg.Transport
	trDef := transport.DefaultConfig(cfg.Network.Profile())
	if trCfg.MaxPacket == 0 {
		trCfg.MaxPacket = trDef.MaxPacket
	}
	if netMax := cfg.Network.Profile().MaxPacket; netMax > 0 && trCfg.MaxPacket > netMax {
		// A frame larger than the network accepts would fail asynchronously
		// in the transport's flusher, where no error can reach the sender;
		// clamp here, where the network's limit is known.
		trCfg.MaxPacket = netMax
	}
	if trCfg.RetransmitInterval == 0 {
		trCfg.RetransmitInterval = trDef.RetransmitInterval
	}
	if trCfg.AckDelay == 0 {
		trCfg.AckDelay = trDef.AckDelay
	}
	if trCfg.Epoch == 0 {
		// Stream epochs derive from the incarnation so peers distinguish a
		// restarted site's fresh numbering from duplicate traffic.
		trCfg.Epoch = uint64(cfg.Incarnation) + 1
	}
	detCfg := cfg.Detector
	if detCfg.HeartbeatInterval == 0 {
		detCfg = fdetect.DefaultConfig()
	}

	d := &Daemon{
		cfg:         cfg,
		site:        cfg.Site,
		gen:         addr.NewGenerator(cfg.Site, cfg.Incarnation),
		net:         cfg.Network,
		procs:       make(map[addr.Address]*localProc),
		groups:      make(map[addr.Address]*groupState),
		remoteViews: make(map[addr.Address]core.View),
		nameCache:   make(map[string]addr.Address),
		failedProcs: make(map[addr.Address]bool),
		suspected:   make(map[addr.SiteID]bool),
		calls:       make(map[int64]*pendingCall),
		pendingJoin: make(map[joinKey]func(block []byte, last bool)),
		requests:    make(map[addr.Address][]*request),
		parked:      make(map[joinKey]*rejoin),
		bus:         events.NewBus(cfg.Site),
		reqLog:      core.NewBoundedLog[int64, reqRecord](reqLogLimit),
		stopScan:    make(chan struct{}),
	}
	d.wake.L = &d.mu
	d.scanInterval = min(max(cfg.CallTimeout/4, time.Millisecond), 50*time.Millisecond)
	ep, err := cfg.Network.Attach(cfg.Site, trCfg.Epoch)
	if err != nil {
		return nil, err
	}
	d.ep = ep
	// The transport's receive loop may hand over a packet at once (one already
	// on its way to a restarting site): it waits until the daemon is whole.
	whole := make(chan struct{})
	tr, err := transport.New(d.ep, trCfg, func(from addr.SiteID, raw []byte) {
		<-whole
		d.handleTransport(from, raw)
	})
	if err != nil {
		d.ep.Close()
		return nil, err
	}
	d.tr = tr
	d.det = fdetect.New(cfg.Site, detCfg, tr.Poll, d.onDetectorEvent)
	close(whole)
	if !cfg.DisableHeartbeats {
		d.det.Start()
	}
	// A fabric that observes link transitions (both in-tree fabrics, through
	// netback.Faults) has them published; a healed link needs no probe, as the
	// next poll's keepalive crosses it.
	if lw, ok := cfg.Network.(netback.LinkWatcher); ok {
		d.unwatchLinks = lw.WatchLinks(func(ev netback.LinkEvent) {
			peer, kind := ev.B, events.LinkDown
			if d.site == ev.B {
				peer = ev.A
			}
			if ev.Up {
				kind = events.LinkUp
			}
			if d.site == ev.A || d.site == ev.B {
				d.bus.Publish(events.Event{Kind: kind, Peer: peer})
			}
		})
	}
	d.wg.Add(1)
	go d.runScan()
	return d, nil
}

// Site returns the daemon's site id.
func (d *Daemon) Site() addr.SiteID { return d.site }

// Counters returns a snapshot of the protocol counters.
func (d *Daemon) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters
}

// Close stops the daemon, modelling a site crash: the transport and failure
// detector stop, and the site detaches from the network. Other sites will
// detect the crash by timeout.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.wake.Broadcast()
	d.mu.Unlock()

	d.bus.Close()
	if d.unwatchLinks != nil {
		d.unwatchLinks()
	}
	d.det.Stop()
	d.tr.Close()
	d.ep.Close()
	// Only now, with the site off the network, do the calls and requests still
	// waiting end, each once, and the parked members unpark: whatever callers
	// do next cannot reach a peer as this site's dying words.
	d.mu.Lock()
	d.endCallsLocked(ErrClosed, func(*pendingCall) bool { return true })
	for gid, q := range d.requests {
		for ; len(q) > 0; q = d.requests[gid] {
			d.endLocked(gid, q[0], nil, ErrClosed)
		}
	}
	clear(d.requests)
	clear(d.parked)
	d.mu.Unlock()
	close(d.stopScan)
	d.wg.Wait()
}

// RegisterProcess creates a new local process, handed its messages by deliver
// and its calls by call, and returns its address. The view callback (which may
// be nil) receives membership changes of the groups the process joins.
func (d *Daemon) RegisterProcess(deliver DeliverFunc, call CallFunc, view ViewFunc) (addr.Address, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return addr.Nil, ErrClosed
	}
	a := d.gen.NextProcess()
	p := &localProc{
		addr:        a,
		deliver:     deliver,
		call:        call,
		deliverView: view,
		alive:       true,
		relayed:     make(map[addr.Address]relayStamp),
	}
	d.procs[a] = p
	return a, nil
}

// enqueue hands an item to a live process of an open daemon. Caller holds d.mu,
// so the process is handed its items in delivery order.
func (d *Daemon) enqueue(p *localProc, q queued) {
	switch {
	case !p.alive || d.closed:
	case q.fn != nil:
		p.call(q.fn)
	default:
		p.deliver(q.entry, q.m)
	}
}

// KillProcess simulates the crash of a local process: it stops receiving
// messages and is removed (by view changes) from every group it belonged
// to. The local monitoring mechanism detects process crashes immediately
// (Section 2.1), so unlike a site crash no timeout is involved.
func (d *Daemon) KillProcess(p addr.Address) error {
	d.mu.Lock()
	lp, ok := d.procs[p.Base()]
	if !ok {
		d.mu.Unlock()
		return ErrUnknownProc
	}
	if !lp.alive {
		d.mu.Unlock()
		return nil
	}
	lp.alive = false
	d.failedProcs[p.Base()] = true
	for gid, gs := range d.groups {
		if _, isMember := gs.members[p.Base()]; isMember {
			d.requestRemovalLocked(gid, []addr.Address{p.Base()}, false)
		}
	}
	d.driveLocked()
	d.mu.Unlock()
	return nil
}

// Events subscribes to this site's operational event stream. The filter
// restricts the stream (the zero Filter matches everything); buf sizes the
// subscriber's bounded queue (<=0 selects events.DefaultQueue). The returned
// cancel unsubscribes and closes the channel; the channel also closes when
// the daemon shuts down.
func (d *Daemon) Events(f events.Filter, buf int) (<-chan events.Event, func()) {
	return d.bus.Subscribe(f, buf)
}

// EventStats reports the bus's publish and drop counters.
func (d *Daemon) EventStats() events.Stats { return d.bus.Stats() }

// AnnounceRestart publishes a SiteRestart event; the cluster harness calls it
// when a site comes back with a new incarnation.
func (d *Daemon) AnnounceRestart() {
	d.bus.Publish(events.Event{Kind: events.SiteRestart, Detail: fmt.Sprintf("incarnation %d", d.cfg.Incarnation)})
}

// ---------------------------------------------------------------------------
// Transport plumbing and call helper

// sendRaw transmits pre-encoded packet bytes, which the transport keeps, to a site.
func (d *Daemon) sendRaw(to addr.SiteID, raw []byte) error {
	return d.tr.Send(to, raw)
}

// fanoutRaw ships the same encoded packet to every listed site except this
// one. Every destination's send window refers to the one slice until its ack
// arrives, so the caller gives it up: it is never written again.
func (d *Daemon) fanoutRaw(sites []addr.SiteID, raw []byte) {
	for _, s := range sites {
		if s == d.site {
			continue
		}
		_ = d.sendRaw(s, raw)
	}
}

// answer is what a call is answered with: what its answer packet decoded to (or
// the handler built, for a site's request of itself), or the error it carries.
type answer struct {
	gb    *gbPacket     // ptGbDone; a ptGbAck sent
	look  *lookupPacket // ptLookupResp
	stamp relayStamp    // ptRelayAck
	err   error         // ptError, restored to its sentinel
}

// pendingCall is one exchange awaiting its answer: the waiter it is filed
// with, the type it comes as, the site asked and the tick it times out at.
type pendingCall struct {
	val      filer
	want     byte
	site     addr.SiteID // 0: a broadcast question, answered by whoever can
	deadline uint64
}

// filer is a call's waiter (a request, a merge survey, a blocked caller),
// filed each answer and the call's end, an answer carrying why, in their hold.
type filer interface {
	fileLocked(d *Daemon, call int64, a answer)
}

// caller is a blocked caller's waiter: answers queue for await, one finding
// the buffer full dropped as a lost packet would be, and the call's end closes
// the channel, why recorded first, so await returns it after those queued.
type caller struct {
	ch       chan answer
	err      error
	deadline uint64 // the call's
}

func (c *caller) fileLocked(d *Daemon, call int64, a answer) {
	if _, live := d.calls[call]; live {
		select {
		case c.ch <- a:
		default:
		}
		return
	}
	c.err = a.err
	close(c.ch)
}

// newCallLocked registers an exchange with a site, answered by a packet of
// type want (or ptError) filed with val, and returns its id. Caller holds d.mu.
func (d *Daemon) newCallLocked(to addr.SiteID, want byte, val filer) int64 {
	d.nextCall++
	d.calls[d.nextCall] = &pendingCall{val: val, want: want, site: to, deadline: d.deadlineLocked(d.cfg.CallTimeout)}
	return d.nextCall
}

// newCall registers an exchange a caller blocks on, ended on a closed daemon;
// a broadcast question (a lookup) queues an answer from each site.
func (d *Daemon) newCall(to addr.SiteID, want byte) (int64, *caller) {
	c := &caller{ch: make(chan answer, 1+7*int(bit(to == 0)))}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.newCallLocked(to, want, c)
	if c.deadline = d.calls[id].deadline; d.closed {
		d.endCallsLocked(ErrClosed, func(o *pendingCall) bool { return o.val == c })
	}
	return id, c
}

// dropCall removes a pending call.
func (d *Daemon) dropCall(id int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.calls, id)
}

// endCallsLocked ends the matching calls with err: the scan tick's ErrTimeout,
// the failure handler's errSiteFailed and Close's ErrClosed. A call leaves the
// table before its waiter is filed the end, so a late answer finds none.
// Caller holds d.mu.
func (d *Daemon) endCallsLocked(err error, match func(*pendingCall) bool) {
	for id, c := range d.calls {
		if match(c) {
			delete(d.calls, id)
			c.val.fileLocked(d, id, answer{err: err})
		}
	}
}

// newReqID mints a stable, globally unique GBCAST request id. The id
// travels with the request across coordinator fail-over re-submissions and
// with the resulting commit, so a request is executed at most once no
// matter how many coordinators handle it. The incarnation participates so
// that a restarted site's fresh counter can never collide with ids its
// previous incarnation already committed (a collision would make the
// commit-record dedupe swallow the restarted site's first requests).
func (d *Daemon) newReqIDLocked() int64 {
	d.nextReqID++
	return (int64(d.site)<<16|int64(d.cfg.Incarnation)&0xffff)<<32 | d.nextReqID&0xffffffff
}

// errSiteFailed ends a call in flight to a site the failure detector declared
// dead (handleSiteFailure).
var errSiteFailed = errors.New("protos: site failed")

// errNotCoordinator refuses a GBCAST request at a site not acting as coordinator.
var errNotCoordinator = errors.New("protos: not the group's acting coordinator")

// respondLocked files an answer, come as a packet of type pt, with a pending
// call's waiter, if the call still exists and asked for that type. Caller
// holds d.mu.
func (d *Daemon) respondLocked(callID int64, pt byte, a answer) {
	if c, ok := d.calls[callID]; ok && (pt == c.want || pt == ptError) {
		c.val.fileLocked(d, callID, a)
	}
}

// answerLocked answers the request numbered call that site to made of this
// one: the answer is sent back as a packet of type pt or, when this site
// asked itself, handed to the waiting caller as it is. Caller holds d.mu.
func (d *Daemon) answerLocked(to addr.SiteID, call int64, pt byte, a answer) {
	if to == d.site {
		d.respondLocked(call, pt, a)
	} else {
		_ = d.sendRaw(to, a.encode(pt, call))
	}
}

// await waits for a blocked caller's next answer; it is the one reader of the
// channel. An answer that carries an error returns it, and a call that has
// ended returns why, once the answers queued before its end are read.
func (c *caller) await() (answer, error) {
	if a, ok := <-c.ch; ok {
		return a, a.err
	}
	return answer{}, c.err
}

// handleTransport is the one way a peer's packet enters the daemon. It checks
// the envelope, decodes the body's fixed layout outside the lock and hands it
// to its handler in one hold of d.mu, at whose tail this site's requests move
// on what the packet answered or filed. What a body decodes to lives on this
// stack unless a handler or a call keeps it; a data packet, a payload and a
// state block keep raw, a frame the receiver owns.
func (d *Daemon) handleTransport(from addr.SiteID, raw []byte) {
	if len(raw) < envelopeBytes || raw[0] != wireVersion {
		return
	}
	pt, body := raw[1], raw[envelopeBytes:]
	var (
		h     replyHeader
		g     gbPacket
		lk    lookupPacket
		sh    stateHeader
		pkt   *dataPacket
		p     *msg.Message
		block []byte
		call  int64
		a     answer
		ok    bool
	)
	switch pt {
	case ptReply:
		h, p, ok = parseReply(body)
	case ptData:
		pkt, ok = parseDataPacket(raw)
	case ptGbRequest, ptGbPrepare, ptGbAck, ptGbCommit:
		ok = g.parse(body)
	case ptLookup:
		lk, ok = parseLookup(body)
	case ptStateBlock:
		sh, block, ok = parseState(body)
	case ptGbDone, ptLookupResp, ptError, ptRelayAck:
		call, a, ok = parseAnswer(pt, body)
	}
	if !ok {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch pt {
	case ptReply:
		d.deliverReplyLocked(h, p)
	case ptData:
		d.handleDataLocked(from, pkt)
	case ptGbRequest:
		d.handleGbRequestLocked(from, &g)
	case ptGbPrepare:
		d.handleGbPrepareLocked(from, &g)
	case ptGbAck:
		d.handleGbAckLocked(from, &g)
	case ptGbCommit:
		d.applyGbCommitLocked(&g)
	case ptLookup:
		d.handleLookupLocked(from, lk)
	case ptStateBlock:
		d.handleStateBlockLocked(sh, block)
	default: // an answer, decoded to what its caller keeps
		d.respondLocked(call, pt, a)
	}
	d.driveLocked()
}

// onDetectorEvent reacts to site failures and recoveries.
func (d *Daemon) onDetectorEvent(ev fdetect.Event) {
	switch ev.Kind {
	case fdetect.SiteFailed:
		d.handleSiteFailure(ev.Site)
	case fdetect.SiteRecovered:
		d.mu.Lock()
		defer d.mu.Unlock()
		delete(d.suspected, ev.Site)
		d.bus.Publish(events.Event{Kind: events.SiteUp, Peer: ev.Site})
		// A healed partition: every group copy stranded in a non-primary
		// partition starts a merge attempt, to find the primary and merge back.
		for _, gs := range d.groups {
			d.mergeLocked(gs)
		}
		d.driveLocked()
	}
}

// SuspectedSites returns the sites currently believed failed, in ascending order.
func (d *Daemon) SuspectedSites() []addr.SiteID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Sorted(maps.Keys(d.suspected))
}
