package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	isis "repro"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
)

// kind is the shape of a workload's op.
type kind int

const (
	kindRPC    kind = iota // closed-loop ABCAST with one reply
	kindStream             // windowed asynchronous CBCAST
	kindChurn              // closed-loop join + state transfer + leave
)

// workload is one set of inputs the benchmark runs. The per-round op counts
// are frozen: they were sized so that one measured section takes about
// 1.7 s on the calibration machine (2 vCPUs, go1.24; see README.md), and a
// round always executes exactly that many ops, never a fixed duration.
type workload struct {
	name    string
	kind    kind
	backend string
	delay   time.Duration // simnet inter-site one-way delay
	sites   int
	ops     int // ops per measured section
	payload int // bytes of application payload per cast (state bytes for churn)
	hops    int // one-way inter-site traversals on an op's critical path
}

// stateBlock is the size of one state-transfer block of churn_lan.
const stateBlock = 4096

// window is the number of casts cbcast_stream keeps in flight.
const window = 64

// slowOp is the latency beyond which an op counts as failed.
const slowOp = time.Second

// BENCHMARK.json records why each workload was chosen; README.md has the long
// form.
var workloads = []workload{
	{name: "abcast_rpc", kind: kindRPC, backend: isis.BackendSimnet, sites: 3, ops: 15000, payload: 100, hops: 2},
	{name: "abcast_tcp", kind: kindRPC, backend: isis.BackendTCP, sites: 3, ops: 9000, payload: 100, hops: 2},
	{name: "cbcast_stream", kind: kindStream, backend: isis.BackendSimnet, sites: 3, ops: 56000, payload: 1024, hops: 1},
	{name: "churn_lan", kind: kindChurn, backend: isis.BackendSimnet, delay: time.Millisecond, sites: 4, ops: 170, payload: 16384, hops: 8},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// roundResult is what one round measured. Everything except setup refers to
// the measured section only.
type roundResult struct {
	attempted, failed int
	lat               []float64 // successful op latencies, ascending, in µs
	wall              time.Duration
	setup             time.Duration // everything in the round that is not the measured section
	mallocs, bytes    uint64
	pkts, wireBytes   uint64
	cpu               time.Duration
	gcCycles          uint32
	gcPause           time.Duration
	counters          isis.Counters
	published         uint64
	dropped           uint64
	spans             map[string]float64 // isis.* span metrics; traced rounds only
}

func (r *roundResult) ok() int { return r.attempted - r.failed }

// perOp divides a count by the ops that completed.
func (r *roundResult) perOp(n uint64) float64 { return float64(n) / float64(max(r.ok(), 1)) }

func (r *roundResult) opsPerSec() float64 { return float64(r.ok()) / r.wall.Seconds() }

// member is one group member and the delivery record the correctness check
// reads. The member's handler task writes the record and the generator reads
// it, during the drain and after it; mu orders the two.
type member struct {
	p    *isis.Process
	lane *lane

	mu        sync.Mutex
	seen      []bool
	delivered int
	hash      uint64 // running FNV-1a over delivered op ids, in delivery order
	last      int    // highest op id delivered so far (FIFO check)
	violation string
}

// env is one round's cluster and the state its ops and checks share.
type env struct {
	w     *workload
	rec   *recorder // nil unless tracing
	gen   *lane     // the generator's span lane
	c     *isis.Cluster
	gid   isis.Address
	procs []*member
	total int // warm-up + measured ops

	payload []byte
	state   [][]byte

	// cbcast_stream
	slots    chan struct{} // window: a slot frees when every member delivered the cast
	start    []time.Time
	arrived  []atomic.Int32
	doneAt   []time.Time // when the last member's handler was entered
	castSpan []uint64
	abort    chan struct{}

	// churn_lan
	joiner    *isis.Process
	xferBytes int
	xferDone  chan int // receives the byte count of each completed transfer
}

// entry is the entry point the benchmark's handlers are bound to.
const entry = isis.EntryUserBase

// newEnv builds the round's cluster and forms the group. The seed fixes the
// payload and state bytes and, for churn_lan, which site hosts the joiner.
func newEnv(w *workload, seed int64, ops, warm int, rec *recorder) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &env{w: w, rec: rec, total: ops + warm, abort: make(chan struct{})}
	cfg := isis.ClusterConfig{
		Sites: w.sites, Backend: w.backend,
		CallTimeout: 5 * time.Second, ReplyTimeout: 5 * time.Second,
		DisableHeartbeats: true,
	}
	if w.delay > 0 {
		cfg.Net = simnet.FastConfig()
		cfg.Net.InterSiteDelay = w.delay
	}
	c, err := isis.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	e.c = c
	if rec != nil {
		e.gen = rec.newLane(2 * e.total)
	}

	memberSites := []isis.SiteID{1, 2, 3}
	joinerSite := isis.SiteID(4)
	if w.kind == kindChurn {
		joinerSite = isis.SiteID(1 + rng.Intn(w.sites))
		memberSites = memberSites[:0]
		for s := 1; s <= w.sites; s++ {
			if isis.SiteID(s) != joinerSite {
				memberSites = append(memberSites, isis.SiteID(s))
			}
		}
		e.state = make([][]byte, w.payload/stateBlock)
		for i := range e.state {
			e.state[i] = make([]byte, stateBlock)
			rng.Read(e.state[i])
		}
	} else {
		e.payload = make([]byte, w.payload)
		rng.Read(e.payload)
	}

	for i, s := range memberSites {
		p, err := c.Site(s).Spawn()
		if err != nil {
			return e, err
		}
		m := &member{p: p, seen: make([]bool, e.total), last: -1, hash: 14695981039346656037}
		if rec != nil {
			m.lane = rec.newLane(2 * e.total)
		}
		e.procs = append(e.procs, m)
		p.BindEntry(entry, func(msg *isis.Message) { e.handle(m, msg) })
		if i == 0 {
			v, err := p.CreateGroup("bench")
			if err != nil {
				return e, err
			}
			e.gid = v.Group
		} else if _, err := p.Join(e.gid, isis.JoinOptions{}); err != nil {
			return e, err
		}
		if w.kind == kindChurn {
			if err := p.SetStateProvider(e.gid, func() [][]byte { return e.state }); err != nil {
				return e, err
			}
		}
	}

	switch w.kind {
	case kindStream:
		e.slots = make(chan struct{}, window)
		e.start = make([]time.Time, e.total)
		e.arrived = make([]atomic.Int32, e.total)
		e.doneAt = make([]time.Time, e.total)
		e.castSpan = make([]uint64, e.total)
	case kindRPC:
		e.castSpan = make([]uint64, e.total)
	case kindChurn:
		p, err := c.Site(joinerSite).Spawn()
		if err != nil {
			return e, err
		}
		e.joiner = p
		// One result per join; the generator takes it before the next join.
		e.xferDone = make(chan int, 1)
	}
	return e, nil
}

// close shuts the cluster down and stops the processes' task managers;
// Cluster.Close leaves those running, and each would pin the whole round in
// memory through its handler.
func (e *env) close() {
	e.c.Close()
	for _, m := range e.procs {
		m.p.Tasks().Close()
	}
	if e.joiner != nil {
		e.joiner.Tasks().Close()
	}
}

// begin opens a span when the round is traced; untraced it returns 0, which
// end ignores.
func (e *env) begin(l *lane, name string, op int, parent uint64) uint64 {
	if e.rec == nil {
		return 0
	}
	return e.rec.begin(l, name, op, parent)
}

func (e *env) end(l *lane, id uint64) {
	if id != 0 {
		e.rec.end(l, id)
	}
}

// handle is every member's entry handler: it records the delivery for the
// correctness check, frees the stream window, and answers requests.
func (e *env) handle(m *member, msg *isis.Message) {
	now := time.Now()
	id := int(msg.GetInt("n", -1))
	var sp uint64
	if id >= 0 && id < e.total {
		sp = e.begin(m.lane, spanHandler, id, e.castSpan[id])
	}
	last := false // of the members to deliver this stream cast
	m.mu.Lock()
	switch {
	case id < 0 || id >= e.total:
		m.fail("delivery of unknown op %d", id)
	case m.seen[id]:
		m.fail("op %d delivered twice", id)
	case !bytes.Equal(msg.GetBytes("p"), e.payload):
		m.fail("op %d delivered with a corrupted payload", id)
	default:
		m.seen[id] = true
		if id < m.last {
			m.fail("op %d delivered after op %d from the same sender", id, m.last)
		}
		m.last = id
		m.hash = (m.hash ^ uint64(id)) * 1099511628211
		last = e.w.kind == kindStream && int(e.arrived[id].Add(1)) == len(e.procs)
	}
	m.mu.Unlock()
	if last {
		e.doneAt[id] = now
		<-e.slots
	}
	if msg.Has("@session") {
		rp := e.begin(m.lane, spanReply, id, sp)
		if err := m.p.Reply(msg, isis.NewMessage()); err != nil {
			m.mu.Lock()
			m.fail("reply to op %d: %v", id, err)
			m.mu.Unlock()
		}
		e.end(m.lane, rp)
	}
	e.end(m.lane, sp)
	m.mu.Lock()
	m.delivered++ // counted last, so the drain also waits for the reply
	m.mu.Unlock()
}

// fail records the first violation a member saw; the caller holds m.mu.
func (m *member) fail(format string, args ...any) {
	if m.violation == "" {
		m.violation = fmt.Sprintf(format, args...)
	}
}

// message builds the cast for op id.
func (e *env) message(id int) *isis.Message {
	return isis.NewMessage().PutInt("n", int64(id)).PutBytes("p", e.payload)
}

var errAborted = errors.New("round aborted: the stream window never drained")

// op executes op id and returns its caller-visible latency, or the error
// that made it fail. Stream ops complete asynchronously, so their latency is
// collected after the drain instead.
func (e *env) op(id int) (lat time.Duration, err error) {
	dests := []isis.Address{e.gid}
	switch e.w.kind {
	case kindRPC:
		m := e.message(id)
		t0 := time.Now()
		e.castSpan[id] = e.begin(e.gen, spanCast, id, 0)
		_, err = e.procs[0].p.Cast(isis.ABCAST, dests, entry, m, isis.Replies(1))
		e.end(e.gen, e.castSpan[id])
		return time.Since(t0), err

	case kindStream:
		m := e.message(id)
		select {
		case e.slots <- struct{}{}:
		case <-e.abort:
			return 0, errAborted
		}
		e.start[id] = time.Now()
		e.castSpan[id] = e.begin(e.gen, spanCast, id, 0)
		_, err = e.procs[0].p.Cast(isis.CBCAST, dests, entry, m)
		e.end(e.gen, e.castSpan[id])
		if err != nil {
			<-e.slots
		}
		return 0, err

	default: // kindChurn
		t0 := time.Now()
		sp := e.begin(e.gen, spanJoin, id, 0)
		e.xferBytes = 0
		_, err = e.joiner.Join(e.gid, isis.JoinOptions{StateReceiver: func(block []byte, last bool) {
			e.xferBytes += len(block)
			if last {
				e.xferDone <- e.xferBytes
			}
		}})
		e.end(e.gen, sp)
		xp := e.begin(e.gen, spanXfer, id, sp)
		if err != nil {
			return time.Since(t0), fmt.Errorf("join: %w", err)
		}
		select {
		case n := <-e.xferDone:
			if n != e.w.payload {
				err = fmt.Errorf("state transfer delivered %d bytes, want %d", n, e.w.payload)
			}
		case <-e.abort:
			return time.Since(t0), errAborted
		}
		e.end(e.gen, xp)
		sp = e.begin(e.gen, spanLeave, id, 0)
		if lerr := e.joiner.Leave(e.gid); lerr != nil && err == nil {
			err = fmt.Errorf("leave: %w", lerr)
		}
		e.end(e.gen, sp)
		return time.Since(t0), err
	}
}

// snapshot is the set of cumulative counters a measured section is the
// difference of.
type snapshot struct {
	mem      runtime.MemStats
	pkts     uint64
	bytes    uint64
	cpu      time.Duration
	counters isis.Counters
	events   isis.EventStats
}

func (e *env) snapshot() snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	switch n := e.c.Fabric().(type) {
	case *simnet.Network:
		st := n.Stats()
		s.pkts, s.bytes = st.PacketsSent, st.BytesSent
	case *tcpnet.Network:
		st := n.Stats()
		s.pkts, s.bytes = st.FramesSent, st.BytesSent
	}
	s.cpu = cpuTime()
	s.counters = e.c.Counters()
	s.events = e.c.EventStats()
	return s
}

// cpuTime is the user+system CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drain waits until every member has caught up with the generator: it has
// delivered every op that did not fail (a failed cast may or may not arrive)
// or, for churn_lan, installed the view the last leave produced (Leave
// returns when the coordinator answers, which can be before the other
// members install the view).
func (e *env) drain(failed int) error {
	settled := e.delivered
	if e.w.kind == kindChurn {
		settled = e.viewsSettled
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for !settled(failed) {
		select {
		case <-tick.C:
		case <-timeout.C:
			return errors.New("the members did not catch up within 10s of the last op")
		}
	}
	return nil
}

// delivered reports whether every member has delivered at least the ops
// that did not fail.
func (e *env) delivered(failed int) bool {
	for _, m := range e.procs {
		m.mu.Lock()
		n := m.delivered
		m.mu.Unlock()
		if n < e.total-failed {
			return false
		}
	}
	return true
}

// viewsSettled reports whether all members are on the same view; when no op
// failed that must be the view the round is known to end on.
func (e *env) viewsSettled(failed int) bool {
	v0, ok := e.procs[0].p.CurrentView(e.gid)
	if !ok || (failed == 0 && int(v0.ID) != e.finalViewID()) {
		return false
	}
	for _, m := range e.procs[1:] {
		if v, ok := m.p.CurrentView(e.gid); !ok || v.ID != v0.ID {
			return false
		}
	}
	return true
}

// finalViewID is the view id a round without failed ops ends on: one view
// per founding member plus, for churn_lan, two per join+leave pair.
func (e *env) finalViewID() int {
	id := len(e.procs)
	if e.w.kind == kindChurn {
		id += 2 * e.total
	}
	return id
}

// verify is the virtual-synchrony check of one round: every member delivered
// every op exactly once, ABCAST order is identical everywhere, CBCAST is
// FIFO per sender, and all members ended on the same view. The handlers
// already recorded duplicate, unknown, corrupted and out-of-order
// deliveries; churn_lan's per-join byte count is checked by the op itself.
func (e *env) verify(failed int) error {
	var hash0 uint64
	for i, m := range e.procs {
		m.mu.Lock()
		violation, delivered, hash := m.violation, m.delivered, m.hash
		m.mu.Unlock()
		if i == 0 {
			hash0 = hash
		}
		if violation != "" {
			return fmt.Errorf("member %d: %s", i, violation)
		}
		if e.w.kind != kindChurn && failed == 0 {
			if delivered != e.total {
				return fmt.Errorf("member %d delivered %d of %d ops", i, delivered, e.total)
			}
			if hash != hash0 {
				return fmt.Errorf("member %d delivered in a different order than member 0", i)
			}
		}
	}
	v0, ok := e.procs[0].p.CurrentView(e.gid)
	if !ok {
		return errors.New("member 0 has no view")
	}
	if want := e.finalViewID(); failed == 0 && int(v0.ID) != want {
		return fmt.Errorf("final view id %d, want %d", v0.ID, want)
	}
	if v0.Size() != len(e.procs) {
		return fmt.Errorf("final view has %d members, want %d", v0.Size(), len(e.procs))
	}
	for i, m := range e.procs[1:] {
		if v, ok := m.p.CurrentView(e.gid); !ok || !v.Equal(v0) {
			return fmt.Errorf("member %d ended on view %v, member 0 on %v", i+1, v, v0)
		}
	}
	return nil
}

// runRound builds a fresh cluster, warms it up, measures a fixed number of
// ops and checks the outcome. A returned error is a correctness violation
// or a broken harness, never a failed op: failed ops are tallied in the
// result.
func runRound(w *workload, seed int64, ops int, rec *recorder) (res roundResult, err error) {
	begin := time.Now()
	warm := max(ops/10, 1)
	e, err := newEnv(w, seed, ops, warm, rec)
	if e != nil {
		defer e.close() // idempotent; the explicit call below is the one setup_s times
	}
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	watchdog := time.AfterFunc(90*time.Second, func() { close(e.abort) })
	defer watchdog.Stop()

	for id := 0; id < warm; id++ {
		if _, err := e.op(id); errors.Is(err, errAborted) {
			return res, err
		} else if err != nil {
			// Warm-up ops are not measured, but a failed one is not dropped
			// silently either.
			res.attempted++
			res.failed++
		}
	}
	runtime.GC()

	before := e.snapshot()
	res.attempted += ops
	lat := make([]time.Duration, 0, ops)
	t0 := time.Now()
	for id := warm; id < e.total; id++ {
		d, err := e.op(id)
		switch {
		case errors.Is(err, errAborted):
			return res, err
		case err != nil || d > slowOp:
			res.failed++
		case w.kind != kindStream:
			lat = append(lat, d)
		}
	}
	if w.kind == kindStream {
		// The section ends when the last cast has reached its last member.
		for i := 0; i < window; i++ {
			select {
			case e.slots <- struct{}{}:
			case <-e.abort:
				return res, errAborted
			}
		}
	}
	res.wall = time.Since(t0)
	if err := e.drain(res.failed); err != nil {
		return res, err
	}
	after := e.snapshot()

	if w.kind == kindStream {
		for id := warm; id < e.total; id++ {
			switch d := e.doneAt[id].Sub(e.start[id]); {
			case e.doneAt[id].IsZero(): // the cast itself failed; already counted
			case d > slowOp:
				res.failed++
			default:
				lat = append(lat, d)
			}
		}
	}
	res.lat = micros(lat)
	res.mallocs = after.mem.Mallocs - before.mem.Mallocs
	res.bytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	res.pkts = after.pkts - before.pkts
	res.wireBytes = after.bytes - before.bytes
	res.cpu = after.cpu - before.cpu
	res.gcCycles = after.mem.NumGC - before.mem.NumGC
	res.gcPause = time.Duration(after.mem.PauseTotalNs - before.mem.PauseTotalNs)
	res.counters = isis.Counters{
		CBCASTs:       after.counters.CBCASTs - before.counters.CBCASTs,
		ABCASTs:       after.counters.ABCASTs - before.counters.ABCASTs,
		GBCASTs:       after.counters.GBCASTs - before.counters.GBCASTs,
		PointToPoints: after.counters.PointToPoints - before.counters.PointToPoints,
		Delivered:     after.counters.Delivered - before.counters.Delivered,
		ViewChanges:   after.counters.ViewChanges - before.counters.ViewChanges,
	}
	res.published = after.events.Published - before.events.Published
	res.dropped = after.events.Dropped - before.events.Dropped

	if err := e.verify(res.failed); err != nil {
		return res, err
	}
	if rec != nil {
		res.spans = summarize(rec, rec.round, warm, e.total)
	}
	e.close()
	res.setup = time.Since(begin) - res.wall
	return res, nil
}
