package isis

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/addr"
	"repro/internal/events"
	"repro/internal/fdetect"
	"repro/internal/netback"
	"repro/internal/protos"
	"repro/internal/simnet"
	"repro/internal/task"
	"repro/internal/tcpnet"
	"repro/internal/transport"
)

// Backend names accepted by ClusterConfig.Backend.
const (
	// BackendSimnet runs the cluster over the simulated LAN (the default).
	BackendSimnet = "simnet"
	// BackendTCP runs the cluster over real kernel TCP sockets on loopback.
	BackendTCP = "tcp"
)

// ClusterConfig parameterizes a simulated ISIS cluster.
type ClusterConfig struct {
	// Sites is the number of sites created up front (ids 1..Sites). More
	// can be added later with AddSite.
	Sites int
	// Backend selects the network fabric: BackendSimnet (the default, also
	// selected by "") or BackendTCP for real loopback sockets.
	Backend string
	// Net configures the simulated LAN; the zero value selects
	// FastNetConfig (no artificial delays), which is what tests want.
	// Benchmarks pass PaperNetConfig. Ignored under BackendTCP.
	Net simnet.Config
	// Detector configures the failure detector at every site; the zero
	// value picks settings suited to the Net configuration.
	Detector fdetect.Config
	// Transport overrides the site-to-site transport configuration; the
	// zero value derives it from Net. The batching ablation benchmark uses
	// it to compare coalesced and unbatched hot paths.
	Transport transport.Config
	// CallTimeout bounds the toolkit's internal request/response exchanges.
	CallTimeout time.Duration
	// ReplyTimeout bounds how long Cast waits for replies before giving up
	// on destinations that have not answered. Defaults to 10 s.
	ReplyTimeout time.Duration
	// DisableHeartbeats silences the failure detector's periodic traffic;
	// benchmarks use it to keep the measured links quiet.
	DisableHeartbeats bool
}

// Cluster is a simulated distributed system: a LAN plus one ISIS site
// (protocols daemon) per site id. All state is in-process; sites "crash" by
// detaching from the network.
type Cluster struct {
	cfg    ClusterConfig
	fabric netback.Network

	mu      sync.Mutex
	sites   map[SiteID]*Site
	lastInc map[SiteID]addr.Incarnation // highest incarnation ever used per site id
}

// ErrNoSuchSite is returned when addressing an unknown or crashed site.
var ErrNoSuchSite = errors.New("isis: no such site")

// NewCluster builds a cluster with cfg.Sites sites attached to a fresh
// simulated network.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Sites <= 0 {
		cfg.Sites = 1
	}
	if cfg.Net.QueueLen == 0 && cfg.Net.MaxPacket == 0 && cfg.Net.InterSiteDelay == 0 {
		cfg.Net = simnet.FastConfig()
	}
	if cfg.ReplyTimeout <= 0 {
		cfg.ReplyTimeout = 10 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	c := &Cluster{
		cfg:     cfg,
		sites:   make(map[SiteID]*Site),
		lastInc: make(map[SiteID]addr.Incarnation),
	}
	switch cfg.Backend {
	case "", BackendSimnet:
		c.fabric = simnet.New(cfg.Net)
	case BackendTCP:
		c.fabric = tcpnet.New(tcpnet.Config{})
	default:
		return nil, fmt.Errorf("isis: unknown backend %q", cfg.Backend)
	}
	for i := 1; i <= cfg.Sites; i++ {
		if _, err := c.AddSite(SiteID(i)); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Fabric exposes the cluster's network backend, whichever kind it is. Both
// backends implement netback.FaultInjector, which is how tests and examples
// partition and heal the cluster.
func (c *Cluster) Fabric() netback.Network { return c.fabric }

// Events subscribes to the merged operational event stream of every live
// site: view installs and commits, primary loss and resumption, partition
// wedges, merge progress, flushes, ABCAST fences and re-solicitations,
// takeovers, and site up/down transitions. Each event's Site
// field names the site that observed it. The filter restricts the stream
// (the zero EventFilter matches everything); the returned cancel
// unsubscribes every per-site subscription and eventually closes the
// channel. Events from sites added after the call are not included —
// subscribe again after growing the cluster. A reader that falls behind
// loses events rather than stalling the protocols (the per-event Seq field
// makes per-site gaps detectable).
func (c *Cluster) Events(f EventFilter) (<-chan Event, func()) {
	out := make(chan Event, events.DefaultQueue)
	var cancels []func()
	var wg sync.WaitGroup
	for _, s := range c.Sites() {
		ch, cancel := s.daemon.Events(f, 0)
		cancels = append(cancels, cancel)
		wg.Add(1)
		go func(ch <-chan events.Event) {
			defer wg.Done()
			for e := range ch {
				select {
				case out <- e:
				default: // reader fell behind: drop, never stall the source
				}
			}
		}(ch)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	var once sync.Once
	return out, func() {
		once.Do(func() {
			for _, cancel := range cancels {
				cancel()
			}
		})
	}
}

// AddSite attaches a new site (or restarts a crashed one with a fresh
// incarnation) and returns it.
func (c *Cluster) AddSite(id SiteID) (*Site, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A site id that has ever been used before comes back with a fresh
	// incarnation, whether the previous daemon is still attached or was
	// crashed (and removed from the map) earlier; lastInc records every
	// incarnation ever issued.
	inc := addr.Incarnation(0)
	if last, ok := c.lastInc[id]; ok {
		inc = last + 1
	}
	c.lastInc[id] = inc
	d, err := protos.New(protos.Config{
		Site:              id,
		Incarnation:       inc,
		Network:           c.fabric,
		Transport:         c.cfg.Transport,
		Detector:          c.cfg.Detector,
		CallTimeout:       c.cfg.CallTimeout,
		DisableHeartbeats: c.cfg.DisableHeartbeats,
	})
	if err != nil {
		return nil, fmt.Errorf("isis: add site %d: %w", id, err)
	}
	if inc > 0 {
		d.AnnounceRestart()
	}
	s := &Site{cluster: c, id: id, incarnation: inc, daemon: d}
	c.sites[id] = s
	return s, nil
}

// Site returns the site with the given id, or nil if it does not exist (or
// has crashed and not been restarted).
func (c *Cluster) Site(id SiteID) *Site {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sites[id]
}

// Sites returns all live sites in ascending id order.
func (c *Cluster) Sites() []*Site {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Site, 0, len(c.sites))
	for _, s := range c.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// CrashSite simulates the total failure of a site: its daemon (and therefore
// every process at the site) stops, and the site detaches from the network.
// Other sites detect the crash by timeout.
func (c *Cluster) CrashSite(id SiteID) error {
	c.mu.Lock()
	s, ok := c.sites[id]
	if ok {
		delete(c.sites, id)
	}
	c.mu.Unlock()
	if !ok {
		return ErrNoSuchSite
	}
	s.close()
	return nil
}

// RestartSite models a site crashing and coming back up: the old daemon (if
// one is still attached) stops and detaches from the network, and a fresh
// daemon with a new incarnation re-attaches under the same site id. All
// processes of the old incarnation are gone; the application re-spawns and
// re-joins its groups (with a state transfer) exactly as the paper's
// recovery model prescribes.
func (c *Cluster) RestartSite(id SiteID) (*Site, error) {
	if err := c.CrashSite(id); err != nil && !errors.Is(err, ErrNoSuchSite) {
		return nil, err
	}
	return c.AddSite(id)
}

// Counters aggregates the protocol counters of every live site.
func (c *Cluster) Counters() Counters {
	var total Counters
	for _, s := range c.Sites() {
		total.Add(s.daemon.Counters())
	}
	return total
}

// EventStats aggregates every live site's event-bus statistics: how many
// events were published and how many were dropped at slow subscribers.
func (c *Cluster) EventStats() EventStats {
	var total EventStats
	total.ByKind = make(map[EventKind]uint64)
	for _, s := range c.Sites() {
		st := s.daemon.EventStats()
		total.Published += st.Published
		total.Dropped += st.Dropped
		for k, n := range st.ByKind {
			total.ByKind[k] += n
		}
	}
	return total
}

// Close shuts down every site and the network.
func (c *Cluster) Close() {
	for _, s := range c.Sites() {
		s.close()
	}
	c.fabric.Close()
}

// Site is one computing site of the cluster.
type Site struct {
	cluster     *Cluster
	id          SiteID
	incarnation addr.Incarnation
	daemon      *protos.Daemon

	mu    sync.Mutex
	procs map[*Process]struct{} // the live processes spawned here, for close
}

// close stops the site's daemon and the task managers of the processes
// spawned at it, whose entry workers would otherwise outlive the site (and
// pin, through their handlers, whatever the application hung on them).
func (s *Site) close() {
	s.daemon.Close()
	s.mu.Lock()
	procs := s.procs
	s.procs = nil
	s.mu.Unlock()
	for p := range procs {
		p.tasks.Close()
	}
}

// ID returns the site identifier.
func (s *Site) ID() SiteID { return s.id }

// Daemon exposes the site's protocols process; the toolkit tools and the
// benchmark harness use it directly.
func (s *Site) Daemon() *protos.Daemon { return s.daemon }

// Cluster returns the owning cluster.
func (s *Site) Cluster() *Cluster { return s.cluster }

// Events subscribes to this site's operational event stream. The filter
// restricts the stream (the zero EventFilter matches everything); the
// returned cancel unsubscribes and closes the channel. A subscriber that
// falls behind its bounded queue loses events rather than stalling the
// protocols; the per-event Seq field makes gaps detectable.
func (s *Site) Events(f EventFilter) (<-chan Event, func()) {
	return s.daemon.Events(f, 0)
}

// GroupPrimary reports whether this site's copy of the group is in the
// primary partition (always true for groups the site does not host).
func (s *Site) GroupPrimary(gid Address) bool { return s.daemon.GroupPrimary(gid) }

// MergeGroup merges this site's non-primary copy of a group back into the
// primary partition: the stale local state is discarded and every local
// member rejoins with a state transfer. The toolkit does this by itself when
// the partition heals; an application may ask earlier. A no-op if the group
// is not in non-primary mode at this site.
func (s *Site) MergeGroup(gid Address) error { return s.daemon.MergeGroup(gid) }

// Spawn creates a new client process at this site.
func (s *Site) Spawn() (*Process, error) {
	p := &Process{
		site:         s,
		replyTimeout: s.cluster.cfg.ReplyTimeout,
		monitors:     make(map[Address]map[int]func(View)),
		pending:      make(map[int64]*pendingCall),
		tasks:        task.NewManager(),
	}
	a, err := s.daemon.RegisterProcess(p.onDeliver, p.onView)
	if err != nil {
		return nil, err
	}
	p.addr = a
	s.mu.Lock()
	if s.procs == nil {
		s.procs = make(map[*Process]struct{})
	}
	s.procs[p] = struct{}{}
	s.mu.Unlock()
	return p, nil
}
