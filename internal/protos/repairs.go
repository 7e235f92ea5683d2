package protos

// The daemon's one park-and-retry table. Some work can neither be finished
// where it fails nor be dropped: a member whose merge rejoin exhausted its
// retries is a live process hosted nowhere (merge.go). It is filed here as an
// attempt to run again, and one drain runs them all.

import (
	"maps"
	"slices"
	"sync"

	"repro/internal/addr"
)

// repairKey names one repair, so that filing it twice keeps one entry: the
// member to rejoin to a group.
type repairKey struct {
	gid, proc addr.Address
}

// repairs maps each filed repair to its attempt, which reports whether the
// repair is done — finished or moot — and may leave the table. Passes over
// the table are single-flight, so two attempts at one repair never race. The
// zero value is ready for use.
type repairs struct {
	mu      sync.Mutex
	entries map[repairKey]func() (done bool)
	running bool // a pass is out
	added   bool // an entry was filed since the pass that is out read the table
	closed  bool
}

// add files a repair and kicks. An entry filed while a pass is out gets
// another pass as soon as that one ends; one whose attempt failed waits for
// the next kick — a SiteRecovered event or the scan tick.
func (r *repairs) add(k repairKey, attempt func() (done bool)) {
	r.mu.Lock()
	if r.entries == nil {
		r.entries = make(map[repairKey]func() bool)
	}
	r.entries[k] = attempt
	r.added = true
	r.mu.Unlock()
	r.kick()
}

// kick starts a pass unless one is out, nothing is filed, or the daemon has
// closed.
func (r *repairs) kick() {
	r.mu.Lock()
	start := !r.running && !r.closed && len(r.entries) > 0
	r.running = r.running || start
	r.mu.Unlock()
	if start {
		go r.drain()
	}
}

// drain runs passes until one ends with nothing filed behind its back.
func (r *repairs) drain() {
	for again := true; again; {
		r.mu.Lock()
		r.added = false
		pass := maps.Clone(r.entries)
		r.mu.Unlock()
		for k, attempt := range pass {
			if r.isClosed() || !attempt() {
				continue
			}
			r.mu.Lock()
			delete(r.entries, k)
			r.mu.Unlock()
		}
		r.mu.Lock()
		again = r.added && !r.closed
		r.running = again
		r.mu.Unlock()
	}
}

// filed lists the repairs waiting in the table.
func (r *repairs) filed() []repairKey {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Collect(maps.Keys(r.entries))
}

// close stops the table: no pass starts, and one that is out tries nothing
// more.
func (r *repairs) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

func (r *repairs) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}
