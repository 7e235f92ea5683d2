package replica

import (
	"fmt"
	"sync"
	"testing"
	"time"

	isis "repro"
	"repro/internal/stable"
)

func cluster(t *testing.T, sites int) *isis.Cluster {
	t.Helper()
	c, err := isis.NewCluster(isis.ClusterConfig{Sites: sites, CallTimeout: 2 * time.Second, ReplyTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func wait(t *testing.T, what string, d time.Duration, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// counterCopy is one member's copy of a replicated counter with an append
// log (to check update ordering).
type counterCopy struct {
	mu    sync.Mutex
	value int64
	log   []int64
}

func (cc *counterCopy) update(m *isis.Message) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.value += m.GetInt("delta", 0)
	cc.log = append(cc.log, m.GetInt("delta", 0))
}

func (cc *counterCopy) read(*isis.Message) *isis.Message {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return isis.NewMessage().PutInt("value", cc.value)
}

func (cc *counterCopy) snapshot() (int64, []int64) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.value, append([]int64(nil), cc.log...)
}

// buildReplicated creates n members each managing a copy of a counter item.
func buildReplicated(t *testing.T, c *isis.Cluster, n int, mode Mode, logStore stable.Store, cp CheckpointFunc) ([]*isis.Process, []*counterCopy, []*Item, isis.Address) {
	t.Helper()
	procs := make([]*isis.Process, n)
	copies := make([]*counterCopy, n)
	items := make([]*Item, n)
	var gid isis.Address
	for i := 0; i < n; i++ {
		p, err := c.Site(isis.SiteID(i + 1)).Spawn()
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		if i == 0 {
			v, err := p.CreateGroup("counter-svc")
			if err != nil {
				t.Fatal(err)
			}
			gid = v.Group
		} else {
			if _, err := p.JoinByName("counter-svc", isis.JoinOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		cc := &counterCopy{}
		copies[i] = cc
		opts := Options{Mode: mode}
		if i == 0 && logStore != nil {
			opts.Log = logStore
			opts.Checkpoint = cp
			opts.CheckpointEvery = 4
		}
		items[i] = Manage(p, gid, "counter", cc.update, cc.read, opts)
	}
	wait(t, "replica membership", 5*time.Second, func() bool {
		v, ok := procs[0].CurrentView(gid)
		return ok && v.Size() == n
	})
	return procs, copies, items, gid
}

func TestCausalUpdateReachesAllCopies(t *testing.T) {
	c := cluster(t, 3)
	_, copies, items, _ := buildReplicated(t, c, 3, Causal, nil, nil)

	if err := items[0].Update(isis.NewMessage().PutInt("delta", 5)); err != nil {
		t.Fatal(err)
	}
	if err := items[0].Update(isis.NewMessage().PutInt("delta", 7)); err != nil {
		t.Fatal(err)
	}
	wait(t, "updates at every copy", 3*time.Second, func() bool {
		for _, cc := range copies {
			if v, _ := cc.snapshot(); v != 12 {
				return false
			}
		}
		return true
	})
	// Single writer: the update order is the send order at every copy.
	for i, cc := range copies {
		_, log := cc.snapshot()
		if len(log) != 2 || log[0] != 5 || log[1] != 7 {
			t.Errorf("copy %d log = %v", i, log)
		}
	}
	if items[0].Applied() != 2 {
		t.Errorf("Applied = %d", items[0].Applied())
	}
}

func TestTotalModeOrdersConcurrentWriters(t *testing.T) {
	c := cluster(t, 3)
	_, copies, items, _ := buildReplicated(t, c, 3, Total, nil, nil)

	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func(i int, it *Item) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if err := it.Update(isis.NewMessage().PutInt("delta", int64(i*10+j))); err != nil {
					t.Errorf("update: %v", err)
				}
			}
		}(i, it)
	}
	wg.Wait()
	wait(t, "all updates applied everywhere", 10*time.Second, func() bool {
		for _, cc := range copies {
			if _, log := cc.snapshot(); len(log) != 15 {
				return false
			}
		}
		return true
	})
	_, ref := copies[0].snapshot()
	for i := 1; i < len(copies); i++ {
		_, log := copies[i].snapshot()
		for j := range ref {
			if log[j] != ref[j] {
				t.Fatalf("copy %d order differs at %d: %v vs %v", i, j, log, ref)
			}
		}
	}
}

func TestLocalReadNoCost(t *testing.T) {
	c := cluster(t, 1)
	_, _, items, _ := buildReplicated(t, c, 1, Causal, nil, nil)
	if err := items[0].Update(isis.NewMessage().PutInt("delta", 3)); err != nil {
		t.Fatal(err)
	}
	wait(t, "update applied", 2*time.Second, func() bool { return items[0].Applied() == 1 })
	before := c.Counters()
	r, err := items[0].Read(isis.NewMessage())
	if err != nil || r.GetInt("value", -1) != 3 {
		t.Fatalf("Read = %v, %v", r, err)
	}
	after := c.Counters()
	if after.CBCASTs != before.CBCASTs && after.ABCASTs != before.ABCASTs {
		t.Error("manager read caused communication")
	}
}

// TestReadLocalDuringUpdates reads a manager's copy while a stream of
// updates is applied to it. The copy is a plain int with no lock of its own,
// so under -race a read that is not kept apart from the update routine is a
// reported race; and every read sees a whole number of updates.
func TestReadLocalDuringUpdates(t *testing.T) {
	c := cluster(t, 1)
	p, err := c.Site(1).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.CreateGroup("plain")
	if err != nil {
		t.Fatal(err)
	}
	value := 0
	it := Manage(p, v.Group, "plain",
		func(*isis.Message) { value += 2 },
		func(*isis.Message) *isis.Message { return isis.NewMessage().PutInt("value", int64(value)) },
		Options{})
	const updates = 200
	for range updates {
		if err := it.Update(isis.NewMessage()); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); it.Applied() < updates; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d updates applied", it.Applied(), updates)
		}
		r, err := it.ReadLocal(nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := r.GetInt("value", -1); n%2 != 0 || n > 2*updates {
			t.Fatalf("a local read saw %d", n)
		}
	}
}

func TestClientReadAndUpdate(t *testing.T) {
	c := cluster(t, 3)
	_, copies, _, gid := buildReplicated(t, c, 2, Causal, nil, nil)

	clientProc, err := c.Site(3).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clientProc.Lookup("counter-svc"); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(clientProc, gid, "counter", 0, Causal)
	if err := cl.Update(isis.NewMessage().PutInt("delta", 9)); err != nil {
		t.Fatal(err)
	}
	wait(t, "client update at the copies", 3*time.Second, func() bool {
		v0, _ := copies[0].snapshot()
		v1, _ := copies[1].snapshot()
		return v0 == 9 && v1 == 9
	})
	r, err := cl.Read(isis.NewMessage())
	if err != nil {
		t.Fatal(err)
	}
	if r.GetInt("value", -1) != 9 {
		t.Errorf("client read = %v", r.Format())
	}
}

func TestReadWithoutRoutine(t *testing.T) {
	c := cluster(t, 1)
	p, err := c.Site(1).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.CreateGroup("no-read")
	if err != nil {
		t.Fatal(err)
	}
	it := Manage(p, v.Group, "item", func(*isis.Message) {}, nil, Options{})
	if _, err := it.Read(isis.NewMessage()); err != ErrNoRead {
		t.Errorf("err = %v, want ErrNoRead", err)
	}
}

func TestLoggingAndRecovery(t *testing.T) {
	c := cluster(t, 1)
	store := stable.NewMem()
	cc := &counterCopy{}
	cp := func() [][]byte {
		v, _ := cc.snapshot()
		return [][]byte{[]byte(fmt.Sprintf("%d", v))}
	}
	p, err := c.Site(1).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.CreateGroup("counter-logged")
	if err != nil {
		t.Fatal(err)
	}
	item := Manage(p, v.Group, "counter", cc.update, cc.read, Options{
		Mode: Causal, Log: store, Checkpoint: cp, CheckpointEvery: 4,
	})

	// Apply enough updates to force at least one checkpoint (every 4).
	for i := 1; i <= 6; i++ {
		if err := item.Update(isis.NewMessage().PutInt("delta", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	wait(t, "updates applied", 3*time.Second, func() bool { return item.Applied() == 6 })

	// The log has been written: a checkpoint exists and the tail of the log
	// holds the post-checkpoint updates.
	cpData, log, err := store.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if cpData == nil {
		t.Error("no checkpoint written despite CheckpointEvery=4")
	}
	if len(log) == 0 && cpData == nil {
		t.Error("neither log nor checkpoint present")
	}

	// Simulate a restart: a fresh copy recovers from the log records (the
	// checkpoint install is exercised through the install callback).
	fresh := &counterCopy{}
	p2, err := c.Site(1).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := p2.CreateGroup("counter-recovered")
	if err != nil {
		t.Fatal(err)
	}
	it2 := Manage(p2, v2.Group, "counter", fresh.update, fresh.read, Options{Log: store, Checkpoint: nil})
	installed := ""
	if err := it2.Recover(func(blocks [][]byte) {
		if len(blocks) > 0 {
			installed = string(blocks[0])
		}
	}); err != nil {
		t.Fatal(err)
	}
	if installed == "" {
		t.Error("checkpoint was not handed to install")
	}
	// The replayed updates are those logged after the checkpoint; together
	// with the checkpoint they reconstruct the value 1+2+..+6 = 21.
	val, _ := fresh.snapshot()
	var cpVal int64
	fmt.Sscanf(installed, "%d", &cpVal)
	if cpVal+val != 21 {
		t.Errorf("recovered value = %d (checkpoint %d + replay %d), want 21", cpVal+val, cpVal, val)
	}
}

func TestStateBlocks(t *testing.T) {
	c := cluster(t, 1)
	cc := &counterCopy{}
	p, err := c.Site(1).Spawn()
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.CreateGroup("blocks")
	if err != nil {
		t.Fatal(err)
	}
	it := Manage(p, v.Group, "x", cc.update, cc.read, Options{
		Checkpoint: func() [][]byte { return [][]byte{[]byte("b1"), []byte("b2")} },
	})
	blocks := it.StateBlocks()
	if len(blocks) != 2 || string(blocks[0]) != "b1" {
		t.Errorf("StateBlocks = %v", blocks)
	}
	it2 := Manage(p, v.Group, "y", cc.update, cc.read, Options{Entry: isis.EntryUserBase + 7})
	if it2.StateBlocks() != nil {
		t.Error("StateBlocks without a checkpoint routine should be nil")
	}
}
