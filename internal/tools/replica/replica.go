package replica

import (
	"errors"
	"sync"
	"sync/atomic"

	isis "repro"
	"repro/internal/stable"
)

// Mode selects the multicast primitive used for updates.
type Mode int

const (
	// Causal replicates updates with CBCAST: correct when each datum has a
	// single writer at a time (private access or external mutual
	// exclusion).
	Causal Mode = iota
	// Total replicates updates with ABCAST: required when concurrent
	// writers must be applied in the same order at every copy.
	Total
)

// UpdateFunc applies one update to the local copy. It must be
// deterministic: every member applies the same updates in the same order.
// The item runs it and ReadFunc one at a time, under its lock, so neither may
// call the item's ReadLocal or Read.
type UpdateFunc func(args *isis.Message)

// ReadFunc answers a read-only query against the local copy.
type ReadFunc func(args *isis.Message) *isis.Message

// CheckpointFunc carves the current value of the item into blocks for the
// logging mode's checkpoints and for state transfers to joining members.
type CheckpointFunc func() [][]byte

// Options configures a replicated item.
type Options struct {
	// Mode selects the ordering requirement (Causal by default).
	Mode Mode
	// Entry is the entry point used for the item's traffic; items sharing a
	// group must use distinct entries. Defaults to EntryUserBase+1.
	Entry isis.EntryID
	// Log, when non-nil, enables the logging mode: updates are appended to
	// the store and a checkpoint is written whenever the log exceeds
	// CheckpointEvery records.
	Log stable.Store
	// CheckpointEvery bounds the log length before a checkpoint is taken
	// (default 64). Only meaningful with Log and Checkpoint set.
	CheckpointEvery int
	// Checkpoint encodes the item for checkpoints and state transfer.
	Checkpoint CheckpointFunc
}

// Errors.
var (
	ErrNoRead = errors.New("replica: no read routine supplied")
)

const (
	fOp   = "ri-op"
	fRead = "read"
	fUpd  = "update"
)

// Item is one member's handle on a replicated data item.
type Item struct {
	p     *isis.Process
	gid   isis.Address
	name  string
	entry isis.EntryID
	mode  Mode

	update UpdateFunc
	read   ReadFunc
	opts   Options

	mu      sync.Mutex    // held while the update or the read routine runs
	applied atomic.Uint64 // updates applied to the local copy
}

// Manage attaches a group member as a manager of the named replicated item.
// Every member of the group must call Manage with the same name, mode and
// (deterministic) update routine. The client-facing interface this returns
// can be concealed beneath an RPC stub, as the paper notes.
func Manage(p *isis.Process, gid isis.Address, name string, update UpdateFunc, read ReadFunc, opts Options) *Item {
	if opts.Entry == 0 {
		opts.Entry = isis.EntryUserBase + 1
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 64
	}
	it := &Item{
		p:      p,
		gid:    gid,
		name:   name,
		entry:  opts.Entry,
		mode:   opts.Mode,
		update: update,
		read:   read,
		opts:   opts,
	}
	p.BindEntry(opts.Entry, it.onMessage)
	return it
}

// Applied returns the number of updates applied to the local copy.
func (it *Item) Applied() uint64 { return it.applied.Load() }

// protocol returns the multicast primitive matching the item's mode.
func (it *Item) protocol() isis.Protocol {
	if it.mode == Total {
		return isis.ABCAST
	}
	return isis.CBCAST
}

// Update replicates an update to every copy. In Causal mode the call is
// asynchronous (one async CBCAST, Table 1); in Total mode it is one ABCAST.
func (it *Item) Update(args *isis.Message) error {
	m := args.Clone()
	m.PutString(fOp, fUpd)
	m.PutString("ri-name", it.name)
	_, err := it.p.Cast(it.protocol(), []isis.Address{it.gid}, it.entry, m)
	return err
}

// ReadLocal answers a read-only query from the local copy with no
// communication (permitted for the item's managers). It never sees an update
// half applied: the item runs its read and update routines one at a time.
func (it *Item) ReadLocal(args *isis.Message) (*isis.Message, error) {
	if it.read == nil {
		return nil, ErrNoRead
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.read(args), nil
}

// Read performs a read-only query. A manager answers locally at no cost;
// the remote form (used by Client) costs one CBCAST plus one reply.
func (it *Item) Read(args *isis.Message) (*isis.Message, error) {
	return it.ReadLocal(args)
}

// onMessage applies replicated traffic arriving at the item's entry point.
func (it *Item) onMessage(m *isis.Message) {
	if m.GetString("ri-name", "") != it.name {
		return
	}
	switch m.GetString(fOp, "") {
	case fUpd:
		it.applyUpdate(m)
	case fRead:
		if r, err := it.ReadLocal(m); err == nil {
			_ = it.p.Reply(m, r)
		} else {
			_ = it.p.NullReply(m)
		}
	}
}

// apply runs the update routine on the local copy.
func (it *Item) apply(m *isis.Message) {
	it.mu.Lock()
	defer it.mu.Unlock()
	it.update(m)
	it.applied.Add(1)
}

func (it *Item) applyUpdate(m *isis.Message) {
	it.apply(m)
	if it.opts.Log != nil {
		it.logUpdate(m)
	}
}

// logUpdate appends the update to stable storage and takes a checkpoint when
// the log grows long (Section 3.6's logging mode).
func (it *Item) logUpdate(m *isis.Message) {
	b, err := m.Marshal()
	if err != nil {
		return
	}
	_ = it.opts.Log.Append(stable.Record{Kind: 1, Data: b})
	if it.opts.Checkpoint == nil {
		return
	}
	if n, err := it.opts.Log.LogLen(); err == nil && n >= it.opts.CheckpointEvery {
		blocks := it.opts.Checkpoint()
		cp := isis.NewMessage()
		cp.PutInt("n", int64(len(blocks)))
		for i, blk := range blocks {
			cp.PutBytes(blockKey(i), blk)
		}
		if enc, err := cp.Marshal(); err == nil {
			_ = it.opts.Log.WriteCheckpoint(enc)
		}
	}
}

// Recover replays the item's stable log into the local copy: the checkpoint
// (if any) is handed to install, then every logged update is re-applied via
// the update routine. It is used when restarting after a total failure
// (Section 3.8, twenty-questions Step 6).
func (it *Item) Recover(install func(blocks [][]byte)) error {
	if it.opts.Log == nil {
		return nil
	}
	cp, log, err := it.opts.Log.Recover()
	if err != nil {
		return err
	}
	if cp != nil && install != nil {
		m, err := isis.UnmarshalMessage(cp)
		if err != nil {
			return err
		}
		n := int(m.GetInt("n", 0))
		blocks := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			blocks = append(blocks, m.GetBytes(blockKey(i)))
		}
		install(blocks)
	}
	for _, rec := range log {
		m, err := isis.UnmarshalMessage(rec.Data)
		if err != nil {
			continue
		}
		it.apply(m)
	}
	return nil
}

// StateBlocks encodes the item for a state transfer to a joining member
// using the checkpoint routine.
func (it *Item) StateBlocks() [][]byte {
	if it.opts.Checkpoint == nil {
		return nil
	}
	return it.opts.Checkpoint()
}

func blockKey(i int) string { return "b" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// Client is a non-manager's handle on a replicated item: reads and updates
// are shipped to the managing group.
type Client struct {
	p     *isis.Process
	gid   isis.Address
	name  string
	entry isis.EntryID
	mode  Mode
}

// NewClient builds a client handle. The entry and mode must match the
// managers' Options.
func NewClient(p *isis.Process, gid isis.Address, name string, entry isis.EntryID, mode Mode) *Client {
	if entry == 0 {
		entry = isis.EntryUserBase + 1
	}
	return &Client{p: p, gid: gid, name: name, entry: entry, mode: mode}
}

// Update ships an update to the managers (asynchronously).
func (c *Client) Update(args *isis.Message) error {
	m := args.Clone()
	m.PutString(fOp, fUpd)
	m.PutString("ri-name", c.name)
	proto := isis.CBCAST
	if c.mode == Total {
		proto = isis.ABCAST
	}
	_, err := c.p.Cast(proto, []isis.Address{c.gid}, c.entry, m)
	return err
}

// Read queries one manager (one CBCAST plus one reply, Table 1).
func (c *Client) Read(args *isis.Message) (*isis.Message, error) {
	m := args.Clone()
	m.PutString(fOp, fRead)
	m.PutString("ri-name", c.name)
	return c.p.Query(isis.CBCAST, []isis.Address{c.gid}, c.entry, m)
}
