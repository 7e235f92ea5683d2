package protos

// State transfer with no completion notice: a joiner's own copy is the one
// record that its transfer is pending, a flush's prepare asks every member site
// for it, and the commit that replaces the oldest member names who the new
// oldest member ships the state to.

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/simnet"
)

// newShapeCluster is a cluster on a shapeNet over a zero-delay simnet, one site
// for each call timeout given, with the detector the test steps: heartbeats
// are off and nobody is suspected until crash says so.
func newShapeCluster(t *testing.T, callTimeouts ...time.Duration) (*testCluster, *shapeNet) {
	t.Helper()
	net := simnet.New(simnet.FastConfig())
	fab := &shapeNet{Network: net, sent: make(map[shapeKey]string)}
	tc := &testCluster{t: t, net: net, fabric: fab, daemons: make(map[addr.SiteID]*Daemon)}
	for i, timeout := range callTimeouts {
		d, err := New(Config{Site: addr.SiteID(i + 1), Network: fab, CallTimeout: timeout, DisableHeartbeats: true})
		if err != nil {
			t.Fatal(err)
		}
		tc.daemons[addr.SiteID(i+1)] = d
	}
	t.Cleanup(func() {
		for _, d := range tc.daemons {
			d.Close()
		}
		fab.Close()
	})
	return tc, fab
}

// since lists, sorted, the messages the fabric started after before was
// taken, as "from>to kind".
func (n *shapeNet) since(before map[shapeKey]string) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var got []string
	for k, kind := range n.sent {
		if _, old := before[k]; !old {
			got = append(got, fmt.Sprintf("%d>%d %s", k.from, k.to, kind))
		}
	}
	slices.Sort(got)
	return got
}

func (n *shapeNet) snapshot() map[shapeKey]string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return maps.Clone(n.sent)
}

// stateLog is a joiner's StateReceiver: the blocks it was handed, and how many
// times a block came marked last.
type stateLog struct {
	mu     sync.Mutex
	blocks []string
	lasts  int
}

func (l *stateLog) receive(b []byte, last bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(b) > 0 {
		l.blocks = append(l.blocks, string(b))
	}
	if last {
		l.lasts++
	}
}

func (l *stateLog) read() ([]string, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.blocks), l.lasts
}

// TestJoinLeavePacketShape counts the daemon packets one join with 4×4 KB of
// state and one leave put on the wire, by type and site pair, with members at
// sites 1-3 (the oldest at site 1) and the joiner at site 4: the GBCAST rounds
// and the four blocks, and no notice that the transfer completed. The leave's
// request carries site 4's answer to its prepare, so site 4 is sent no prepare
// and sends no ack.
func TestJoinLeavePacketShape(t *testing.T) {
	tc, fab := newShapeCluster(t, 2*time.Second, 2*time.Second, 2*time.Second, 2*time.Second)
	procs := buildGroup(t, tc, "churn", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "churn")
	state := [][]byte{make([]byte, 4096), make([]byte, 4096), make([]byte, 4096), make([]byte, 4096)}
	if err := tc.daemons[1].SetStateProvider(procs[0].addr, gid, func() [][]byte { return state }); err != nil {
		t.Fatal(err)
	}
	joiner, d4 := tc.newProc(4), tc.daemons[4]

	before := fab.snapshot()
	var log stateLog
	v, err := d4.Join(joiner.addr, gid, JoinOptions{WantState: true, StateReceiver: log.receive})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the state at the joiner", 5*time.Second, func() bool { _, lasts := log.read(); return lasts == 1 })
	if err := d4.Leave(joiner.addr, gid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the leave's view everywhere", 5*time.Second, func() bool {
		return !slices.ContainsFunc(procs, func(p *testProc) bool { return p.lastView().ID <= v.ID })
	})

	var want []string
	add := func(from, to addr.SiteID, pt byte, n int) {
		for range n {
			want = append(want, fmt.Sprintf("%d>%d type %d", from, to, pt))
		}
	}
	add(4, 1, ptGbRequest, 2) // the join, the leave: the leave carries site 4's ack
	for _, s := range []addr.SiteID{2, 3} {
		add(1, s, ptGbPrepare, 2)
		add(s, 1, ptGbAck, 2)
		add(1, s, ptGbCommit, 2)
	}
	add(1, 4, ptGbCommit, 2)
	add(1, 4, ptGbDone, 2)
	add(1, 4, ptStateBlock, 4)
	slices.Sort(want)
	// The joiner's site looks the group up first, asking every site.
	got := slices.DeleteFunc(fab.since(before), func(g string) bool {
		return strings.HasSuffix(g, fmt.Sprintf(" type %d", ptLookup)) || strings.HasSuffix(g, fmt.Sprintf(" type %d", ptLookupResp))
	})
	if !slices.Equal(got, want) {
		t.Errorf("a join with its state and a leave sent\n%s\nwant\n%s", strings.Join(got, ", "), strings.Join(want, ", "))
	}
}

// heldXfer is a transfer whose provider (site 1) left mid-transfer, its capture
// held. With the link to the joiner's site (3) paused, the provider shipped
// onto it and the leave went ahead without that site, whose prepare the link
// also held: the site did not answer, so its members were listed for the
// successor (site 2) to ship to. Otherwise the capture waits until the test
// ends, and the joiner's site answers the prepare listing the joiner. The
// coordinator's calls end after 200 ms so its prepare gives up on a silent
// site; the leave is requested from site 2, whose call waits out the flush.
type heldXfer struct {
	tc     *testCluster
	fab    *shapeNet
	rec    *simnet.Recorder
	procs  []*testProc
	gid    addr.Address
	joiner *testProc
	log    stateLog
	joined core.View
	before map[shapeKey]string // the fabric before the provider could ship
	second chan struct{}       // the successor's second capture waits for it
}

// providerLeavesMidTransfer sets up a heldXfer and returns once the joiner has
// its state, the link still paused if silent.
func providerLeavesMidTransfer(t *testing.T, silent bool) *heldXfer {
	x := &heldXfer{second: make(chan struct{})}
	x.tc, x.fab = newShapeCluster(t, 200*time.Millisecond, 10*time.Second, 10*time.Second)
	x.rec = simnet.NewRecorder()
	x.tc.net.SetTracer(x.rec)
	x.procs = buildGroup(t, x.tc, "vault", 1, 2)
	x.gid = groupOf(t, x.tc, x.procs[0], "vault")
	release := make(chan struct{})
	t.Cleanup(func() {
		for _, ch := range []chan struct{}{release, x.second} {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
	})
	if err := x.tc.daemons[1].SetStateProvider(x.procs[0].addr, x.gid, func() [][]byte {
		<-release
		return [][]byte{[]byte("stale")}
	}); err != nil {
		t.Fatal(err)
	}
	captures := 0 // on the successor's queue, one at a time
	if err := x.tc.daemons[2].SetStateProvider(x.procs[1].addr, x.gid, func() [][]byte {
		if captures++; captures > 1 {
			<-x.second
		}
		return [][]byte{[]byte("row-a"), []byte("row-b")}
	}); err != nil {
		t.Fatal(err)
	}
	x.joiner = x.tc.newProc(3)
	var err error
	if x.joined, err = x.tc.daemons[3].Join(x.joiner.addr, x.gid, JoinOptions{WantState: true, StateReceiver: x.log.receive}); err != nil {
		t.Fatal(err)
	}

	// The join is installed at the joiner's site; its provider ships onto the
	// paused link.
	x.before = x.fab.snapshot()
	if silent {
		x.tc.net.PauseLink(1, 3)
		close(release)
		waitFor(t, "the provider's block on the paused link", 5*time.Second, func() bool {
			return slices.Contains(x.fab.since(x.before), fmt.Sprintf("1>3 type %d", ptStateBlock))
		})
	}
	if err := x.tc.daemons[2].Leave(x.procs[0].addr, x.gid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the state at the joiner", 5*time.Second, func() bool { _, lasts := x.log.read(); return lasts == 1 })
	return x
}

// TestStateFromSuccessorWhenProviderLeavesMidTransfer: the joiner gets the
// state exactly once, from the successor, whether its site was silent in the
// leave's flush (and drops the provider's block once the link resumes) or
// reported it awaiting state.
func TestStateFromSuccessorWhenProviderLeavesMidTransfer(t *testing.T) {
	for _, silent := range []bool{true, false} {
		t.Run(fmt.Sprintf("silent=%v", silent), func(t *testing.T) {
			x := providerLeavesMidTransfer(t, silent)
			if silent {
				x.tc.net.ResumeLink(1, 3)
				heldFrom(t, x.rec, 1, 3)
			}
			waitFor(t, "the leave's view at the joiner", 5*time.Second, func() bool { return x.joiner.lastView().ID > x.joined.ID })

			if blocks, lasts := x.log.read(); !slices.Equal(blocks, []string{"row-a", "row-b"}) || lasts != 1 {
				t.Errorf("the joiner was handed %v, %d marked last; want [row-a row-b] once, from the successor", blocks, lasts)
			}
			got := x.fab.since(x.before)
			for link, want := range map[string]int{"1>3": int(bit(silent)), "2>3": 2} {
				if n := countOf(got, fmt.Sprintf("%s type %d", link, ptStateBlock)); n != want {
					t.Errorf("%d state blocks went %s, want %d", n, link, want)
				}
			}
		})
	}
}

// TestStragglerBlockFromBeforeARejoinIsDropped: the joiner leaves and joins
// again while the dead attempt's block is still held, and the new transfer's
// capture waits; the held block, the last of an attempt numbered below the
// rejoin's view, arrives while the member awaits state and is dropped, so the
// member gets the successor's state. The leave is requested from site 2: the
// joiner's site, which the provider's leave has not reached, would ask the
// provider's, whose answer the link holds; the rejoin waits for the leave's
// view at the joiner's site, which names the successor's.
func TestStragglerBlockFromBeforeARejoinIsDropped(t *testing.T) {
	x := providerLeavesMidTransfer(t, true)
	if err := x.tc.daemons[2].Leave(x.joiner.addr, x.gid); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the leave at the joiner's site", 5*time.Second, func() bool {
		v, _ := x.tc.daemons[3].CurrentView(x.gid)
		return !v.Contains(x.joiner.addr)
	})
	var again stateLog
	if _, err := x.tc.daemons[3].Join(x.joiner.addr, x.gid, JoinOptions{WantState: true, StateReceiver: again.receive}); err != nil {
		t.Fatal(err)
	}
	x.tc.net.ResumeLink(1, 3)
	heldFrom(t, x.rec, 1, 3)
	close(x.second)
	waitFor(t, "the rejoin's state", 5*time.Second, func() bool { _, lasts := again.read(); return lasts > 0 })
	if blocks, lasts := again.read(); !slices.Equal(blocks, []string{"row-a", "row-b"}) || lasts != 1 {
		t.Errorf("the rejoined member was handed %v, %d marked last; want [row-a row-b] once, from the successor", blocks, lasts)
	}
}

// TestFinishedTransferIsNotShippedAgain lets a transfer complete, then has the
// provider leave or crash: the joiner's site reports nothing pending, and no
// state block goes on the wire again. The successor then casts twice, the
// second after it delivered the first: a capture the view change queued ahead
// of that delivery has sent its blocks before the second cast's packet
// reaches the joiner.
func TestFinishedTransferIsNotShippedAgain(t *testing.T) {
	for _, end := range []string{"leaves", "crashes"} {
		t.Run("provider "+end, func(t *testing.T) {
			tc, fab := newShapeCluster(t, 2*time.Second, 2*time.Second, 2*time.Second)
			procs := buildGroup(t, tc, "ledger", 1, 2)
			gid := groupOf(t, tc, procs[0], "ledger")
			for i, p := range procs {
				if err := tc.daemons[addr.SiteID(i+1)].SetStateProvider(p.addr, gid, func() [][]byte {
					return [][]byte{[]byte("entry-1"), []byte("entry-2")}
				}); err != nil {
					t.Fatal(err)
				}
			}
			joiner := tc.newProc(3)
			var log stateLog
			if _, err := tc.daemons[3].Join(joiner.addr, gid, JoinOptions{WantState: true, StateReceiver: log.receive}); err != nil {
				t.Fatal(err)
			}
			// The join is installed everywhere: a successor that missed its
			// commit would prepare only the sites of its own view, and split
			// the view with the joiner's site, which it never asks.
			waitFor(t, "the state at the joiner and the join at site 2", 5*time.Second, func() bool {
				_, lasts := log.read()
				return lasts == 1 && procs[1].lastView().Contains(joiner.addr)
			})

			before := fab.snapshot()
			if end == "leaves" {
				if err := tc.daemons[1].Leave(procs[0].addr, gid); err != nil {
					t.Fatal(err)
				}
			} else {
				tc.crash(1)
			}
			waitFor(t, "the provider gone from the survivors' views", 5*time.Second, func() bool {
				return procs[1].lastView().Size() == 2 && joiner.lastView().Size() == 2
			})
			if err := cast(procs[1], CBCAST, gid, "after"); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the successor's own cast", 5*time.Second, func() bool { return procs[1].got("after") })
			if err := cast(procs[1], CBCAST, gid, "last"); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the successor's second cast at the joiner", 5*time.Second, func() bool { return joiner.got("last") })

			if n := countOf(fab.since(before), fmt.Sprintf("type %d", ptStateBlock)); n != 0 {
				t.Errorf("%d state blocks went on the wire after the transfer completed, want 0", n)
			}
			if blocks, lasts := log.read(); len(blocks) != 2 || lasts != 1 {
				t.Errorf("the joiner was handed %v, %d marked last; want the two blocks once", blocks, lasts)
			}
		})
	}
}

// countOf counts the entries of a since list that end with suffix.
func countOf(got []string, suffix string) int {
	n := 0
	for _, g := range got {
		if strings.HasSuffix(g, suffix) {
			n++
		}
	}
	return n
}
