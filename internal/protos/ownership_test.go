package protos

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/fdetect"
	"repro/internal/msg"
	"repro/internal/simnet"
)

// TestFlushCountsTheSendersOpenRounds pins where Flush finds a sender's
// outstanding ABCASTs: among the submissions of the copies at its site. A
// submission held by hand keeps its sender's Flush waiting until the call
// times out, and nobody else's; once the holder's stamped copy retires it
// ("retire"), or the copy is dropped with it ("drop"), the sender's Flush
// returns at once.
func TestFlushCountsTheSendersOpenRounds(t *testing.T) {
	for _, end := range []string{"retire", "drop"} {
		t.Run(end, func(t *testing.T) {
			fx := newWireFixture(t)
			d := fx.d
			other, err := d.RegisterProcess(func(addr.EntryID, *msg.Message) {}, func(func()) {}, nil, readsEvery)
			if err != nil {
				t.Fatal(err)
			}
			id := core.MsgID{Sender: fx.member, Seq: 1}
			d.mu.Lock()
			d.cfg.CallTimeout = 150 * time.Millisecond
			d.groups[fx.gid].submitted[id] = dataPkt(t, ABCAST, fx.gid, fx.view, id, 0, body("open"))
			d.mu.Unlock()

			if err := d.Flush(fx.member); !errors.Is(err, ErrTimeout) {
				t.Errorf("the sender's Flush with its submission open: %v, want ErrTimeout", err)
			}
			if err := d.Flush(other); err != nil {
				t.Errorf("another process's Flush: %v, want nil", err)
			}
			if end == "retire" {
				view, _ := d.CurrentView(fx.gid)
				d.handleTransport(2, stamped(t, view, id, 1, "open").raw)
			} else {
				d.mu.Lock()
				d.dropGroupLocked(fx.gid, inDrop)
				d.mu.Unlock()
			}
			if err := d.Flush(fx.member); err != nil {
				t.Errorf("the sender's Flush after the %s: %v, want nil", end, err)
			}
		})
	}
}

// TestCopyOwnsItsMessageState parses the package and pins who owns per-message
// protocol state: the group copy the message runs in. No field of the Daemon or
// of a localProc has a type keyed by a message id, a map or a bounded log, so
// ABCAST submissions and the recent record cannot drift back onto the daemon to
// be filtered by group again.
func TestCopyOwnsItsMessageState(t *testing.T) {
	_, files := parsePackage(t)
	fields := make(map[string][]*ast.Field)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok {
					fields[ts.Name.Name] = st.Fields.List
				}
			}
			return true
		})
	}
	// keyed lists the fields of a struct whose type is keyed by core.MsgID.
	keyed := func(typ string) (names []string) {
		for _, f := range fields[typ] {
			var key ast.Expr
			switch ty := f.Type.(type) {
			case *ast.MapType:
				key = ty.Key
			case *ast.IndexExpr:
				key = ty.Index
			case *ast.IndexListExpr:
				key = ty.Indices[0]
			}
			if key != nil && types.ExprString(key) == "core.MsgID" {
				for _, n := range f.Names {
					names = append(names, n.Name)
				}
			}
		}
		return names
	}
	if got := keyed("groupState"); !slices.Contains(got, "submitted") || !slices.Contains(got, "recent") {
		t.Fatalf("groupState's message-keyed fields are %v: the check does not see submitted and recent", got)
	}
	for _, typ := range []string{"Daemon", "localProc"} {
		if len(fields[typ]) == 0 {
			t.Fatalf("no struct %s in the package", typ)
		}
		if got := keyed(typ); len(got) > 0 {
			t.Errorf("%s.%v: per-message protocol state belongs to the group copy", typ, got)
		}
	}
}

// scribbleDelivery mutates a delivered message every way a handler can: in
// place, through the slices the getters hand out, then through the Put calls.
func scribbleDelivery(m *msg.Message) {
	for _, b := range [][]byte{m.GetBytes("p"), m.GetMessage("sub").GetBytes("p")} {
		copy(b, "XXXXXXXX")
	}
	m.PutBytes("p", []byte("scribbled")).PutString("body", "gone").PutInt("extra", 1)
	m.GetMessage("sub").PutBytes("p", nil)
	m.Delete(msg.FSender)
}

// userBytes marshals a delivery without the system fields the toolkit added.
func userBytes(m *msg.Message) []byte {
	c := m.CloneStripped(0)
	raw, _ := c.Marshal()
	return raw
}

// TestHandlerMutationDoesNotReachRecentBuffer covers the ownership rule the
// flush depends on: a delivered packet's record (gs.recent) is the bytes it
// travelled as, and its one decoded payload is handed to the site's last
// member (a clone to each before it), so nothing a handler does to the message
// it was handed may change what a later flush re-sends, what the member next
// to it received, or what a retransmission carries. The sender (site 2) hosts
// two members and site 1 one, so the scribbled deliveries are the sender's own
// payload or its clone, and a decoded payload itself; site 3's link from the
// sender is held throughout, and the join's flush must carry it the original.
func TestHandlerMutationDoesNotReachRecentBuffer(t *testing.T) {
	payload := func() *msg.Message {
		return body("kept").PutBytes("p", []byte("original")).
			PutMessage("sub", msg.New().PutBytes("p", []byte("nested")))
	}
	want, _ := payload().Marshal()
	for _, proto := range []Protocol{CBCAST, ABCAST} {
		t.Run(proto.String(), func(t *testing.T) {
			tc := newFaultCluster(t, 3, simnet.FastConfig(), 2*time.Second, quietDetector())
			procs := buildGroup(t, tc, "recent", 1, 2, 2, 3)
			gid := groupOf(t, tc, procs[0], "recent")
			if proto == ABCAST {
				// The cast reaches site 3 from the holder, site 1, on the link
				// the join's flush needs too: site 3 is wedged by hand instead,
				// so it parks the cast, which its report then lacks.
				tc.daemons[3].handleTransport(1, encoded(t, ptGbPrepare, gbPacket{group: gid, call: 4242}))
			} else {
				tc.net.PauseLink(2, 3)
			}
			id, err := procs[1].d.Multicast(procs[1].addr, proto, addr.List{gid}, addr.EntryUserBase, payload())
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, "delivery at sites 1 and 2", 5*time.Second, func() bool {
				return procs[0].numMsgs() == 1 && procs[1].numMsgs() == 1 && procs[2].numMsgs() == 1
			})
			for _, p := range procs[:2] {
				p.mu.Lock()
				scribbleDelivery(p.msgs[0])
				p.mu.Unlock()
			}
			procs[2].mu.Lock()
			neighbour := procs[2].msgs[0]
			procs[2].mu.Unlock()
			if got := userBytes(neighbour); !bytes.Equal(got, want) {
				t.Errorf("the neighbouring member's delivery changed: %s", neighbour.Format())
			}
			for _, s := range []addr.SiteID{1, 2} {
				d := tc.daemons[s]
				d.mu.Lock()
				raw, _ := d.groups[gid.Base()].recent.Get(id)
				d.mu.Unlock()
				pkt, ok := parseDataPacket(raw)
				if !ok {
					t.Fatalf("site %d kept no recent record (%x)", s, raw)
				}
				if !bytes.Equal(raw[pkt.body:], want) {
					t.Errorf("site %d would re-disseminate %s", s, pkt.payload.Format())
				}
			}
			if procs[3].numMsgs() != 0 {
				t.Fatal("site 3 was delivered the cast over a held link")
			}
			joiner := tc.newProc(1)
			if _, err := joiner.d.Join(joiner.addr, gid, JoinOptions{}); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "the flush's re-dissemination at site 3", 5*time.Second, func() bool { return procs[3].numMsgs() == 1 })
			procs[3].mu.Lock()
			late := procs[3].msgs[0]
			procs[3].mu.Unlock()
			if got := userBytes(late); !bytes.Equal(got, want) {
				t.Errorf("the flush carried site 3 %s", late.Format())
			}
			tc.net.ResumeLink(2, 3)
		})
	}
	t.Run("retransmission", func(t *testing.T) {
		tc := newFaultCluster(t, 2, simnet.FastConfig(), 2*time.Second, quietDetector())
		procs := buildGroup(t, tc, "resend", 1, 2)
		gid := groupOf(t, tc, procs[0], "resend")
		tc.net.Partition(1, 2)
		if _, err := procs[0].d.Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, payload()); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the sender's own delivery", 5*time.Second, func() bool { return procs[0].numMsgs() == 1 })
		procs[0].mu.Lock()
		scribbleDelivery(procs[0].msgs[0]) // the very message Multicast was given
		procs[0].mu.Unlock()
		tc.net.Heal(1, 2)
		waitFor(t, "the retransmission at site 2", 5*time.Second, func() bool { return procs[1].numMsgs() == 1 })
		procs[1].mu.Lock()
		defer procs[1].mu.Unlock()
		if got := userBytes(procs[1].msgs[0]); !bytes.Equal(got, want) {
			t.Errorf("the retransmission delivered %s", procs[1].msgs[0].Format())
		}
	})
}

// TestStateBlockIsTheReceiversToWrite pins from the outside who owns a state
// block: the joiner's StateReceiver is handed each block as it arrived, a
// range of the frame nothing else refers to, and overwrites every one (and
// grows it, which must not reach past its end). One transfer ships to two
// joiners at two sites; only site 3's receiver scribbles, and site 4's must
// receive the blocks as the provider returned them, the provider keep its own.
// Right after the join commit, from its state capture, the provider casts the
// CBCASTs the joiners hold until the state lands: they must reach the joiners
// intact and equal to the other member's deliveries. Blocks smaller than a
// frame share frames with one another and with those casts (site 3's link is
// cut while they go out, and the transport's retransmission coalesces them);
// blocks larger than a frame arrive reassembled.
func TestStateBlockIsTheReceiversToWrite(t *testing.T) {
	for name, size := range map[string]int{"smaller than a frame": 100, "larger than a frame": 10000} {
		t.Run(name, func(t *testing.T) {
			tc := newFaultCluster(t, 4, simnet.FastConfig(), 2*time.Second, fdetect.Config{})
			rec := simnet.NewRecorder()
			tc.net.SetTracer(rec)
			procs := buildGroup(t, tc, "scribble", 1, 2)
			gid := groupOf(t, tc, procs[0], "scribble")
			state, want := make([][]byte, 6), make([][]byte, 6)
			for i := range state {
				state[i] = bytes.Repeat([]byte{byte('a' + i)}, size)
				want[i] = bytes.Clone(state[i])
			}
			capturing, release := make(chan struct{}), make(chan struct{})
			const casts = 5
			if err := procs[0].d.SetStateProvider(procs[0].addr, gid, func() [][]byte {
				close(capturing)
				<-release
				for i := 0; i < casts; i++ {
					m := body(fmt.Sprintf("c%d", i)).PutBytes("p", bytes.Repeat([]byte{'c'}, size))
					if _, err := procs[0].d.Multicast(procs[0].addr, CBCAST, addr.List{gid}, addr.EntryUserBase, m); err != nil {
						t.Error(err)
					}
				}
				return state
			}); err != nil {
				t.Fatal(err)
			}

			type received struct {
				sync.Mutex
				blocks [][]byte
				done   bool
			}
			joiners := []*testProc{tc.newProc(3), tc.newProc(4)}
			got := []*received{{}, {}}
			for i, j := range joiners {
				r, scribble := got[i], i == 0
				j.d.mu.Lock()
				j.d.pendingJoin[joinKey{gid, j.addr}] = func(b []byte, last bool) {
					r.Lock()
					defer r.Unlock()
					r.blocks, r.done = append(r.blocks, bytes.Clone(b)), last
					if scribble {
						for k := range b {
							b[k] = 'X'
						}
						_ = append(b, bytes.Repeat([]byte{'Y'}, 64)...) // more than the next record's headers
					}
				}
				j.d.mu.Unlock()
			}
			joined := make(chan error, 1)
			go func() {
				_, err := askSite(tc.daemons[3], 1, gbPacket{kind: gbJoin, group: gid, procs: addr.List{joiners[0].addr, joiners[1].addr}, wantState: true})
				joined <- err
			}()
			select {
			case <-capturing:
			case <-time.After(5 * time.Second):
				t.Fatal("the provider was never asked for the state")
			}
			tc.net.Partition(1, 3)
			close(release)
			waitFor(t, "the casts and blocks for site 3 transmitted twice into the cut", 5*time.Second, func() bool {
				dropped := 0
				for _, e := range rec.Events() {
					if e.Kind == simnet.EventDrop && e.From == 1 && e.To == 3 {
						dropped += e.Size
					}
				}
				return dropped >= 2*len(state)*size
			})
			tc.net.Heal(1, 3)
			if err := <-joined; err != nil {
				t.Fatalf("the join of both joiners: %v", err)
			}
			waitFor(t, "both transfers and the held casts", 5*time.Second, func() bool {
				for i, r := range got {
					r.Lock()
					done := r.done
					r.Unlock()
					if !done || joiners[i].numMsgs() < casts || procs[1].numMsgs() < casts {
						return false
					}
				}
				return true
			})
			for i, r := range got {
				r.Lock()
				if !slices.EqualFunc(r.blocks, want, bytes.Equal) {
					t.Errorf("joiner %d received %d blocks, not the provider's %d as it returned them", i+1, len(r.blocks), len(want))
				}
				r.Unlock()
			}
			if !slices.EqualFunc(state, want, bytes.Equal) {
				t.Error("the provider's own blocks changed")
			}
			castBytes := func(p *testProc) (out []string) {
				p.mu.Lock()
				defer p.mu.Unlock()
				for _, m := range p.msgs {
					out = append(out, m.GetString("body", "")+":"+string(m.GetBytes("p")))
				}
				return out
			}
			other := castBytes(procs[1])
			for i, j := range joiners {
				if got := castBytes(j); !slices.Equal(got, other) {
					t.Errorf("joiner %d delivered %d casts that differ from the other member's %d", i+1, len(got), len(other))
				}
			}
			if size < 4096 {
				shared := false
				for _, e := range rec.Events() {
					shared = shared || e.Kind == simnet.EventDeliver && e.From == 1 && e.To == 3 && e.Size > 3*size
				}
				if !shared {
					t.Error("no frame to site 3 carried more than two blocks' worth: the shared-frame path went untested")
				}
			}
		})
	}
}
