package protos

// Scenario tests for the one ordering state a group copy keeps: a site orders
// each CBCAST and ABCAST once and hands the result to every local member, and
// what a flush re-disseminates goes through the same queues as everything
// else. Each races a stream of multicasts against a membership change, which
// is where a second way into delivery used to show: re-disseminated CBCASTs
// handed over in list order, and an ABCAST delivered from the re-dissemination
// list at one site and from the priority queue at another.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/simnet"
)

// cast sends one group multicast from p.
func cast(p *testProc, proto Protocol, gid addr.Address, b string) error {
	_, err := p.d.Multicast(p.addr, proto, addr.List{gid}, addr.EntryUserBase, body(b))
	return err
}

// stream casts tag-000, tag-001, … from p back to back, n of them, and returns
// how many the daemon accepted (all of them, unless p was killed on the way).
func stream(p *testProc, proto Protocol, gid addr.Address, tag string, n int) int {
	for i := 0; i < n; i++ {
		if cast(p, proto, gid, fmt.Sprintf("%s-%03d", tag, i)) != nil {
			return i
		}
	}
	return n
}

// tagged returns the entries of a trace that start with prefix, in order.
func tagged(trace []string, prefix string) []string {
	var out []string
	for _, e := range trace {
		if strings.HasPrefix(e, prefix) {
			out = append(out, e)
		}
	}
	return out
}

func (p *testProc) traced() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.trace)
}

// assertSameSequence fails, naming the first position at which they differ,
// unless the two sequences are equal.
func assertSameSequence(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Errorf("%s: sequences differ at position %d\n got  %v\n want %v", what, i, got, want)
			return
		}
	}
}

// assertFIFO fails unless the process's deliveries of one sender's CBCAST
// stream are consecutive: from the stream's first cast (fromStart), or for a
// member that joined mid-stream from wherever it came in.
func assertFIFO(t *testing.T, what string, p *testProc, tag string, fromStart bool) {
	t.Helper()
	got := tagged(p.traced(), tag+"-")
	if len(got) == 0 {
		return
	}
	first := 0
	if !fromStart {
		fmt.Sscanf(got[0], tag+"-%d", &first)
	}
	want := make([]string, len(got))
	for i := range want {
		want[i] = fmt.Sprintf("%s-%03d", tag, first+i)
	}
	assertSameSequence(t, what+": "+tag+" stream", got, want)
}

// assertNoDuplicates fails if the process was handed any message twice.
func assertNoDuplicates(t *testing.T, what string, p *testProc) {
	t.Helper()
	seen := make(map[string]bool)
	for _, e := range p.traced() {
		if seen[e] {
			t.Errorf("%s saw %q twice", what, e)
		}
		seen[e] = true
	}
}

// TestFlushRedisseminatesCbcastInSenderOrder streams CBCASTs from the member
// at site 2 while a process joins at site 1. The join's flush finds some of
// them delivered at site 2 only and re-disseminates them; every member must
// still see the stream in the order it was sent.
func TestFlushRedisseminatesCbcastInSenderOrder(t *testing.T) {
	const n = 40
	tc := newFaultCluster(t, 3, simnet.FastConfig(), 2*time.Second, quietDetector())
	procs := buildGroup(t, tc, "cbflush", 1, 2, 3)
	gid := groupOf(t, tc, procs[0], "cbflush")

	sent := make(chan int, 1)
	go func() { sent <- stream(procs[1], CBCAST, gid, "c", n) }()
	joiner := tc.newProc(1)
	if _, err := tc.daemons[1].Join(joiner.addr, gid, JoinOptions{}); err != nil {
		t.Fatalf("join: %v", err)
	}
	if got := <-sent; got != n {
		t.Fatalf("the sender got %d of %d casts accepted", got, n)
	}
	// The sender's next CBCAST follows the whole stream at every member, the
	// joiner included.
	if err := cast(procs[1], CBCAST, gid, "end"); err != nil {
		t.Fatal(err)
	}
	all := append(slices.Clone(procs), joiner)
	waitFor(t, "the closing cast at every member", 10*time.Second, func() bool {
		return !slices.ContainsFunc(all, func(p *testProc) bool { return !p.got("end") })
	})
	for i, p := range procs {
		if got := len(tagged(p.traced(), "c-")); got != n {
			t.Errorf("member %d delivered %d of the %d casts", i, got, n)
		}
		assertFIFO(t, fmt.Sprintf("member %d", i), p, "c", true)
	}
	assertFIFO(t, "joiner", joiner, "c", false)
	if got := tagged(joiner.traced(), "c-"); len(got) > 0 && got[len(got)-1] != fmt.Sprintf("c-%03d", n-1) {
		t.Errorf("the joiner's stream ends at %s: %v", got[len(got)-1], got)
	}
}

// TestAbcastOrderIdenticalAcrossJoinFlush has three members stream ABCASTs
// and a process join at site 1, the coordinator's, with the streams caught in
// the state the race of a join against them leaves behind: delivered at some
// sites, pending at another. Link pauses hold it still. First sites 2 and 3
// cannot hear each other, so no round of theirs completes while site 1
// proposes for all of them (and completes its own: a round cut off from a
// proposal would end at its deadline without it, which no order survives);
// then what they send to site 1 is held instead, so
// their rounds commit and deliver at both with site 1's copy of every commit
// on the wire, where it stays until site 1 has wedged for the join. The flush
// finds the messages delivered at sites 2 and 3 and pending at site 1, which
// must deliver them out of its priority queue, each in its place, as the
// others did — not in the order the commit happens to list them.
func TestAbcastOrderIdenticalAcrossJoinFlush(t *testing.T) {
	const n = 40
	for _, sites := range [][]addr.SiteID{{1, 2, 3}, {1, 1, 2, 2, 3}} {
		t.Run(fmt.Sprint(sites), func(t *testing.T) {
			tc := newFaultCluster(t, 3, simnet.FastConfig(), 2*time.Second, quietDetector())
			procs := buildGroup(t, tc, "abflush", sites...)
			gid := groupOf(t, tc, procs[0], "abflush")
			senders := []*testProc{procs[0], procs[len(procs)/2], procs[len(procs)-1]} // one a site

			tc.net.PauseLink(2, 3)
			tc.net.PauseLink(3, 2)
			for s, p := range senders {
				if got := stream(p, ABCAST, gid, fmt.Sprintf("a%d", s), n); got != n {
					t.Fatalf("sender %d got %d of %d casts accepted", s, got, n)
				}
			}
			waitFor(t, "site 1 to complete its own rounds and propose for every remote one", 5*time.Second, func() bool {
				d := tc.daemons[1]
				d.mu.Lock()
				defer d.mu.Unlock()
				remote := 0
				for _, p := range d.buildReportLocked(d.groups[gid]).Abcasts {
					if p.ID.Sender.Site != 1 {
						remote++
					}
				}
				return remote == 2*n && len(d.pendingAb) == 0
			})
			tc.net.PauseLink(2, 1)
			tc.net.PauseLink(3, 1)
			tc.net.ResumeLink(2, 3)
			tc.net.ResumeLink(3, 2)
			waitFor(t, "every ABCAST at sites 2 and 3", 5*time.Second, func() bool {
				return !slices.ContainsFunc(procs, func(p *testProc) bool { return p.addr.Site != 1 && p.numMsgs() < 3*n })
			})

			joiner := tc.newProc(1)
			joined := make(chan error, 1)
			go func() {
				_, err := tc.daemons[1].Join(joiner.addr, gid, JoinOptions{})
				joined <- err
			}()
			waitFor(t, "site 1 to wedge for the join", 5*time.Second, func() bool {
				d := tc.daemons[1]
				d.mu.Lock()
				defer d.mu.Unlock()
				return d.groups[gid].phase == phaseFlushing
			})
			tc.net.ResumeAll()
			if err := <-joined; err != nil {
				t.Fatalf("join: %v", err)
			}
			waitFor(t, "every ABCAST at site 1", 10*time.Second, func() bool {
				return !slices.ContainsFunc(procs, func(p *testProc) bool { return p.numMsgs() < 3*n })
			})
			want := tagged(procs[len(procs)-1].traced(), "a")
			for i, p := range procs {
				assertSameSequence(t, fmt.Sprintf("ABCAST order at member %d against site 3's", i), tagged(p.traced(), "a"), want)
				assertNoDuplicates(t, fmt.Sprintf("member %d", i), p)
			}
		})
	}
}

// TestCoLocatedMembersSeeOneOrder pins what several members on one site may
// rely on: members on sites 1,1,2,2,3, two co-located senders and one remote,
// each racing a CBCAST stream against an ABCAST stream. "steady" runs with the
// membership fixed; "churn" runs the same streams while a third member joins
// at site 1 and the oldest member there — a sender, and the group's
// coordinator — is then killed. In both nobody sees a message twice, every
// CBCAST stream is FIFO, the members that were there throughout hold one
// ABCAST sequence, and the joiner's is what they delivered after installing its
// first view, no more and no less.
func TestCoLocatedMembersSeeOneOrder(t *testing.T) {
	const n = 40
	for _, phase := range []string{"steady", "churn"} {
		t.Run(phase, func(t *testing.T) {
			tc := newFaultCluster(t, 3, simnet.FastConfig(), 2*time.Second, quietDetector())
			procs := buildGroup(t, tc, "colocated", 1, 1, 2, 2, 3)
			gid := groupOf(t, tc, procs[0], "colocated")

			sent := make(chan struct{}, 3)
			for s := 0; s < 3; s++ {
				go func() {
					defer func() { sent <- struct{}{} }()
					for i := 0; i < n; i++ {
						if cast(procs[s], CBCAST, gid, fmt.Sprintf("c%d-%03d", s, i)) != nil ||
							cast(procs[s], ABCAST, gid, fmt.Sprintf("a%d-%03d", s, i)) != nil {
							return // killed on the way
						}
					}
				}()
			}
			old, all, firstSurvivor := procs, procs, 0
			var joiner *testProc
			if phase == "churn" {
				joiner = tc.newProc(1)
				if _, err := tc.daemons[1].Join(joiner.addr, gid, JoinOptions{}); err != nil {
					t.Fatalf("join: %v", err)
				}
				if err := tc.daemons[1].KillProcess(procs[0].addr); err != nil {
					t.Fatal(err)
				}
				old, all, firstSurvivor = procs[1:], append(slices.Clone(procs[1:]), joiner), 1
				waitFor(t, "the view without the killed member", 10*time.Second, func() bool {
					return !slices.ContainsFunc(all, func(p *testProc) bool { return p.lastView().Size() != 5 || p.lastView().Contains(procs[0].addr) })
				})
			}
			for s := 0; s < 3; s++ {
				<-sent
			}
			// One more of each from a surviving sender: the CBCAST follows its
			// stream, the ABCAST is ordered against everything still in flight.
			if cast(procs[1], CBCAST, gid, "end-c") != nil || cast(procs[1], ABCAST, gid, "end-a") != nil {
				t.Fatal("closing casts refused")
			}
			waitFor(t, "the surviving senders' streams and the closing casts everywhere", 15*time.Second, func() bool {
				for _, p := range all {
					if !p.got("end-c") || !p.got("end-a") {
						return false
					}
				}
				for _, p := range old {
					tr := p.traced()
					for s := firstSurvivor; s < 3; s++ {
						if len(tagged(tr, fmt.Sprintf("c%d-", s))) < n || len(tagged(tr, fmt.Sprintf("a%d-", s))) < n {
							return false
						}
					}
				}
				return true
			})

			want := tagged(old[0].traced(), "a")
			for _, p := range old[1:] {
				assertSameSequence(t, fmt.Sprintf("ABCAST order at %v against %v", p.addr, old[0].addr), tagged(p.traced(), "a"), want)
			}
			for _, p := range all {
				assertNoDuplicates(t, p.addr.String(), p)
				for s := 0; s < 3; s++ {
					assertFIFO(t, p.addr.String(), p, fmt.Sprintf("c%d", s), p != joiner)
				}
			}
			if joiner == nil {
				return
			}
			// What an old member delivered once it had installed the joiner's
			// first view is what the joiner was handed.
			jt := joiner.traced()
			ot := old[0].traced()
			assertSameSequence(t, "the joiner's ABCASTs against an old member's since the joiner's first view",
				tagged(jt, "a"), tagged(ot[slices.Index(ot, jt[0])+1:], "a"))
		})
	}
}

// TestCastWaitingOutFlushSeesItsSenderKilled pins the one defect the churn
// above found outside the ordering state: Multicast checks that its sender is
// alive, lets go of the lock, and then waits out whatever flush is open. A
// member killed in between — by the time the cast wakes, the flush has removed
// it — used to have the cast sent as a non-member's: the other sites turn a
// failed process's ABCAST away, the round ended at its deadline, and only the
// members beside the dead one saw the message.
func TestCastWaitingOutFlushSeesItsSenderKilled(t *testing.T) {
	tc := newFaultCluster(t, 2, simnet.FastConfig(), 2*time.Second, quietDetector())
	procs := buildGroup(t, tc, "killedcast", 1, 1, 2)
	gid := groupOf(t, tc, procs[0], "killedcast")
	d := tc.daemons[1]

	d.mu.Lock()
	d.step(d.groups[gid], inPrepare) // a flush is open: the cast below waits
	d.mu.Unlock()
	sent := make(chan error, 1)
	go func() { sent <- cast(procs[0], ABCAST, gid, "posthumous") }()
	waitFor(t, "the cast to pass the liveness check", 5*time.Second, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.procs[procs[0].addr].nextSeq > 0
	})
	if err := d.KillProcess(procs[0].addr); err != nil {
		t.Fatal(err)
	}
	// The removal's own flush takes the open one over and ends it.
	if err := <-sent; !errors.Is(err, ErrDeadProcess) {
		t.Fatalf("the killed member's cast returned %v, want ErrDeadProcess", err)
	}
	if err := cast(procs[1], ABCAST, gid, "after"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the survivors' next ABCAST", 5*time.Second, func() bool { return procs[1].got("after") && procs[2].got("after") })
	for i, p := range procs {
		if p.got("posthumous") {
			t.Errorf("member %d was handed the killed member's cast", i)
		}
	}
}
