package transport

// The backend conformance suite: every test in this file runs against each
// netback implementation (the simulated LAN and the TCP-loopback wire), so
// the transport's guarantees — reliable FIFO streams, fragmentation, epoch
// handling across peer restarts — are proven equivalent on both fabrics
// rather than assumed from the simulation alone.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netback"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
)

// fabricCase constructs one backend under test. maxPacket <= 0 selects the
// backend's default frame cap.
type fabricCase struct {
	name string
	make func(maxPacket int) netback.Network
}

func fabricCases() []fabricCase {
	return []fabricCase{
		{"simnet", func(maxPacket int) netback.Network {
			cfg := simnet.FastConfig()
			if maxPacket > 0 {
				cfg.MaxPacket = maxPacket
			}
			return simnet.New(cfg)
		}},
		{"tcp", func(maxPacket int) netback.Network {
			return tcpnet.New(tcpnet.Config{MaxPacket: maxPacket})
		}},
	}
}

// confEndpoint attaches a site with the given epoch and wraps it in a
// transport with a test-friendly retransmission interval.
func confEndpoint(t *testing.T, fab netback.Network, id SiteID, epoch uint64) (*Transport, *collector) {
	t.Helper()
	cfg := DefaultConfig(fab.Profile())
	cfg.RetransmitInterval = 10 * time.Millisecond
	cfg.Epoch = epoch
	ep, err := fab.Attach(id, epoch)
	if err != nil {
		t.Fatal(err)
	}
	c := &collector{}
	tr, err := New(ep, cfg, c.handler)
	if err != nil {
		t.Fatal(err)
	}
	return tr, c
}

func TestConformanceBasicDelivery(t *testing.T) {
	for _, fc := range fabricCases() {
		t.Run(fc.name, func(t *testing.T) {
			fab := fc.make(0)
			defer fab.Close()
			t1, _ := confEndpoint(t, fab, 1, 1)
			defer t1.Close()
			t2, c2 := confEndpoint(t, fab, 2, 1)
			defer t2.Close()
			if err := t1.Send(2, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			if got := c2.waitFor(t, 1, 2*time.Second); got[0] != "hello" {
				t.Errorf("got %q", got[0])
			}
		})
	}
}

func TestConformanceFIFO(t *testing.T) {
	for _, fc := range fabricCases() {
		t.Run(fc.name, func(t *testing.T) {
			fab := fc.make(0)
			defer fab.Close()
			t1, _ := confEndpoint(t, fab, 1, 1)
			defer t1.Close()
			t2, c2 := confEndpoint(t, fab, 2, 1)
			defer t2.Close()
			const k = 200
			for i := 0; i < k; i++ {
				if err := t1.Send(2, []byte(fmt.Sprintf("m%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			got := c2.waitFor(t, k, 10*time.Second)
			for i := 0; i < k; i++ {
				if got[i] != fmt.Sprintf("m%04d", i) {
					t.Fatalf("position %d: got %q", i, got[i])
				}
			}
		})
	}
}

func TestConformanceFragmentation(t *testing.T) {
	for _, fc := range fabricCases() {
		t.Run(fc.name, func(t *testing.T) {
			fab := fc.make(64)
			defer fab.Close()
			t1, _ := confEndpoint(t, fab, 1, 1)
			defer t1.Close()
			t2, c2 := confEndpoint(t, fab, 2, 1)
			defer t2.Close()
			big := bytes.Repeat([]byte("abcdefgh"), 100) // 800 bytes >> 64-byte frames
			if err := t1.Send(2, big); err != nil {
				t.Fatal(err)
			}
			got := c2.waitFor(t, 1, 5*time.Second)
			if got[0] != string(big) {
				t.Errorf("reassembled message corrupted: %d bytes vs %d", len(got[0]), len(big))
			}
			if st := t1.Stats(); st.FragmentsSent < 10 {
				t.Errorf("expected many fragments, sent %d", st.FragmentsSent)
			}
		})
	}
}

func TestConformanceBidirectional(t *testing.T) {
	for _, fc := range fabricCases() {
		t.Run(fc.name, func(t *testing.T) {
			fab := fc.make(0)
			defer fab.Close()
			t1, c1 := confEndpoint(t, fab, 1, 1)
			defer t1.Close()
			t2, c2 := confEndpoint(t, fab, 2, 1)
			defer t2.Close()
			// Simultaneous first sends in both directions also exercise the
			// TCP backend's dial race: both sides dial at once and must
			// settle on one socket without losing either stream.
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if err := t1.Send(2, []byte(fmt.Sprintf("a%d", i))); err != nil {
						t.Errorf("send a%d: %v", i, err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if err := t2.Send(1, []byte(fmt.Sprintf("b%d", i))); err != nil {
						t.Errorf("send b%d: %v", i, err)
						return
					}
				}
			}()
			wg.Wait()
			c2.waitFor(t, 50, 5*time.Second)
			c1.waitFor(t, 50, 5*time.Second)
		})
	}
}

func TestConformanceConcurrentSenders(t *testing.T) {
	for _, fc := range fabricCases() {
		t.Run(fc.name, func(t *testing.T) {
			fab := fc.make(0)
			defer fab.Close()
			t1, _ := confEndpoint(t, fab, 1, 1)
			defer t1.Close()
			t2, c2 := confEndpoint(t, fab, 2, 1)
			defer t2.Close()
			const workers = 8
			const per = 25
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := t1.Send(2, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			got := c2.waitFor(t, workers*per, 10*time.Second)
			pos := map[int]int{}
			for _, m := range got {
				var w, i int
				if _, err := fmt.Sscanf(m, "w%d-%d", &w, &i); err != nil {
					t.Fatalf("bad message %q", m)
				}
				if i < pos[w] {
					t.Fatalf("worker %d message %d arrived after %d", w, i, pos[w])
				}
				pos[w] = i
			}
		})
	}
}

// TestPeerRestartMidStream is the mid-stream reconnect conformance case: a
// peer that restarts with a higher incarnation epoch must not strand the
// sender's ongoing stream. The fresh receiver has no receive state, so it
// adopts the stream at the first frame's sequence number (records below it
// were retired against its predecessor), and once it sends back, the sender
// detects the higher epoch and renumbers. Under the TCP backend this also
// exercises reconnection: the old socket dies with the old endpoint and the
// sender must re-dial the restarted listener, whose handshake presents the
// bumped epoch.
func TestPeerRestartMidStream(t *testing.T) {
	for _, fc := range fabricCases() {
		t.Run(fc.name, func(t *testing.T) {
			fab := fc.make(0)
			defer fab.Close()
			trA, cA := confEndpoint(t, fab, 1, 1)
			defer trA.Close()
			trB, _cB := confEndpoint(t, fab, 2, 1)
			for i := 0; i < 3; i++ {
				if err := trA.Send(2, []byte(fmt.Sprintf("pre-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			_cB.waitFor(t, 3, 2*time.Second)
			// Wait for B's ack to retire the pre-restart messages; if A still
			// held them unacked it would retransmit them to the restarted
			// receiver, which (correctly, by stream adoption) would deliver
			// them to the new incarnation — duplicate suppression across
			// incarnations is the protocol layer's job, not the transport's,
			// and is not what this test is about.
			drain := time.Now().Add(2 * time.Second)
			for trA.Unacked() > 0 {
				if time.Now().After(drain) {
					t.Fatalf("pre-restart window never drained: %d unacked", trA.Unacked())
				}
				time.Sleep(time.Millisecond)
			}

			// B "crashes" and restarts with a higher incarnation.
			trB.Close()
			trB2, cB2 := confEndpoint(t, fab, 2, 2)
			defer trB2.Close()

			// A message sent to the restarted peer before it has ever sent
			// back travels on A's old stream (sequence 4): the fresh receiver
			// must adopt the stream position instead of waiting forever for
			// sequences 1-3.
			if err := trA.Send(2, []byte("to-new-incarnation")); err != nil {
				t.Fatal(err)
			}
			if got := cB2.waitFor(t, 1, 5*time.Second); got[0] != "to-new-incarnation" {
				t.Errorf("restarted peer received %q", got[0])
			}

			// Reverse traffic carries the new incarnation's epoch: A resets
			// its stream to B and both directions keep working.
			if err := trB2.Send(1, []byte("hello-from-reborn")); err != nil {
				t.Fatal(err)
			}
			if got := cA.waitFor(t, 1, 5*time.Second); got[0] != "hello-from-reborn" {
				t.Errorf("A received %q", got[0])
			}
			if err := trA.Send(2, []byte("post-reset")); err != nil {
				t.Fatal(err)
			}
			if got := cB2.waitFor(t, 2, 5*time.Second); got[1] != "post-reset" {
				t.Errorf("restarted peer received %v", got)
			}
		})
	}
}

// TestConformanceForgottenPeerStartsANewEpoch forgets a peer with records
// outstanding behind a severed link — a drop (FaultInjector), not a pause,
// which would deliver the held frames. Once the link heals the forgotten
// records never arrive, and later messages arrive in order under the bumped
// stream epoch, which the receiver adopts without restarting its own stream.
func TestConformanceForgottenPeerStartsANewEpoch(t *testing.T) {
	for _, fc := range fabricCases() {
		t.Run(fc.name, func(t *testing.T) {
			fab := fc.make(0)
			defer fab.Close()
			t1, c1 := confEndpoint(t, fab, 1, 1)
			defer t1.Close()
			t2, c2 := confEndpoint(t, fab, 2, 1)
			defer t2.Close()
			send := func(tr *Transport, to SiteID, format string, n int) {
				for i := 0; i < n; i++ {
					if err := tr.Send(to, []byte(fmt.Sprintf(format, i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			send(t1, 2, "before-%d", 3)
			c2.waitFor(t, 3, 5*time.Second)
			waitDrained(t, t1)

			faults := fab.(netback.FaultInjector)
			faults.Partition(1, 2)
			send(t1, 2, "forgotten-%d", 5)
			if n := t1.Unacked(); n != 5 {
				t.Fatalf("Unacked = %d behind the cut, want 5", n)
			}
			t1.Forget(2)
			if n := t1.Unacked(); n != 0 {
				t.Fatalf("Unacked = %d after Forget, want 0", n)
			}
			faults.Heal(1, 2)

			send(t1, 2, "after-%d", 10)
			send(t2, 1, "back-%d", 1)
			c1.waitFor(t, 1, 5*time.Second)
			c2.waitFor(t, 13, 10*time.Second)
			waitDrained(t, t1)
			time.Sleep(50 * time.Millisecond) // five retransmission intervals
			got := c2.snapshot()
			for i, m := range got {
				want := fmt.Sprintf("before-%d", i)
				if i >= 3 {
					want = fmt.Sprintf("after-%d", i-3)
				}
				if m != want {
					t.Fatalf("position %d: got %q, want %q (all: %q)", i, m, want, got)
				}
			}
			if len(got) != 13 {
				t.Fatalf("delivered %d messages, want 13: %q", len(got), got)
			}
			t1.mu.Lock()
			epoch := t1.sends[2].epoch
			t1.mu.Unlock()
			if epoch != t1.epochBase+1 {
				t.Errorf("stream epoch %#x after one Forget, want %#x", epoch, t1.epochBase+1)
			}
		})
	}
}

// waitDrained waits until every record the transport sent is acknowledged.
func waitDrained(t *testing.T, tr *Transport) {
	t.Helper()
	waitUntil(t, "the send window to drain", func() bool { return tr.Unacked() == 0 })
}

// TestConformanceBatchCoalescing proves the batch flusher works identically
// over both fabrics: a burst of small sends must coalesce into fewer frames
// than fragments.
func TestConformanceBatchCoalescing(t *testing.T) {
	for _, fc := range fabricCases() {
		t.Run(fc.name, func(t *testing.T) {
			fab := fc.make(0)
			defer fab.Close()
			t1, _ := confEndpoint(t, fab, 1, 1)
			defer t1.Close()
			t2, c2 := confEndpoint(t, fab, 2, 1)
			defer t2.Close()
			const k = 400
			for i := 0; i < k; i++ {
				if err := t1.Send(2, []byte(fmt.Sprintf("burst-%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			c2.waitFor(t, k, 10*time.Second)
			st := t1.Stats()
			if st.Coalesced == 0 {
				t.Errorf("no coalescing under burst: %+v", st)
			}
			if st.FramesSent >= st.FragmentsSent {
				t.Errorf("frames (%d) not fewer than fragments (%d)", st.FramesSent, st.FragmentsSent)
			}
		})
	}
}
