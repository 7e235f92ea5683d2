package transport

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netback"
	"repro/internal/simnet"
)

// TestCoalescingUnderLoad checks that when sends outpace the link, queued
// fragments share frames: far fewer frames than fragments go on the wire.
func TestCoalescingUnderLoad(t *testing.T) {
	netCfg := simnet.FastConfig()
	netCfg.SendCPU = 200 * time.Microsecond // make each frame cost something
	t1, _, _, c2, done := pair(t, netCfg)
	defer done()

	const k = 100
	for i := 0; i < k; i++ {
		if err := t1.Send(2, []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := c2.waitFor(t, k, 10*time.Second)
	for i := 0; i < k; i++ {
		if got[i] != fmt.Sprintf("m%03d", i) {
			t.Fatalf("position %d: got %q", i, got[i])
		}
	}
	st := t1.Stats()
	if st.FragmentsSent != k {
		t.Errorf("FragmentsSent = %d, want %d", st.FragmentsSent, k)
	}
	if st.Coalesced == 0 {
		t.Error("no fragments were coalesced under load")
	}
	if st.FramesSent >= st.FragmentsSent {
		t.Errorf("FramesSent = %d not smaller than FragmentsSent = %d", st.FramesSent, st.FragmentsSent)
	}
}

// TestMessageFillsTheFrameItStartsIn drives one flusher pass by hand over
// queued messages and reads its frames at the pipe: a message longer than a
// frame is cut so that its head fills the room left in the frame it starts
// in, and the rest goes on in the next; a message that fits an empty frame is
// never cut; and under DisableBatching every frame carries one record, cut at
// MaxPacket-9 (a 7-byte frame head, a 2-byte length word). A receiver
// reassembles what the pass sent. Four state blocks
// (4 096 bytes behind a 27-byte header) took 8 frames when every message was
// cut at MaxPacket-38 before the flusher saw it, 4 of them 65-byte tails.
func TestMessageFillsTheFrameItStartsIn(t *testing.T) {
	const maxPacket = 4096
	msgs := func(sizes ...int) [][]byte {
		out := make([][]byte, len(sizes))
		for i, n := range sizes {
			out[i] = make([]byte, n)
			for j := range out[i] {
				out[i][j] = byte(i*31 + j)
			}
		}
		return out
	}
	for _, c := range []struct {
		name      string
		unbatched bool
		msgs      [][]byte
		records   [][]int // payload lengths of each frame's records
		full      bool    // every frame but the last is MaxPacket bytes
	}{
		{"state blocks", false, msgs(4123, 4123, 4123, 4123),
			[][]int{{4087}, {36, 4049}, {74, 4011}, {112, 3973}, {150}}, true},
		{"1 100-byte messages", false, msgs(2000, 1100, 1100, 1100),
			[][]int{{2000, 1100}, {1100, 1100}}, false},
		{"state blocks unbatched", true, msgs(4123, 4123, 4123, 4123),
			[][]int{{4087}, {36}, {4087}, {36}, {4087}, {36}, {4087}, {36}}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, _ := newPipe()
			a.drop = true
			cfg := Config{MaxPacket: maxPacket, RetransmitInterval: time.Hour, DisableBatching: c.unbatched}
			tr, err := New(a, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			_, pass := handDriven(tr)
			for _, m := range c.msgs {
				if err := tr.Send(2, m); err != nil {
					t.Fatal(err)
				}
			}
			pass()
			frames := a.dataFrames()
			var got [][]int
			for i, f := range frames {
				var lens []int
				for _, r := range records([][]byte{f}) {
					lens = append(lens, len(r.payload()))
				}
				got = append(got, lens)
				if c.full && i < len(frames)-1 && len(f) != maxPacket {
					t.Errorf("frame %d of %d is %d bytes, want %d", i+1, len(frames), len(f), maxPacket)
				}
			}
			if !slices.EqualFunc(got, c.records, slices.Equal[[]int]) {
				t.Fatalf("frames carry records of %v bytes, want %v", got, c.records)
			}
			if st := tr.Stats(); st.FramesSent != uint64(len(c.records)) {
				t.Errorf("FramesSent = %d, want %d", st.FramesSent, len(c.records))
			}

			var delivered [][]byte
			rx, err := New(&sinkEnd{recv: make(chan netback.Packet)}, cfg, func(_ SiteID, data []byte) {
				delivered = append(delivered, data)
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			for _, f := range frames {
				rx.handlePacket(netback.Packet{From: 2, To: 1, Payload: f})
			}
			if !slices.EqualFunc(delivered, c.msgs, bytes.Equal) {
				t.Errorf("the receiver reassembled %d messages, not the %d sent", len(delivered), len(c.msgs))
			}
		})
	}
}

// TestPiggybackedAcks checks that reverse-direction data frames carry the
// cumulative ack, sparing dedicated ack packets, and that the sender's
// unacked window still drains.
func TestPiggybackedAcks(t *testing.T) {
	netCfg := simnet.FastConfig()
	n := simnet.New(netCfg)
	defer n.Close()
	cfg := DefaultConfig(n.Profile())
	cfg.RetransmitInterval = 50 * time.Millisecond
	cfg.AckDelay = 25 * time.Millisecond // generous window for piggybacking
	c1, c2 := &collector{}, &collector{}
	t1, err := New(n.AddSite(1), cfg, c1.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2, err := New(n.AddSite(2), cfg, c2.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()

	// Ping-pong traffic: every reply's frame can carry the ack for the
	// request it answers.
	const k = 20
	for i := 0; i < k; i++ {
		if err := t1.Send(2, []byte(fmt.Sprintf("req%d", i))); err != nil {
			t.Fatal(err)
		}
		c2.waitFor(t, i+1, 2*time.Second)
		if err := t2.Send(1, []byte(fmt.Sprintf("resp%d", i))); err != nil {
			t.Fatal(err)
		}
		c1.waitFor(t, i+1, 2*time.Second)
	}
	st2 := t2.Stats()
	if st2.AcksPiggybacked == 0 {
		t.Error("no acks were piggybacked on reverse traffic")
	}
	// Both unacked windows drain without waiting for retransmission.
	deadline := time.Now().Add(2 * time.Second)
	for t1.Unacked()+t2.Unacked() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("windows never drained: %d + %d", t1.Unacked(), t2.Unacked())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDisableBatchingAblation checks the unbatched baseline: exactly one
// frame per fragment, nothing coalesced, delivery still reliable and FIFO.
func TestDisableBatchingAblation(t *testing.T) {
	netCfg := simnet.FastConfig()
	n := simnet.New(netCfg)
	defer n.Close()
	cfg := DefaultConfig(n.Profile())
	cfg.RetransmitInterval = 10 * time.Millisecond
	cfg.DisableBatching = true
	c2 := &collector{}
	t1, err := New(n.AddSite(1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2, err := New(n.AddSite(2), cfg, c2.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()

	const k = 50
	for i := 0; i < k; i++ {
		if err := t1.Send(2, []byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := c2.waitFor(t, k, 5*time.Second)
	for i := 0; i < k; i++ {
		if got[i] != fmt.Sprintf("m%02d", i) {
			t.Fatalf("position %d: got %q", i, got[i])
		}
	}
	st := t1.Stats()
	if st.FramesSent != st.FragmentsSent || st.Coalesced != 0 {
		t.Errorf("unbatched baseline coalesced anyway: %+v", st)
	}
}

// TestUnbatchedFloodBothWaysDrains is the regression for a distributed buffer
// deadlock (EXPERIMENTS.md, "a four-party buffer deadlock"): two sites flood
// each other unbatched, every frame owing an immediate ack, over links whose
// receive queues are short. A receive path that sent its own acks would block
// on its full reverse link while the peer's blocked on the opposite one, both
// links blocked delivering into queues nobody drains. With the flusher as the
// only sender the receive loops never block, and every message arrives.
func TestUnbatchedFloodBothWaysDrains(t *testing.T) {
	netCfg := simnet.FastConfig()
	netCfg.QueueLen = 8
	n := simnet.New(netCfg)
	cfg := DefaultConfig(n.Profile())
	cfg.RetransmitInterval = time.Second // the flood, not retransmissions, fills the links
	cfg.DisableBatching = true
	const k = 20000
	var got [2]atomic.Int64
	var trs []*Transport
	// Closing the network first releases a send blocked on a full link, so a
	// deadlocked run still ends.
	defer func() {
		n.Close()
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for i := range got {
		tr, err := New(n.AddSite(SiteID(i+1)), cfg, func(SiteID, []byte) { got[i].Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	payload := []byte("flood")
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < k; j++ {
				if err := tr.Send(SiteID(2-i), payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for deadline := time.Now().Add(30 * time.Second); got[0].Load() < k || got[1].Load() < k; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("flood stalled: %d and %d of %d messages arrived", got[0].Load(), got[1].Load(), k)
		}
	}
}

// BenchmarkTransportThroughput measures one-way small-message throughput
// with coalescing on and off — the transport-level ablation of the
// batching optimisation.
func BenchmarkTransportThroughput(b *testing.B) {
	for _, mode := range []struct {
		name      string
		unbatched bool
	}{{"batched", false}, {"unbatched", true}} {
		b.Run(mode.name, func(b *testing.B) {
			netCfg := simnet.FastConfig()
			netCfg.SendCPU = 20 * time.Microsecond
			netCfg.RecvCPU = 20 * time.Microsecond
			n := simnet.New(netCfg)
			defer n.Close()
			cfg := DefaultConfig(n.Profile())
			cfg.DisableBatching = mode.unbatched
			var delivered atomic.Int64
			t1, err := New(n.AddSite(1), cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer t1.Close()
			t2, err := New(n.AddSite(2), cfg, func(SiteID, []byte) { delivered.Add(1) })
			if err != nil {
				b.Fatal(err)
			}
			defer t2.Close()

			payload := make([]byte, 128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := t1.Send(2, payload); err != nil {
					b.Fatal(err)
				}
			}
			for delivered.Load() < int64(b.N) {
				time.Sleep(100 * time.Microsecond)
			}
			b.StopTimer()
			st := t1.Stats()
			if b.N > 1 {
				b.ReportMetric(float64(st.FramesSent)/float64(b.N), "frames/msg")
			}
		})
	}
}
