package transport

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netback"
	"repro/internal/simnet"
)

// pipeEnd is a minimal in-memory netback.Endpoint: Send copies the frame
// (the caller may reuse its buffer) and hands the copy to the peer, unless
// the test has asked for frames to be held back.
type pipeEnd struct {
	id   SiteID
	peer *pipeEnd
	recv chan netback.Packet

	mu   sync.Mutex
	drop bool     // discard instead of delivering
	sent [][]byte // copies of every frame passed to Send
}

func newPipe() (*pipeEnd, *pipeEnd) {
	a := &pipeEnd{id: 1, recv: make(chan netback.Packet, 1024)}
	b := &pipeEnd{id: 2, recv: make(chan netback.Packet, 1024)}
	a.peer, b.peer = b, a
	return a, b
}

func (e *pipeEnd) Site() SiteID                { return e.id }
func (e *pipeEnd) Recv() <-chan netback.Packet { return e.recv }
func (e *pipeEnd) Close()                      {}

func (e *pipeEnd) Send(to SiteID, payload []byte) error {
	cp := append([]byte(nil), payload...)
	e.mu.Lock()
	drop := e.drop
	e.sent = append(e.sent, cp)
	e.mu.Unlock()
	if !drop {
		e.peer.recv <- netback.Packet{From: e.id, To: to, Payload: cp}
	}
	return nil
}

// dataFrames returns the data frames sent so far and forgets them.
func (e *pipeEnd) dataFrames() [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out [][]byte
	for _, f := range e.sent {
		if f[0] != kindAck {
			out = append(out, f)
		}
	}
	e.sent = nil
	return out
}

// frameSeqs lists the sequence numbers of the records in a data frame.
func frameSeqs(frame []byte) []uint64 {
	var seqs []uint64
	for body := frame[frameHeaderSize:]; len(body) >= subHeaderSize; {
		seqs = append(seqs, binary.BigEndian.Uint64(body[0:8]))
		body = body[subHeaderSize+int(binary.BigEndian.Uint32(body[9:13])):]
	}
	return seqs
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRetransmitOnlyOverdueRecords drives the retransmission sweep by hand:
// only records whose last transmission is at least RetransmitInterval old are
// resent, the sweep leads with the lowest outstanding sequence (and says so),
// and a resent record is not resent again until it has aged once more.
func TestRetransmitOnlyOverdueRecords(t *testing.T) {
	a, _ := newPipe()
	a.drop = true // nothing arrives, so nothing is ever acknowledged
	cfg := Config{MaxPacket: 4096, RetransmitInterval: time.Hour}
	tr, err := New(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	sent := func() uint64 {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.sends[2].sentUpTo
	}
	age := func(seq uint64) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		r := tr.sends[2].at(seq)
		r.sentAt = r.sentAt.Add(-2 * time.Hour)
	}
	sweep := func() [][]byte {
		tr.retransmit(make([]byte, 0, cfg.MaxPacket))
		return a.dataFrames()
	}

	for i := 0; i < 3; i++ {
		if err := tr.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the first transmissions", func() bool { return sent() == 3 })
	a.dataFrames()

	if frames := sweep(); len(frames) != 0 {
		t.Fatalf("fresh records were retransmitted: %d frames", len(frames))
	}
	age(1)
	age(2)
	frames := sweep()
	if len(frames) != 1 || frames[0][0] != kindFrameLow {
		t.Fatalf("sweep sent %d frames (kind %d), want one leading with the lowest outstanding sequence", len(frames), frames[0][0])
	}
	if seqs := frameSeqs(frames[0]); len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("sweep resent %v, want [1 2]", seqs)
	}
	if n := tr.Stats().Retransmissions; n != 2 {
		t.Fatalf("Retransmissions = %d, want 2", n)
	}
	if frames := sweep(); len(frames) != 0 {
		t.Fatalf("records resent a moment ago were resent again")
	}

	// An ack retires exactly the records it covers; the next sweep starts at
	// the new lowest outstanding sequence.
	tr.applyAck(2, tr.epochBase, 2)
	if n := tr.Unacked(); n != 1 {
		t.Fatalf("Unacked = %d after acking 2 of 3, want 1", n)
	}
	age(3)
	frames = sweep()
	if len(frames) != 1 || frames[0][0] != kindFrameLow {
		t.Fatalf("second sweep sent %d frames", len(frames))
	}
	if seqs := frameSeqs(frames[0]); len(seqs) != 1 || seqs[0] != 3 {
		t.Fatalf("second sweep resent %v, want [3]", seqs)
	}
	// Acks for another epoch, or beyond what was sent, retire nothing extra.
	tr.applyAck(2, tr.epochBase+1, 3)
	if n := tr.Unacked(); n != 1 {
		t.Fatalf("an ack for another epoch retired records: Unacked = %d", n)
	}
	tr.applyAck(2, tr.epochBase, 99)
	if n := tr.Unacked(); n != 0 {
		t.Fatalf("Unacked = %d after a covering ack, want 0", n)
	}
}

// TestRetransmitSweepSplitsFrames checks that a deep overdue backlog is
// resent in sequence order across several full frames, only the first of
// which claims to lead with the lowest outstanding sequence.
func TestRetransmitSweepSplitsFrames(t *testing.T) {
	a, _ := newPipe()
	a.drop = true
	cfg := Config{MaxPacket: 1024, RetransmitInterval: time.Hour}
	tr, err := New(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if err := tr.Send(2, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the first transmissions", func() bool {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.sends[2].sentUpTo == n
	})
	a.dataFrames()
	tr.mu.Lock()
	for seq := uint64(1); seq <= n; seq++ {
		r := tr.sends[2].at(seq)
		r.sentAt = r.sentAt.Add(-2 * time.Hour)
	}
	tr.mu.Unlock()
	tr.retransmit(make([]byte, 0, cfg.MaxPacket))
	frames := a.dataFrames()
	if len(frames) < 2 {
		t.Fatalf("backlog of %d records resent in %d frames", n, len(frames))
	}
	next := uint64(1)
	for i, f := range frames {
		if len(f) > cfg.MaxPacket {
			t.Errorf("frame %d is %d bytes, over MaxPacket", i, len(f))
		}
		if want := byte(kindFrame); i == 0 {
			if f[0] != kindFrameLow {
				t.Errorf("first frame kind = %d, want kindFrameLow", f[0])
			}
		} else if f[0] != want {
			t.Errorf("frame %d kind = %d, want kindFrame", i, f[0])
		}
		for _, seq := range frameSeqs(f) {
			if seq != next {
				t.Fatalf("frame %d carries sequence %d, want %d", i, seq, next)
			}
			next++
		}
	}
	if next != n+1 {
		t.Errorf("sweep resent sequences up to %d, want %d", next-1, n)
	}
	if got := tr.Stats().Retransmissions; got != n {
		t.Errorf("Retransmissions = %d, want %d", got, n)
	}
}

// TestOutOfOrderFramesReassemble feeds the receiver frames in the wrong
// order, duplicated, and with a fragmented message split across them.
func TestOutOfOrderFramesReassemble(t *testing.T) {
	a, b := newPipe()
	a.drop = true // frames are captured and replayed by hand
	cfg := Config{MaxPacket: 64, RetransmitInterval: time.Hour, DisableBatching: true}
	ta, err := New(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	got := &collector{}
	tb, err := New(b, cfg, got.handler)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	long := make([]byte, 60) // three fragments at this MaxPacket
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	for _, m := range [][]byte{[]byte("one"), long, []byte("three")} {
		if err := ta.Send(2, m); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the first transmissions", func() bool {
		ta.mu.Lock()
		defer ta.mu.Unlock()
		return ta.sends[2].sentUpTo == 5
	})
	frames := a.dataFrames()
	if len(frames) != 5 {
		t.Fatalf("captured %d frames, want 5 (one record each)", len(frames))
	}
	for _, i := range []int{4, 2, 2, 3, 0, 0, 1, 4} {
		b.recv <- netback.Packet{From: 1, To: 2, Payload: append([]byte(nil), frames[i]...)}
	}
	msgs := got.waitFor(t, 3, 5*time.Second)
	if len(msgs) != 3 || msgs[0] != "one" || msgs[1] != string(long) || msgs[2] != "three" {
		t.Fatalf("delivered %q", msgs)
	}
	tb.mu.Lock()
	left := len(tb.recvs[1].buffered)
	tb.mu.Unlock()
	if left != 0 {
		t.Errorf("%d records left in the gap buffer", left)
	}
}

// TestZeroLossStreamNeverRetransmits is the age-blind retransmission
// regression: on a loss-free link every record is acknowledged long before it
// is RetransmitInterval old, so a long windowed stream must end without a
// single retransmission (the age-blind sweep resent whatever was in flight
// at each tick).
func TestZeroLossStreamNeverRetransmits(t *testing.T) {
	n := simnet.New(simnet.FastConfig())
	defer n.Close()
	cfg := DefaultConfig(n.Profile())
	cfg.RetransmitInterval = 100 * time.Millisecond // slack for a loaded test machine
	// At least 20000 messages, and long enough to span several sweeps.
	const atLeast, window, minElapsed = 20000, 64, 350 * time.Millisecond
	slots := make(chan struct{}, window)
	t1, err := New(n.AddSite(1), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	var got atomic.Int64
	t2, err := New(n.AddSite(2), cfg, func(SiteID, []byte) {
		got.Add(1)
		<-slots
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	payload := make([]byte, 1024)
	total := int64(0)
	for start := time.Now(); total < atLeast || time.Since(start) < minElapsed; total++ {
		select {
		case slots <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatalf("stream stalled at %d of %d", got.Load(), total)
		}
		if err := t1.Send(2, payload); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the stream to drain", func() bool { return got.Load() == total && t1.Unacked() == 0 })
	if r := t1.Stats().Retransmissions + t2.Stats().Retransmissions; r != 0 {
		t.Errorf("%d retransmissions on a loss-free stream of %d messages", r, total)
	}
}
