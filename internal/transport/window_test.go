package transport

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netback"
	"repro/internal/simnet"
)

// rec is one record of a hand-built frame.
type rec struct {
	flags   byte
	payload string
}

// peerFrame builds a data frame of stream epoch 7<<32 that carries no ack,
// its records numbered from first.
func peerFrame(kind byte, first uint64, recs ...rec) []byte {
	f := appendHead(nil, kind, 7<<32, 0, 0, first)
	for _, r := range recs {
		f = binary.AppendUvarint(f, uint64(len(r.payload))<<2|uint64(r.flags))
		f = append(f, r.payload...)
	}
	return f
}

// readFrame reads a data frame by hand: the six uvarints of its head (the
// epoch's halves, the ack epoch's halves, the ack and the first sequence)
// and its records, each with its sequence, implied by the first.
func readFrame(f []byte) (head [6]uint64, recs []record) {
	b := f[1:]
	for i := range head {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			panic(fmt.Sprintf("frame %x: malformed head", f))
		}
		head[i], b = v, b[n:]
	}
	for seq := head[5]; len(b) > 0; seq++ {
		word, n := binary.Uvarint(b)
		if n <= 0 || word>>2 > uint64(len(b)-n) {
			panic(fmt.Sprintf("frame %x: malformed record", f))
		}
		end := n + int(word>>2)
		recs, b = append(recs, record{seq, b[:end]}), b[end:]
	}
	return head, recs
}

// record is one record read off a data frame: its sequence and its bytes,
// length word included.
type record struct {
	seq   uint64
	bytes []byte
}

// payload is the record's bytes after its length word.
func (r record) payload() []byte {
	_, n := binary.Uvarint(r.bytes)
	return r.bytes[n:]
}

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

// sinkEnd is an endpoint that allocates nothing: what is sent vanishes, and
// only the test feeds its receive channel.
type sinkEnd struct{ recv chan netback.Packet }

func (e *sinkEnd) Site() SiteID                { return 1 }
func (e *sinkEnd) Recv() <-chan netback.Packet { return e.recv }
func (e *sinkEnd) Close()                      {}
func (e *sinkEnd) Send(SiteID, []byte) error   { return nil }

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
	for _, r := range records([][]byte{frame}) {
		seqs = append(seqs, r.seq)
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

// takeRecords waits until the data frames sent since the last call carry n
// records between them, and returns those frames. It waits at the pipe, not
// on the sender's bookkeeping: the flusher stamps a frame under the lock and
// hands it to the backend only after letting go.
func (e *pipeEnd) takeRecords(t *testing.T, n int) [][]byte {
	t.Helper()
	var frames [][]byte
	waitUntil(t, fmt.Sprintf("%d records at the pipe", n), func() bool {
		frames = append(frames, e.dataFrames()...)
		return len(records(frames)) >= n
	})
	return frames
}

// handDriven opens tr's stream to peer 2 without its flusher goroutine, so
// that only pass — one flusher pass, run by hand — sends to it, and messages
// sent before a pass are all queued when it starts.
func handDriven(tr *Transport) (ps *peerSend, pass func()) {
	ps = &peerSend{epoch: tr.epochBase, nextSeq: 1, base: 1, kick: make(chan struct{}, 1)}
	tr.mu.Lock()
	tr.sends[2] = ps
	tr.mu.Unlock()
	var frame []byte
	return ps, func() { frame = tr.flush(2, ps, frame) }
}

// tick does for peer 2 what a retransmission tick does: it wakes the flusher,
// whose pass resends whatever is overdue.
func tick(tr *Transport) {
	tr.mu.Lock()
	ps := tr.sends[2]
	tr.mu.Unlock()
	ps.wake()
}

// ageAll backdates the last transmission of peer 2's records from..to by two
// hours, twice the RetransmitInterval these tests use.
func ageAll(tr *Transport, from, to uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for seq := from; seq <= to; seq++ {
		r := tr.sends[2].at(seq)
		r.sentAt = r.sentAt.Add(-2 * time.Hour)
	}
}

// TestRetransmitOnlyOverdueRecords drives the flusher's pass by hand: only
// records whose last transmission is at least RetransmitInterval old are
// resent, the pass leads with the lowest outstanding sequence (and says so),
// and a resent record is not resent again until it has aged once more. A
// record queued after a pass that found nothing overdue goes out alone, so
// its frame at the pipe shows that the pass resent nothing.
func TestRetransmitOnlyOverdueRecords(t *testing.T) {
	a, _ := newPipe()
	a.drop = true // nothing arrives, so nothing is ever acknowledged
	cfg := Config{MaxPacket: 4096, RetransmitInterval: time.Hour}
	tr, err := New(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	send := func(b byte) {
		if err := tr.Send(2, []byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	pass := func(what string, n int, kind byte, want ...uint64) {
		t.Helper()
		frames := a.takeRecords(t, n)
		if len(frames) != 1 || frames[0][0] != kind {
			t.Fatalf("%s: %d frames (kind %d), want one of kind %d", what, len(frames), frames[0][0], kind)
		}
		if seqs := frameSeqs(frames[0]); !slices.Equal(seqs, want) {
			t.Fatalf("%s sent %v, want %v", what, seqs, want)
		}
	}

	for i := 0; i < 3; i++ {
		send(byte(i))
	}
	a.takeRecords(t, 3)

	tick(tr)
	send(3)
	pass("a pass with nothing overdue", 1, kindFrame, 4)
	ageAll(tr, 1, 2)
	tick(tr)
	pass("the pass", 2, kindFrameLow, 1, 2)
	if n := tr.Stats().Retransmissions; n != 2 {
		t.Fatalf("Retransmissions = %d, want 2", n)
	}
	tick(tr)
	send(4)
	pass("a pass after a resend", 1, kindFrame, 5)

	// An ack retires exactly the records it covers; the next pass starts at
	// the new lowest outstanding sequence and stops at the first record
	// that is not overdue.
	tr.applyAck(2, tr.epochBase, 2)
	if n := tr.Unacked(); n != 3 {
		t.Fatalf("Unacked = %d after acking 2 of 5, want 3", n)
	}
	ageAll(tr, 3, 3)
	tick(tr)
	pass("the second pass", 1, kindFrameLow, 3)
	// Acks for another epoch, or beyond what was sent, retire nothing extra.
	tr.applyAck(2, tr.epochBase+1, 5)
	if n := tr.Unacked(); n != 3 {
		t.Fatalf("an ack for another epoch retired records: Unacked = %d", n)
	}
	tr.applyAck(2, tr.epochBase, 99)
	if n := tr.Unacked(); n != 0 {
		t.Fatalf("Unacked = %d after a covering ack, want 0", n)
	}
}

// TestUnackedCountsQueuedMessages: a message Send has queued counts before
// any frame carries it, so a flush that waits for Unacked to reach zero
// cannot return while the message waits for the flusher.
func TestUnackedCountsQueuedMessages(t *testing.T) {
	a, _ := newPipe()
	a.drop = true
	tr, err := New(a, Config{MaxPacket: 4096, RetransmitInterval: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, pass := handDriven(tr)
	if err := tr.Send(2, make([]byte, 10_000)); err != nil {
		t.Fatal(err)
	}
	if n := tr.Unacked(); n != 1 {
		t.Fatalf("Unacked = %d with a 10 KB message queued and no pass run, want 1", n)
	}
	pass()
	if n := tr.Unacked(); n != 3 {
		t.Fatalf("Unacked = %d once the pass has cut the message, want its 3 records", n)
	}
}

// TestAdoptedStreamDropsAHeadlessMessage feeds a fresh receiver hand-built
// frames of a stream in flight. Records that continue a message whose head
// it never had are dropped, up to and including that message's last
// fragment; the message's lost head died with the stream's earlier numbering,
// as in a crash. A fresh receiver used to hand such a tail to its handler as
// a whole message.
func TestAdoptedStreamDropsAHeadlessMessage(t *testing.T) {
	const last, cont = flagLastFragment, flagContinues
	for _, c := range []struct {
		name   string
		frames [][]byte
	}{
		{"a last fragment", [][]byte{peerFrame(kindFrameLow, 5, rec{cont | last, "tail"}, rec{last, "whole"})}},
		{"a middle and a last fragment", [][]byte{
			peerFrame(kindFrameLow, 5, rec{cont, "middle"}),
			peerFrame(kindFrame, 6, rec{cont | last, "tail"}, rec{last, "whole"}),
		}},
		{"a message's head is kept", [][]byte{peerFrame(kindFrameLow, 5, rec{0, "who"}, rec{cont | last, "le"})}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := &collector{}
			tr, err := New(&sinkEnd{recv: make(chan netback.Packet)}, Config{MaxPacket: 4096, RetransmitInterval: time.Hour}, got.handler)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			for _, f := range c.frames {
				tr.handlePacket(netback.Packet{From: 2, To: 1, Payload: f})
			}
			if msgs := got.snapshot(); !slices.Equal(msgs, []string{"whole"}) {
				t.Errorf("delivered %q, want only \"whole\"", msgs)
			}
		})
	}
}

// TestAckDelayRestartsForEachObligation drives the ack path by hand, with an
// AckDelay no timer reaches: an ack falls due AckDelay after it becomes owed,
// afresh after a data frame has carried the last one. The delay used to run
// from the first obligation of a cycle that a carried ack did not end, so a
// wake of its timer sent the next record's ack bare at once.
func TestAckDelayRestartsForEachObligation(t *testing.T) {
	a, _ := newPipe()
	a.drop = true
	tr, err := New(a, Config{MaxPacket: 4096, RetransmitInterval: time.Hour, AckDelay: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, pass := handDriven(tr)
	sent := func() [][]byte {
		a.mu.Lock()
		defer a.mu.Unlock()
		s := a.sent
		a.sent = nil
		return s
	}
	tr.handlePacket(netback.Packet{From: 2, To: 1, Payload: peerFrame(kindFrameLow, 1, rec{flagLastFragment, "one"})})
	if err := tr.Send(2, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	pass()
	f := sent()
	if len(f) != 1 || f[0][0] == kindAck {
		t.Fatalf("the pass after frame 1 sent %d frames, want one data frame carrying ack 1", len(f))
	}
	if head, _ := readFrame(f[0]); head[4] != 1 {
		t.Fatalf("the pass after frame 1 sent a data frame carrying ack %d, want 1", head[4])
	}

	tr.handlePacket(netback.Packet{From: 2, To: 1, Payload: peerFrame(kindFrame, 2, rec{flagLastFragment, "two"})})
	tr.ackTimerFire(2) // a stale wake: frame 2's ack is due an hour from now
	pass()
	if f := sent(); len(f) != 0 {
		t.Fatalf("a wake before frame 2's ack was due sent %d frames, want none", len(f))
	}

	tr.mu.Lock()
	tr.recvs[2].ackDue = tr.recvs[2].ackDue.Add(-2 * time.Hour)
	tr.mu.Unlock()
	tr.ackTimerFire(2)
	pass()
	if f := sent(); len(f) != 1 || len(f[0]) != ackSize || f[0][0] != kindAck || binary.BigEndian.Uint64(f[0][9:17]) != 2 {
		t.Fatalf("the pass once frame 2's ack was due sent %d frames, want one %d-byte ack of 2", len(f), ackSize)
	}
	if st := tr.Stats(); st.AcksSent != 1 || st.AcksPiggybacked != 1 {
		t.Errorf("%d acks sent bare and %d piggybacked, want 1 and 1", st.AcksSent, st.AcksPiggybacked)
	}
}

// TestDefaultAckDelayBoundedByRetransmitInterval: on every profile the
// default ack delay is a quarter of the retransmission interval, so a record
// sent at t is acked by t + 2·delay + AckDelay, before the interval is up and
// the record would be resent.
func TestDefaultAckDelayBoundedByRetransmitInterval(t *testing.T) {
	for _, d := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 50 * time.Millisecond} {
		cfg := DefaultConfig(netback.Profile{Delay: d})
		if cfg.AckDelay != cfg.RetransmitInterval/4 {
			t.Errorf("delay %v: AckDelay %v, want RetransmitInterval/4 = %v", d, cfg.AckDelay, cfg.RetransmitInterval/4)
		}
		if 2*d+cfg.AckDelay >= cfg.RetransmitInterval {
			t.Errorf("delay %v: a held ack arrives %v after its record left, not before RetransmitInterval %v", d, 2*d+cfg.AckDelay, cfg.RetransmitInterval)
		}
	}
}

// TestResentRecordOutgrownByItsAck cuts a message to fill a frame whose
// piggybacked ack took 3 bytes, then has the ack grow to 4 (sequence 200 from
// the peer) before the record is resent. The record no longer fits a frame
// that carries the ack, so its frame goes without one, and the next frame of
// the pass carries it. A pass that found its lead record too long for any
// frame it could build would send empty frames forever.
func TestResentRecordOutgrownByItsAck(t *testing.T) {
	a, _ := newPipe()
	a.drop = true
	tr, err := New(a, Config{MaxPacket: 64, RetransmitInterval: time.Hour, AckDelay: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, pass := handDriven(tr)
	if err := tr.Send(2, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	pass()
	if recs := records(a.dataFrames()); len(recs) != 2 || len(recs[0].payload()) != 55 {
		t.Fatalf("a 100-byte message was cut into %d records, want 2, the first of 55 bytes", len(recs))
	}
	tr.handlePacket(netback.Packet{From: 2, To: 1, Payload: peerFrame(kindFrameLow, 199, rec{flagLastFragment, "p"}, rec{flagLastFragment, "q"})})
	ageAll(tr, 1, 2)
	done := make(chan struct{})
	go func() { pass(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the resending pass did not end")
	}
	frames := a.dataFrames()
	if len(frames) != 2 {
		t.Fatalf("the resending pass sent %d frames, want 2", len(frames))
	}
	for i, want := range [][2]uint64{{0, 1}, {200, 2}} {
		head, recs := readFrame(frames[i])
		if len(frames[i]) > 64 || head[4] != want[0] || len(recs) != 1 || recs[0].seq != want[1] {
			t.Errorf("frame %d: %d bytes, ack %d, %d records from %d; want at most 64 bytes, ack %d, record %d alone", i+1, len(frames[i]), head[4], len(recs), head[5], want[0], want[1])
		}
	}
	if st := tr.Stats(); st.AcksPiggybacked != 1 || st.Retransmissions != 2 {
		t.Errorf("%d acks piggybacked and %d records resent, want 1 and 2", st.AcksPiggybacked, st.Retransmissions)
	}
}

// TestRetransmitSweepSplitsFrames checks that a deep overdue backlog is
// resent by one pass in sequence order across several full frames, only the
// first of which claims to lead with the lowest outstanding sequence.
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
	a.takeRecords(t, n)
	ageAll(tr, 1, n)
	tick(tr)
	frames := a.takeRecords(t, n)
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
		t.Errorf("pass resent sequences up to %d, want %d", next-1, n)
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

	long := make([]byte, 120) // three fragments at this MaxPacket
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	for _, m := range [][]byte{[]byte("one"), long, []byte("three")} {
		if err := ta.Send(2, m); err != nil {
			t.Fatal(err)
		}
	}
	frames := a.takeRecords(t, 5)
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
	// At least 20000 messages, and long enough to span several retransmission ticks.
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
