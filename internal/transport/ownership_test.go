package transport

// The ownership rule, from the outside: Send keeps the caller's bytes by
// reference until they are acknowledged, so whatever is retransmitted, to
// however many sites one buffer went, is what was sent the first time. These
// tests have no build tag: under -race, checkptr watches the aliasing too.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netback"
)

// ownershipMessages are the shapes the window holds: one record, the longest
// message that is never cut, a message of several fragments, and none at all.
func ownershipMessages(maxPacket int) [][]byte {
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + n)
		}
		return b
	}
	return [][]byte{
		[]byte("small"),
		pattern(maxPacket - maxHead),
		pattern(10_000),
		nil,
		[]byte("after the empty one"),
	}
}

// records returns the records of the data frames, in order.
func records(frames [][]byte) []record {
	var recs []record
	for _, f := range frames {
		_, r := readFrame(f)
		recs = append(recs, r...)
	}
	return recs
}

// TestRetransmissionRepeatsRecordBytes: every frame is lost, the flusher's
// pass is driven by hand, and the records it resends — headers written afresh from the
// window, fragments read again from the sender's buffers — are byte for byte
// the records of the first transmission, re-coalesced or not.
func TestRetransmissionRepeatsRecordBytes(t *testing.T) {
	a, _ := newPipe()
	a.drop = true
	cfg := Config{MaxPacket: 4096, RetransmitInterval: time.Hour}
	tr, err := New(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ps, pass := handDriven(tr)
	msgs := ownershipMessages(cfg.MaxPacket)
	for _, m := range msgs {
		if err := tr.Send(2, m); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	// Where the flusher cuts a message depends on what shares its frame, so
	// the record count is the first transmission's.
	first := records(a.dataFrames())
	want := len(first)
	if want < len(msgs)+2 {
		t.Fatalf("%d records first sent for %d messages, one of them longer than two frames", want, len(msgs))
	}
	var joined []byte
	for _, r := range first {
		joined = append(joined, r.payload()...)
	}
	if !bytes.Equal(joined, bytes.Join(msgs, nil)) {
		t.Fatal("the first transmission does not carry the messages")
	}

	for round := 1; round <= 2; round++ {
		ageAll(tr, 1, uint64(want))
		pass()
		again := records(a.dataFrames())
		if len(again) != want {
			t.Fatalf("pass %d resent %d records, want %d", round, len(again), want)
		}
		for i := range again {
			if again[i].seq != first[i].seq || !bytes.Equal(again[i].bytes, first[i].bytes) {
				t.Errorf("pass %d: record %d differs from its first transmission", round, i+1)
			}
		}
	}

	// An ack drops the window's references along with the records, and the
	// queue kept none once it was all cut.
	tr.applyAck(2, tr.epochBase, uint64(want))
	tr.mu.Lock()
	for _, r := range ps.window[:cap(ps.window)] {
		if r.frag != nil {
			t.Error("a retired record still refers to its sender's buffer")
			break
		}
	}
	for _, m := range ps.queue[:cap(ps.queue)] {
		if m != nil {
			t.Error("the queue still refers to a message it has cut")
			break
		}
	}
	tr.mu.Unlock()
}

// TestConformanceLossRecoveryIntact is the same from the far end, on both
// fabrics: one buffer goes to two sites, the link to one of them is cut
// (netback.Faults) while it and the other message shapes are in flight, and
// what the retransmissions deliver after the heal is what was sent — and the
// site whose link stayed up saw it once, unharmed by the other's resends.
func TestConformanceLossRecoveryIntact(t *testing.T) {
	for _, fc := range fabricCases() {
		t.Run(fc.name, func(t *testing.T) {
			fab := fc.make(0)
			defer fab.Close()
			faults := fab.(netback.FaultInjector)
			t1, c1 := confEndpoint(t, fab, 1, 1)
			defer t1.Close()
			t2, c2 := confEndpoint(t, fab, 2, 1)
			defer t2.Close()
			t3, c3 := confEndpoint(t, fab, 3, 1)
			defer t3.Close()
			// Links up and windows drained before the cut.
			for _, tr := range []*Transport{t2, t3} {
				if err := tr.Send(1, []byte("hello")); err != nil {
					t.Fatal(err)
				}
			}
			c1.waitFor(t, 2, 5*time.Second)
			waitUntil(t, "the greetings to be acknowledged", func() bool { return t2.Unacked()+t3.Unacked() == 0 })

			faults.Partition(1, 2)
			msgs := ownershipMessages(fab.Profile().MaxPacket)
			var want []string
			for _, m := range msgs {
				want = append(want, string(m))
				for _, to := range []SiteID{2, 3} {
					if err := t1.Send(to, m); err != nil {
						t.Fatal(err)
					}
				}
			}
			check := func(who string, got []string) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("site %s received %d messages, want %d", who, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("site %s: message %d arrived changed (%d bytes, want %d)", who, i, len(got[i]), len(want[i]))
					}
				}
			}
			check("3", c3.waitFor(t, len(want), 5*time.Second))
			waitUntil(t, "a retransmission into the cut", func() bool { return t1.Stats().Retransmissions > 0 })
			if n := len(c2.snapshot()); n != 0 {
				t.Fatalf("%d messages crossed a severed link", n)
			}
			faults.Heal(1, 2)
			check("2", c2.waitFor(t, len(want), 10*time.Second))
			waitUntil(t, "the window to drain", func() bool { return t1.Unacked() == 0 })
			check("3", c3.snapshot())
		})
	}
}
