package transport

// The ownership rule, from the outside: Send keeps the caller's bytes by
// reference until they are acknowledged, so whatever is retransmitted, to
// however many sites one buffer went, is what was sent the first time. These
// tests have no build tag: under -race, checkptr watches the aliasing too.

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/netback"
)

// ownershipMessages are the shapes the window holds: one record, an exact
// fragment's worth, a message of several fragments, and none at all.
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
		pattern(maxPacket - frameHeaderSize - subHeaderSize),
		pattern(10_000),
		nil,
		[]byte("after the empty one"),
	}
}

// records returns the sub-packet records of the data frames, in order.
func records(frames [][]byte) [][]byte {
	var recs [][]byte
	for _, f := range frames {
		for body := f[frameHeaderSize:]; len(body) >= subHeaderSize; {
			n := subHeaderSize + int(binary.BigEndian.Uint32(body[9:13]))
			recs = append(recs, body[:n])
			body = body[n:]
		}
	}
	return recs
}

// TestRetransmissionRepeatsRecordBytes: every frame is lost, the sweep is
// driven by hand, and the records it resends — headers written afresh from the
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
	msgs := ownershipMessages(cfg.MaxPacket)
	maxFrag := cfg.MaxPacket - frameHeaderSize - subHeaderSize
	want := 0 // records: a message's fragments, one for an empty message
	for _, m := range msgs {
		if err := tr.Send(2, m); err != nil {
			t.Fatal(err)
		}
		want += max(1, (len(m)+maxFrag-1)/maxFrag)
	}
	waitUntil(t, "the first transmissions", func() bool {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.sends[2].sentUpTo == uint64(want)
	})
	first := records(a.dataFrames())
	if len(first) != want {
		t.Fatalf("%d records first sent, want %d", len(first), want)
	}
	var joined []byte
	for _, r := range first {
		joined = append(joined, r[subHeaderSize:]...)
	}
	if !bytes.Equal(joined, bytes.Join(msgs, nil)) {
		t.Fatal("the first transmission does not carry the messages")
	}

	for sweep := 1; sweep <= 2; sweep++ {
		tr.mu.Lock()
		for seq := uint64(1); seq <= uint64(want); seq++ {
			r := tr.sends[2].at(seq)
			r.sentAt = r.sentAt.Add(-2 * time.Hour)
		}
		tr.mu.Unlock()
		tr.retransmit(make([]byte, 0, cfg.MaxPacket))
		again := records(a.dataFrames())
		if len(again) != want {
			t.Fatalf("sweep %d resent %d records, want %d", sweep, len(again), want)
		}
		for i := range again {
			if !bytes.Equal(again[i], first[i]) {
				t.Errorf("sweep %d: record %d differs from its first transmission", sweep, i+1)
			}
		}
	}

	// An ack drops the window's references along with the records.
	tr.applyAck(2, tr.epochBase, uint64(want))
	tr.mu.Lock()
	ps := tr.sends[2]
	for _, r := range ps.window[:cap(ps.window)] {
		if r.frag != nil {
			t.Error("a retired record still refers to its sender's buffer")
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
