package transport

import (
	"bytes"
	"maps"
	"testing"
	"time"

	"repro/internal/netback"
)

// takeAcks returns the bare acks sent since the last call and forgets them,
// leaving the data frames for takeRecords.
func (e *pipeEnd) takeAcks() [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	var acks, kept [][]byte
	for _, f := range e.sent {
		if f[0] == kindAck {
			acks = append(acks, f)
		} else {
			kept = append(kept, f)
		}
	}
	e.sent = kept
	return acks
}

// poll calls Poll and returns what it reported.
func poll(tr *Transport) map[SiteID]bool {
	got := make(map[SiteID]bool)
	tr.Poll(func(site SiteID, any bool) { got[site] = any })
	return got
}

// TestKeepaliveCadence drives Poll by hand and reads the frames at the pipe:
// an idle peer is sent exactly one bare ack per poll — the keepalive does not
// count as traffic for the next one — and a peer that was sent a data frame
// since the last poll is sent none. Any frame from a peer, a bare ack from a
// site never heard of included, opens it and is reported by the next poll.
func TestKeepaliveCadence(t *testing.T) {
	a, _ := newPipe()
	a.drop = true
	tr, err := New(a, Config{MaxPacket: 4096, RetransmitInterval: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	bare := append([]byte{kindAck}, make([]byte, ackSize-1)...) // epoch 0, cumulative ack 0
	keepalives := func(what string, want int) {
		t.Helper()
		var acks [][]byte
		waitUntil(t, what, func() bool { acks = append(acks, a.takeAcks()...); return len(acks) >= want })
		time.Sleep(10 * time.Millisecond)
		if acks = append(acks, a.takeAcks()...); len(acks) != want {
			t.Fatalf("%s: %d bare acks, want %d", what, len(acks), want)
		}
		for _, f := range acks {
			if !bytes.Equal(f, bare) {
				t.Fatalf("%s: keepalive %x, want a bare ack of epoch 0 (nothing was received)", what, f)
			}
		}
	}
	noKeepalive := func(what string) {
		t.Helper()
		time.Sleep(20 * time.Millisecond)
		if n := len(a.takeAcks()); n != 0 {
			t.Fatalf("%s: %d bare acks, want none", what, n)
		}
	}

	if err := tr.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	a.takeRecords(t, 1)
	if got := poll(tr); !maps.Equal(got, map[SiteID]bool{2: false}) {
		t.Fatalf("Poll reported %v, want site 2 not heard from", got)
	}
	noKeepalive("a poll after a data frame")
	for i := 0; i < 3; i++ {
		poll(tr)
		keepalives("an idle peer's poll", 1)
	}
	if err := tr.Send(2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	a.takeRecords(t, 1)
	poll(tr)
	noKeepalive("a poll after a data frame")
	poll(tr)
	keepalives("the next idle poll", 1)

	// A bare ack from site 3, never heard of, opens it; site 2 stays unheard.
	a.recv <- netback.Packet{From: 3, To: 1, Payload: bare}
	waitUntil(t, "the bare ack to open site 3", func() bool {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.sends[3] != nil
	})
	if got := poll(tr); !maps.Equal(got, map[SiteID]bool{2: false, 3: true}) {
		t.Fatalf("Poll reported %v, want site 3 heard from and site 2 not", got)
	}
	keepalives("a poll of two idle peers", 2)
	if got := poll(tr); !maps.Equal(got, map[SiteID]bool{2: false, 3: false}) {
		t.Fatalf("the second Poll reported %v, want nothing heard", got)
	}
}
