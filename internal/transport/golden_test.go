package transport

import (
	"encoding/hex"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netback"
)

// goldenFrames pins the transport's wire byte for byte. A data frame's head
// is a kind byte (5, or 6 when the frame leads with the sender's lowest
// outstanding sequence) and six uvarints: the sender's stream epoch as its
// incarnation and reset count, the piggybacked ack's epoch in the same form,
// the cumulative ack, and the first record's sequence. A record is a uvarint
// of its length shifted left by two over its flags (1: the last of its
// message, 2: not its first), then its bytes; record i of a frame carries
// sequence first+i. Kinds 3 and 4, whose 25-byte heads and 13-byte record
// heads spelled out every sequence, are retired. The bare ack keeps its fixed
// 17 bytes: kind 2, the acknowledged stream's epoch and the cumulative ack,
// eight bytes each, big endian.
//
// The frames are goldenStream's: a sender of incarnation 300 (ac02) acking
// its peer's stream of epoch 7<<32 up to sequence 200 (c801), at a MaxPacket
// of 64. The first frame carries "a", "bc" and the head of an 80-byte
// message cut to fill it; the second, the message's 32-byte continuation,
// "de" and "f".
var goldenFrames = map[string]string{
	"frameLow": "06" + "ac02" + "00" + "07" + "00" + "c801" + "01" +
		"05" + "61" + "09" + "6263" + "c001" + strings.Repeat("78", 48),
	"frame": "05" + "ac02" + "00" + "07" + "00" + "c801" + "04" +
		"8301" + strings.Repeat("78", 32) + "09" + "6465" + "05" + "66",
	"ack": "02" + "0000000700000000" + "00000000000000c8",
}

// goldenMessages are the messages goldenStream sends, in order.
var goldenMessages = []string{"a", "bc", strings.Repeat("x", 80), "de", "f"}

// goldenStream has a hand-driven transport of incarnation 300 adopt its
// peer's stream of epoch 7<<32 at sequence 199, queue goldenMessages and run
// one flusher pass at a MaxPacket of 64, then a second pass for the keepalive
// Poll asks for. It returns every frame the passes sent.
func goldenStream(t *testing.T) [][]byte {
	t.Helper()
	a, _ := newPipe()
	a.drop = true
	tr, err := New(a, Config{MaxPacket: 64, RetransmitInterval: time.Hour, AckDelay: time.Hour, Epoch: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, pass := handDriven(tr)
	tr.handlePacket(netback.Packet{From: 2, To: 1, Payload: peerFrame(kindFrameLow, 199, rec{flagLastFragment, "p"}, rec{flagLastFragment, "q"})})
	for _, m := range goldenMessages {
		if err := tr.Send(2, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	for range 2 { // the first poll finds the peer sent a frame, the second asks for a keepalive
		tr.Poll(func(SiteID, bool) {})
	}
	pass()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sent
}

// TestTransportFrameMatchesGolden checks the frames the sender builds against
// goldenFrames, that a receiver reads the messages back out of them, and the
// sizes the layout promises.
func TestTransportFrameMatchesGolden(t *testing.T) {
	frames := goldenStream(t)
	var got []string
	for _, f := range frames {
		got = append(got, hex.EncodeToString(f))
	}
	if want := []string{goldenFrames["frameLow"], goldenFrames["frame"], goldenFrames["ack"]}; !slices.Equal(got, want) {
		t.Fatalf("the passes sent\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	var delivered []string
	rx, err := New(&sinkEnd{recv: make(chan netback.Packet)}, Config{MaxPacket: 64, RetransmitInterval: time.Hour}, func(_ SiteID, m []byte) {
		delivered = append(delivered, string(m))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	for _, f := range frames {
		rx.handlePacket(netback.Packet{From: 2, To: 1, Payload: f})
	}
	if !slices.Equal(delivered, goldenMessages) {
		t.Errorf("a receiver read %q out of the golden frames, want %q", delivered, goldenMessages)
	}

	// A data frame is never mistaken for a bare ack by its size: one record
	// carrying the shortest daemon packet (11 bytes, an error packet with one
	// byte of text) under the shortest head still makes it longer than 17.
	a, _ := newPipe()
	a.drop = true
	tr, err := New(a, Config{MaxPacket: 4096, RetransmitInterval: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, pass := handDriven(tr)
	if err := tr.Send(2, make([]byte, 11)); err != nil {
		t.Fatal(err)
	}
	pass()
	if f := a.dataFrames(); len(f) != 1 || len(f[0]) <= ackSize {
		t.Fatalf("an 11-byte message went in %d frames of %d bytes, want one longer than a %d-byte bare ack", len(f), len(f[0]), ackSize)
	}

	// A frame head stays within 12 bytes while incarnations and resets stay
	// below 128 and sequences below 2^21.
	if n := len(appendHead(nil, kindFrameLow, 127<<32|127, 127<<32|127, 1<<21-1, 1<<21-1)); n > 12 {
		t.Errorf("a frame head with 21-bit sequences is %d bytes, want at most 12", n)
	}
}

// TestRecordHeadSizes sends messages of each size alone through a 16 KB
// frame and reads the length of each record's head off the wire: 1 byte
// below 32 bytes of payload, 2 from 32 to 4 095, and never more than 3.
func TestRecordHeadSizes(t *testing.T) {
	const maxPacket = 16384
	a, _ := newPipe()
	a.drop = true
	tr, err := New(a, Config{MaxPacket: maxPacket, RetransmitInterval: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, pass := handDriven(tr)
	for _, c := range []struct{ size, head int }{{0, 1}, {31, 1}, {32, 2}, {1000, 2}, {4095, 2}, {4096, 3}, {maxPacket - maxHead, 3}} {
		if err := tr.Send(2, make([]byte, c.size)); err != nil {
			t.Fatal(err)
		}
		pass()
		recs := records(a.dataFrames())
		if len(recs) != 1 || len(recs[0].payload()) != c.size {
			t.Fatalf("a %d-byte message went in %d records", c.size, len(recs))
		}
		if n := len(recs[0].bytes) - c.size; n != c.head {
			t.Errorf("a %d-byte record's head is %d bytes, want %d", c.size, n, c.head)
		}
	}
}

// FuzzTransportFrame feeds arbitrary bytes to a hand-driven transport as one
// frame from its peer, then runs a flusher pass, which acks whatever the frame
// left owed. Nothing may panic; the messages delivered in the frame's memory
// are disjoint sub-ranges of it (one reassembled from several of its records
// is a buffer of its own); and the messages together are no longer than the
// frame.
func FuzzTransportFrame(f *testing.F) {
	for _, g := range goldenFrames {
		b, err := hex.DecodeString(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	const last, cont = flagLastFragment, flagContinues
	f.Add(peerFrame(kindFrameLow, 5, rec{cont | last, "tail"}, rec{0, "who"}, rec{cont | last, "le"})) // adoption, a dropped tail, reassembly
	f.Add(peerFrame(kindFrame, 3, rec{last, "early"}))                                                 // held in the gap buffer
	f.Add(peerFrame(kindFrameLow, 1<<64-1, rec{last, "x"}, rec{last, "y"}))                            // sequences that wrap
	f.Add(peerFrame(kindFrameLow, 1, rec{last, "cut"})[:10])                                           // a record cut short
	f.Add(append(peerFrame(kindFrameLow, 1), 0xff, 0xff, 0xff, 0xff, 0x0f))                            // a length past the frame
	f.Add([]byte{kindFrameLow, 0x80, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 0, 1})                           // an epoch half over 32 bits
	f.Add([]byte{kindFrame, 1, 0})                                                                     // a truncated head
	f.Add(append([]byte{4}, make([]byte, 24)...))                                                      // a retired kind
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := make([]byte, len(data)) // its capacity ends where the frame does
		copy(frame, data)
		var got [][]byte
		a, _ := newPipe()
		a.drop = true
		tr, err := New(a, Config{MaxPacket: 4096, RetransmitInterval: time.Hour, AckDelay: time.Hour}, func(_ SiteID, m []byte) {
			got = append(got, m)
		})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		_, pass := handDriven(tr)
		tr.handlePacket(netback.Packet{From: 2, To: 1, Payload: frame})
		pass()
		var spans [][2]int // the bytes of the frame each message in its memory covers
		total := 0
		for _, m := range got {
			total += len(m)
			// A sub-slice of the frame runs in memory to the frame's end.
			if c := cap(m); len(m) > 0 && &m[:c][c-1] == &frame[len(frame)-1] {
				spans = append(spans, [2]int{len(frame) - c, len(frame) - c + len(m)})
			}
		}
		if total > len(frame) {
			t.Fatalf("%d messages of %d bytes out of a %d-byte frame", len(got), total, len(frame))
		}
		slices.SortFunc(spans, func(x, y [2]int) int { return x[0] - y[0] })
		for i := 1; i < len(spans); i++ {
			if spans[i][0] < spans[i-1][1] {
				t.Fatalf("two messages share bytes %d to %d of the frame", spans[i][0], min(spans[i][1], spans[i-1][1]))
			}
		}
	})
}
