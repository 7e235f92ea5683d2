package msg

import (
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/addr"
)

// goldenCodec pins the wire format: a uvarint field count, then per field a
// uvarint name length, the name, the type byte and the payload (an int a zigzag
// varint, an address its 8 bytes, anything else a uvarint length and the bytes).
var goldenCodec = []struct {
	name string
	m    *Message
	hex  string
}{
	{"empty", New(), "00"},
	{"bytes", New().PutBytes("b", []byte{1, 2, 3}), "01" + "0162" + "01" + "03" + "010203"},
	{"string", New().PutString("s", "text"), "01" + "0173" + "02" + "04" + "74657874"},
	{"negative int", New().PutInt("i", -3), "01" + "0169" + "03" + "05"},
	{"min int", New().PutInt("min", math.MinInt64), "01" + "036d696e" + "03" + "ffffffffffffffffff01"},
	{"address", New().PutAddress("a", addr.NewProcess(3, 1, 7)), "01" + "0161" + "04" + "0003010100000007"},
	{"address list", New().PutAddressList("l", addr.List{addr.NewGroup(1, 0, 5), addr.NewProcess(2, 0, 8)}),
		"01" + "016c" + "05" + "10" + "0001000200000005" + "0002000100000008"},
	{"two-deep message", New().PutMessage("m", New().PutMessage("n", New().PutInt("d", 300))),
		"01" + "016d" + "06" + "0b" + "01" + "016e" + "06" + "06" + "01" + "0164" + "03" + "d804"},
}

// TestCodecMatchesGolden checks the codec both ways: each message marshals to
// its golden bytes, at its MarshaledSize, and the golden bytes decode to the
// message and marshal to themselves again.
func TestCodecMatchesGolden(t *testing.T) {
	for _, g := range goldenCodec {
		got, err := g.m.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if hex.EncodeToString(got) != g.hex || g.m.MarshaledSize() != len(got) {
			t.Errorf("%s: encoding moved (MarshaledSize %d)\n got %x\nwant %s", g.name, g.m.MarshaledSize(), got, g.hex)
		}
		raw, _ := hex.DecodeString(g.hex)
		back, err := Unmarshal(raw)
		if err != nil || back.Len() != g.m.Len() || back.Len() > 0 && !reflect.DeepEqual(back.fields, g.m.fields) {
			t.Fatalf("%s: golden bytes decode to %v (%v), want %s", g.name, back, err, g.m.Format())
		}
		if again, _ := back.Marshal(); hex.EncodeToString(again) != g.hex {
			t.Errorf("%s: decode and re-marshal moved the bytes\n got %x\nwant %s", g.name, again, g.hex)
		}
	}
}

// TestFieldHeadSizes tabulates what a field costs beyond its name: a type byte
// and, for an int, a zigzag varint of 1 to 10 bytes; for a bytes field, a
// length word of 1 byte up to 127 bytes, 2 up to 16 383, then 3.
func TestFieldHeadSizes(t *testing.T) {
	size := func(m *Message) int { return m.MarshaledSize() - 1 - 1 - 1 } // the count, the name's length and its one byte
	for _, c := range []struct {
		v    int64
		want int
	}{
		{0, 2}, {-1, 2}, {63, 2}, {-64, 2}, {64, 3}, {-65, 3}, {8191, 3}, {8192, 4},
		{1 << 19, 4}, {1 << 20, 5}, {math.MaxInt32, 6}, {math.MaxInt64, 11}, {math.MinInt64, 11},
	} {
		if got := size(New().PutInt("x", c.v)); got != c.want {
			t.Errorf("int %d: %d bytes beyond the name, want %d", c.v, got, c.want)
		}
	}
	for _, c := range []struct{ n, want int }{{0, 2}, {127, 2}, {128, 3}, {16383, 3}, {16384, 4}} {
		if got := size(New().PutBytes("x", []byte(strings.Repeat("b", c.n)))) - c.n; got != c.want {
			t.Errorf("bytes of %d: a head of %d bytes beyond the name, want %d", c.n, got, c.want)
		}
	}
}
