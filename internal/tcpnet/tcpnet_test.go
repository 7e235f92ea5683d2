package tcpnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// hello builds a connection's opening hello as a peer sends it.
func hello(magic uint32, version byte, site, epoch uint64) []byte {
	b := binary.BigEndian.AppendUint32(nil, magic)
	b = binary.BigEndian.AppendUint64(append(b, version), site)
	return binary.BigEndian.AppendUint64(b, epoch)
}

// frame builds one length-prefixed frame.
func frame(payload string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// closeSignal is a connection that reports its Close: every way the endpoint
// is done with an inbound connection — a refused hello, a stale epoch, the
// reader at the end of the stream — closes it.
type closeSignal struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *closeSignal) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// FuzzTCPFrame feeds arbitrary bytes to an endpoint as an inbound connection:
// the handshake's hello, then length-prefixed frames. Nothing may panic or
// hang. The endpoint delivers a frame only behind a hello of the right magic
// and version from another site whose epoch is not stale (site 2 was last seen
// at epoch 5), and then exactly the whole frames of at most MaxPacket bytes
// before the first that is not, each as it was sent.
func FuzzTCPFrame(f *testing.F) {
	good := hello(helloMagic, wireVersion, 2, 5)
	f.Add(append(append(good, frame("abc")...), frame("")...))
	f.Add(good[:helloSize-1])                                                           // truncated hello
	f.Add(append(hello(helloMagic, wireVersion, 3, 1), frame("x")[:3]...))              // truncated frame header
	f.Add(append(append(good, frame("abc")...), frame("de")[:5]...))                    // truncated frame
	f.Add(append(append(good, 0xff, 0xff, 0xff, 0xff), frame("x")...))                  // oversize length
	f.Add(append(append(good, frame(string(make([]byte, 65)))...), frame("y")...))      // one byte over MaxPacket
	f.Add(append(hello(helloMagic+1, wireVersion, 2, 5), frame("x")...))                // wrong magic
	f.Add(append(hello(helloMagic, wireVersion+1, 2, 5), frame("x")...))                // wrong version
	f.Add(append(hello(helloMagic, wireVersion, 2, 4), frame("stale")...))              // stale epoch
	f.Add(append(hello(helloMagic, wireVersion, 1, 9), frame("self")...))               // the endpoint's own id
	f.Add(append(hello(helloMagic, wireVersion, 2<<16|7, 9), frame("truncated id")...)) // a site id beyond 16 bits
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("more frames than the receive queue holds") // the reader would wait for a consumer
		}
		n := New(Config{MaxPacket: 64})
		defer n.Close()
		attached, err := n.Attach(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		e := attached.(*Endpoint)
		e.mu.Lock()
		seen := &peer{id: 2, sendQ: make(chan []byte, 1), maxEpoch: 5}
		e.peers[2] = seen
		e.wg.Add(2)
		go e.runSender(seen)
		client, server := net.Pipe()
		conn := &closeSignal{Conn: server, closed: make(chan struct{})}
		go e.acceptHandshake(conn)
		e.mu.Unlock()
		go func() {
			defer client.Close()
			var theirs [helloSize]byte
			if _, err := io.ReadFull(client, theirs[:]); err == nil {
				_, _ = client.Write(data)
			}
		}()
		select {
		case <-conn.closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("input %x: the endpoint never let go of the connection", data)
		}

		// What the endpoint must have delivered.
		var want [][]byte
		site, epoch := SiteID(0), uint64(0)
		if len(data) >= helloSize {
			site, epoch = SiteID(binary.BigEndian.Uint64(data[5:13])), binary.BigEndian.Uint64(data[13:21])
		}
		if len(data) >= helloSize && binary.BigEndian.Uint32(data) == helloMagic && data[4] == wireVersion &&
			site != 1 && (site != 2 || epoch >= 5) {
			for rest := data[helloSize:]; len(rest) >= frameHdrSize; {
				size := int(binary.BigEndian.Uint32(rest))
				if size > 64 || len(rest) < frameHdrSize+size {
					break
				}
				want, rest = append(want, rest[frameHdrSize:frameHdrSize+size]), rest[frameHdrSize+size:]
			}
		}
		for i, w := range want {
			select {
			case p := <-e.recv:
				if p.From != site || p.To != 1 || !bytes.Equal(p.Payload, w) {
					t.Fatalf("input %x: frame %d delivered as %d->%d %x, want %d->1 %x", data, i, p.From, p.To, p.Payload, site, w)
				}
			default:
				t.Fatalf("input %x: %d frames delivered, want %d", data, i, len(want))
			}
		}
		select {
		case p := <-e.recv:
			t.Fatalf("input %x: frame %x delivered beyond the %d expected", data, p.Payload, len(want))
		default:
		}
	})
}
