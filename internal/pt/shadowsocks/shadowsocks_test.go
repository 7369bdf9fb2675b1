package shadowsocks

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// pipeEnd is a net.Pipe end with the event forms a RecordConn reads and
// writes its inner conn through; the pipe blocks the calling goroutine
// where a netem conn would queue again, so neither ever waits.
type pipeEnd struct{ net.Conn }

func (p pipeEnd) ReadFullEvent(b []byte, _ func()) (int, error, bool) {
	n, err := io.ReadFull(p.Conn, b)
	return n, err, true
}

func (p pipeEnd) WriteEvent(b []byte, _ func()) (int, error, bool) {
	n, err := p.Conn.Write(b)
	return n, err, true
}

func (p pipeEnd) ReadEvent(b []byte, _ func()) (int, error, bool) {
	n, err := p.Conn.Read(b)
	return n, err, true
}

func (p pipeEnd) SetReadTimeout(time.Duration) error { return nil }

// runHandshake plays h over conn with seed, awaiting it on a clock of
// its own: the pipe ends here never leave a wait to a clock event.
func runHandshake(h pt.Handshake, conn netem.Stream, seed int64) (netem.Stream, error) {
	return netem.Await(netem.NewClock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
		return h.RunEvent(conn, seed, done)
	})
}

// pipe is net.Pipe with both ends wrapped.
func pipe() (pipeEnd, pipeEnd) {
	a, b := net.Pipe()
	return pipeEnd{a}, pipeEnd{b}
}

func pipePair(t *testing.T, psk []byte) (net.Conn, net.Conn) {
	t.Helper()
	a, b := pipe()
	done := make(chan net.Conn, 1)
	go func() {
		s, err := runHandshake(Transport(Config{PSK: psk}).Server, b, 0)
		if err != nil {
			done <- nil
			return
		}
		done <- s
	}()
	c, err := runHandshake(Transport(Config{PSK: psk}).Client, a, 42)
	if err != nil {
		t.Fatal(err)
	}
	s := <-done
	if s == nil {
		t.Fatal("server wrap failed")
	}
	return c, s
}

func TestAEADRoundTrip(t *testing.T) {
	c, s := pipePair(t, []byte("psk"))
	f := func(payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		errc := make(chan error, 1)
		go func() {
			_, err := c.Write(payload)
			errc <- err
		}()
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(s, got); err != nil {
			return false
		}
		if err := <-errc; err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeChunkSplit(t *testing.T) {
	c, s := pipePair(t, []byte("psk"))
	payload := make([]byte, maxChunk*2+17)
	for i := range payload {
		payload[i] = byte(i)
	}
	go c.Write(payload)
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-chunk payload corrupted")
	}
}

func TestTamperDetected(t *testing.T) {
	// client → a1/a2 → middlebox (flips one ciphertext bit) → b1/b2 → server
	a1, a2 := pipe()
	b1, b2 := pipe()
	for _, end := range []net.Conn{a1, a2, b1, b2} {
		defer end.Close() // ends the middlebox and the client's write
	}
	go func() {
		buf := make([]byte, 4096)
		seen := 0
		for {
			n, err := a2.Read(buf)
			if n > 0 {
				// Flip a bit beyond the salt, inside the first chunk.
				if seen <= saltLen && seen+n > saltLen+3 {
					buf[saltLen+3-seen] ^= 0x01
				}
				seen += n
				if _, werr := b1.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				b1.Close()
				return
			}
		}
	}()

	done := make(chan error, 1)
	go func() {
		s, err := runHandshake(Transport(Config{PSK: []byte("k")}).Server, b2, 0)
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 16)
		_, err = s.Read(buf)
		done <- err
	}()
	cConn, err := runHandshake(Transport(Config{PSK: []byte("k")}).Client, a1, 1)
	if err != nil {
		t.Fatal(err)
	}
	go cConn.Write([]byte("hello world too long"))
	if err := <-done; err == nil {
		t.Fatal("tampered chunk must fail authentication")
	}
}

func TestWrongPSKFails(t *testing.T) {
	a, b := pipe()
	done := make(chan error, 1)
	go func() {
		s, err := runHandshake(Transport(Config{PSK: []byte("server-key")}).Server, b, 0)
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 8)
		_, err = s.Read(buf)
		done <- err
	}()
	c, err := runHandshake(Transport(Config{PSK: []byte("client-key")}).Client, a, 7)
	if err != nil {
		t.Fatal(err)
	}
	go c.Write([]byte("deadbeef")) // async: the server aborts mid-read
	if err := <-done; !errors.Is(err, ErrTag) {
		t.Fatalf("mismatched PSKs must not authenticate: %v, want %v", err, ErrTag)
	}
	a.Close()
	b.Close()
}

// flightsOf runs h over conn with seed and returns its transcript's
// flights.
func flightsOf(h pt.Handshake, conn netem.Stream, seed int64) ([][]byte, error) {
	var flights [][]byte
	records := h.Records
	h.Records = func(c netem.Stream, tr *pt.Transcript) (netem.Stream, error) {
		flights = tr.Flights
		return records(c, tr)
	}
	_, err := runHandshake(h, conn, seed)
	return flights, err
}

// TestTranscriptsAgree: both ends see the salt as flight 0, the flight
// each keys its codec from.
func TestTranscriptsAgree(t *testing.T) {
	a, b := pipe()
	defer a.Close()
	defer b.Close()
	h := Transport(Config{PSK: []byte("k")})
	done := make(chan [][]byte, 1)
	go func() {
		flights, err := flightsOf(h.Server, b, 9)
		if err != nil {
			t.Error(err)
		}
		done <- flights
	}()
	client, err := flightsOf(h.Client, a, 42)
	if err != nil {
		t.Fatal(err)
	}
	if server := <-done; len(client) != 1 || len(client[0]) != saltLen || !reflect.DeepEqual(client, server) {
		t.Fatalf("client flights %x, server flights %x", client, server)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := StartServer(nil, 0, Config{}, nil); err == nil {
		t.Fatal("server without PSK must fail")
	}
	d := NewDialer(nil, "x:1", Config{})
	if _, err := netem.Await(netem.NewClock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
		return d.DialEvent("t:1", done)
	}); err == nil {
		t.Fatal("dialer without PSK must fail")
	}
}
