package psiphon

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/quick"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
)

// macOf is the client's MAC of packet seq under secret, from a fresh
// tag.
func macOf(secret []byte, seq uint64, payload []byte) []byte {
	tag := pt.NewTag("c2s", secret)
	mac := make([]byte, macLen)
	tag.Put(mac, seq, payload)
	return mac
}

func TestPacketMACDeterministic(t *testing.T) {
	key := []byte("k")
	a := macOf(key, 1, []byte("payload"))
	b := macOf(key, 1, []byte("payload"))
	if !bytes.Equal(a, b) {
		t.Fatal("MAC must be deterministic")
	}
	if bytes.Equal(a, macOf(key, 2, []byte("payload"))) {
		t.Fatal("MAC must bind the sequence number")
	}
	if bytes.Equal(a, macOf([]byte("other"), 1, []byte("payload"))) {
		t.Fatal("MAC must bind the key")
	}
	if len(a) != macLen {
		t.Fatalf("MAC length %d", len(a))
	}
}

// opens reports whether open accepts the first packet seal makes.
func opens(seal, open pt.RecordCodec) bool {
	pkt := seal.Seal(nil, []byte("payload"))
	_, err := open.Open(pkt[:4], pkt[4:])
	return err == nil
}

func TestDirectionKeysMirror(t *testing.T) {
	secret := []byte("shared")
	end := func(isClient bool) pt.RecordCodec { return NewCodec(secret, isClient) }
	if !opens(end(true), end(false)) || !opens(end(false), end(true)) {
		t.Fatal("client send must equal server recv and vice versa")
	}
	if opens(end(true), end(true)) || opens(end(false), end(false)) {
		t.Fatal("directions must use distinct keys")
	}
}

func TestDirectionKeysVaryWithSecret(t *testing.T) {
	f := func(a, b []byte) bool {
		return bytes.Equal(a, b) || !opens(NewCodec(a, true), NewCodec(b, false))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// pipeEnd is one end of a net.Pipe as a netem.Stream: a handshake only
// reads and writes its conn, plainly or in event form.
type pipeEnd struct {
	netem.Stream
	c net.Conn
}

func (p pipeEnd) Read(b []byte) (int, error)  { return p.c.Read(b) }
func (p pipeEnd) Write(b []byte) (int, error) { return p.c.Write(b) }

// ReadEvent, ReadFullEvent and WriteEvent are the plain calls, which
// wait on the pipe's peer and never on a clock.
func (p pipeEnd) ReadEvent(b []byte, _ func()) (int, error, bool) {
	n, err := p.c.Read(b)
	return n, err, true
}

func (p pipeEnd) ReadFullEvent(b []byte, _ func()) (int, error, bool) {
	n, err := io.ReadFull(p.c, b)
	return n, err, true
}

func (p pipeEnd) WriteEvent(b []byte, _ func()) (int, error, bool) {
	n, err := p.c.Write(b)
	return n, err, true
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

// runHandshake plays h over conn with seed, awaiting it on a clock of
// its own: the pipe ends here never leave a wait to a clock event.
func runHandshake(h pt.Handshake, conn netem.Stream, seed int64) (netem.Stream, error) {
	return netem.Await(netem.NewClock(), func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
		return h.RunEvent(conn, seed, done)
	})
}

// handshake runs a client with clientKey against a server with
// serverKey and returns both transcripts' flights and the client's
// error.
func handshake(clientKey, serverKey []byte) (client, server [][]byte, err error) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan [][]byte, 1)
	go func() {
		flights, _ := flightsOf(Transport(Config{HostKey: serverKey}).Server, pipeEnd{c: b}, 11)
		done <- flights
	}()
	client, err = flightsOf(Transport(Config{HostKey: clientKey}).Client, pipeEnd{c: a}, 12)
	return client, <-done, err
}

// TestTranscriptsAgree: the four flights are the same bytes at both
// ends, so both derive the session secret from flights 2 and 3.
func TestTranscriptsAgree(t *testing.T) {
	client, server, err := handshake([]byte("hk"), []byte("hk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(client) != 4 || !reflect.DeepEqual(client, server) {
		t.Fatalf("client flights %x, server flights %x", client, server)
	}
	if len(client[2]) != kexLen || len(client[3]) != kexLen+proofLen {
		t.Fatalf("kexinit flights of %d and %d bytes", len(client[2]), len(client[3]))
	}
}

// TestHostKeyMismatch: a server proving another host key is refused
// once its kexinit arrives, before any record layer is made.
func TestHostKeyMismatch(t *testing.T) {
	if client, _, err := handshake([]byte("right"), []byte("evil")); !errors.Is(err, ErrHostKey) || client != nil {
		t.Fatalf("got %v with flights %x, want %v", err, client, ErrHostKey)
	}
}

// TestBannerMismatch: a server refuses a first flight that is not the
// version banner.
func TestBannerMismatch(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write([]byte("SSH-2.0-OpenSSH_9.6p1\r\n"))
	if _, err := runHandshake(Transport(Config{HostKey: []byte("hk")}).Server, pipeEnd{c: b}, 1); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want %v", err, ErrVersion)
	}
}
