package pt_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"ptperf/internal/netem"
	"ptperf/internal/pt"
	"ptperf/internal/sim"
)

// TestWrapTransport pins what the shared constructor owns: the server
// seeds its conns Seed+1, Seed+2, …, the dialer counts on from
// Seed+DialerOffset, a dial failure carries the transport's name, and
// neither side starts without the key.
func TestWrapTransport(t *testing.T) {
	w := newWorld(t)
	var client, server []int64
	// logSeed is a handshake of no flights that logs its conn's seed.
	logSeed := func(seeds *[]int64) pt.Handshake {
		return pt.Handshake{Records: func(c netem.Stream, t *pt.Transcript) (netem.Stream, error) {
			*seeds = append(*seeds, t.Seed)
			return c, nil
		}}
	}
	wt := pt.WrapTransport{
		Name: "demo", Keyed: true, Seed: 10, DialerOffset: 100,
		Client: logSeed(&client), Server: logSeed(&server),
	}
	srv, err := wt.StartServer(w.server, 443, echoHandler(t, w, "guard-0:9001"))
	if err != nil {
		t.Fatal(err)
	}
	d := wt.NewDialer(w.client, srv.Addr())
	exerciseEcho(t, w, d, 100)
	exerciseEcho(t, w, d, 100)
	if want := []int64{111, 112}; !reflect.DeepEqual(client, want) {
		t.Errorf("client seeds %v, want %v", client, want)
	}
	if want := []int64{11, 12}; !reflect.DeepEqual(server, want) {
		t.Errorf("server seeds %v, want %v", server, want)
	}
	if _, err := wt.NewDialer(w.client, "pt-server:445").Dial("guard-0:9001"); err == nil || !strings.HasPrefix(err.Error(), "demo: ") {
		t.Errorf("dial to a port where nothing listens: %v, want an error prefixed with the transport's name", err)
	}

	wt.Keyed = false
	if _, err := wt.StartServer(w.server, 444, nil); err == nil {
		t.Error("server started without its key")
	}
	if _, err := wt.NewDialer(w.client, srv.Addr()).Dial("guard-0:9001"); err == nil {
		t.Error("dialer dialed without its key")
	}
}

// TestRandFillDrawsPerWord: a fill takes one Uint64 draw per eight
// bytes, the last word cut to fit, and leaves the stream exactly there:
// handshakes interleave fills with other draws, so the count is part of
// every padded flight's size.
func TestRandFillDrawsPerWord(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 32, 250} {
		rng, ref := sim.NewRand(5), sim.NewRand(5)
		got := make([]byte, n)
		pt.RandFill(rng, got)
		var want []byte
		for len(want) < n {
			want = binary.LittleEndian.AppendUint64(want, ref.Uint64())
		}
		if !bytes.Equal(got, want[:n]) {
			t.Errorf("n=%d: filled %x, want %x", n, got, want[:n])
		}
		if rng.Uint64() != ref.Uint64() {
			t.Errorf("n=%d: stream is not %d draws on", n, (n+7)/8)
		}
	}
}
