package pt

import (
	"fmt"

	"ptperf/internal/netem"
)

// listenServer is the standard single-listener PT server.
type listenServer struct{ *netem.Listener }

// Addr implements Server.
func (s listenServer) Addr() string { return s.Listener.Addr().String() }

// ServeStream reads the target prologue off an unwrapped stream, its
// length byte and then the target, and hands the stream to the handler,
// which owns it from then on, from the event that completes it. It
// returns at its first wait.
func ServeStream(conn netem.Stream, handle StreamHandler) {
	served := func(target []byte, err error) {
		if err != nil {
			conn.Close()
			return
		}
		handle(string(target), conn)
	}
	if target, err, done := ReadPrefixed(conn, 1, served); done {
		served(target, err)
	}
}

// ListenAndServe runs the common PT server skeleton: accept, play hs
// with the seeds after seed, one per conn in turn, read the target
// prologue and hand off to the stream handler, each conn a chain of
// clock events.
func ListenAndServe(host *netem.Host, port int, hs Handshake, seed int64, handle StreamHandler) (Server, error) {
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	ln.Serve(func(raw *netem.Conn) {
		seed++
		handshook := func(conn netem.Stream, err error) {
			if err != nil {
				raw.Close()
				return
			}
			ServeStream(conn, handle)
		}
		if conn, err, done := hs.RunEvent(raw, seed, handshook); done {
			handshook(conn, err)
		}
	})
	return listenServer{ln}, nil
}

// WrapTransport is the one constructor of a wrapping transport's server
// and dialer: it owns the key-present check, the per-conn handshake
// seeds, the listen and dial skeletons and the error prefix, and the
// transport declares the two sides of its handshake.
type WrapTransport struct {
	// Name prefixes errors.
	Name string
	// Keyed reports that the config carries what the handshake
	// checks: the transport's shared secret, for those that have one.
	// Without it neither side starts.
	Keyed bool
	// Seed is the config's seed. The server hands Seed+1, Seed+2, … to
	// the conns it accepts; the dialer counts on from
	// Seed+DialerOffset, so the two ends of one config never share a
	// stream.
	Seed, DialerOffset int64
	// Client and Server are the two sides of the handshake, each run
	// over a raw conn with that conn's seed.
	Client, Server Handshake
}

// StartServer runs the transport's server on host:port, delivering
// unwrapped streams to handle.
func (w WrapTransport) StartServer(host *netem.Host, port int, handle StreamHandler) (Server, error) {
	if !w.Keyed {
		return nil, fmt.Errorf("%s: server needs its shared secret", w.Name)
	}
	return ListenAndServe(host, port, w.Server, w.Seed, handle)
}

// NewDialer returns the transport's client for a server at addr.
func (w WrapTransport) NewDialer(host *netem.Host, addr string) Dialer {
	seed := w.Seed + w.DialerOffset
	return DialerFunc(func(target string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
		if !w.Keyed {
			return nil, fmt.Errorf("%s: dialer needs its shared secret", w.Name), true
		}
		seed++
		return DialWrapped(host, addr, w.Client, seed, target, w.Name, done)
	})
}

// ForwardTo returns a StreamHandler that dials the stream's target from
// fromHost and splices — the integration-set-2 server behaviour (the
// target names the guard the client's Tor selected). It dials with
// DialEvent, so nothing of it parks.
func ForwardTo(fromHost *netem.Host) StreamHandler {
	clock := fromHost.Network().Clock()
	return func(target string, conn netem.Stream) {
		forward := func(up *netem.Conn, err error) {
			if err != nil {
				conn.Close()
				return
			}
			Splice(clock, conn, up)
		}
		if up, err, done := fromHost.DialEvent(target, forward); done {
			forward(up, err)
		}
	}
}

// HandleWithDialer returns a StreamHandler that opens the target with
// dial and splices: the integration-set-3 server behaviour (dial is the
// co-located Tor client). dial starts from the run queue, where a
// goroutine spawned to await it would have started.
func HandleWithDialer(clock *netem.Clock, dial Dialer) StreamHandler {
	return func(target string, conn netem.Stream) {
		opened := func(up netem.Stream, err error) {
			if err != nil {
				conn.Close()
				return
			}
			Splice(clock, conn, up)
		}
		clock.ReadyEvent(func() {
			if up, err, done := dial.DialEvent(target, opened); done {
				opened(up, err)
			}
		})
	}
}
