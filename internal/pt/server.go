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
	ReadPrefixed(conn, 1, func(target []byte, err error) {
		if err != nil {
			conn.Close()
			return
		}
		handle(string(target), conn)
	})
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
		hs.RunEvent(raw, seed, func(conn netem.Stream, err error) {
			if err != nil {
				raw.Close()
				return
			}
			ServeStream(conn, handle)
		})
	})
	return listenServer{ln}, nil
}

// DialWrapped runs the common PT client skeleton: dial, play hs with
// seed, send the target prologue.
func DialWrapped(host *netem.Host, addr string, hs Handshake, seed int64, target string) (netem.Stream, error) {
	raw, err := host.Dial(addr)
	if err != nil {
		return nil, err
	}
	conn, err := hs.Run(raw, seed)
	if err != nil {
		raw.Close()
		return nil, err
	}
	if err := WriteTarget(conn, target); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
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
	return DialerFunc(func(target string) (netem.Stream, error) {
		if !w.Keyed {
			return nil, fmt.Errorf("%s: dialer needs its shared secret", w.Name)
		}
		seed++
		conn, err := DialWrapped(host, addr, w.Client, seed, target)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		return conn, nil
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

// HandleWithDialer returns a StreamHandler that opens the target through
// an arbitrary dialer and splices — the integration-set-3 server
// behaviour (the dialer is the co-located Tor client). That dialer
// parks, so the handler spawns a goroutine for it: the one the PT layer
// spawns.
func HandleWithDialer(clock *netem.Clock, dial func(target string) (netem.Stream, error)) StreamHandler {
	return func(target string, conn netem.Stream) {
		clock.Go(func() {
			up, err := dial(target)
			if err != nil {
				conn.Close()
				return
			}
			Splice(clock, conn, up)
		})
	}
}
