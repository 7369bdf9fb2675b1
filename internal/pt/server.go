package pt

import (
	"fmt"

	"ptperf/internal/netem"
)

// Wrapper upgrades a raw connection, accepted or dialed, into the
// transport's obfuscated stream: one side of the handshake.
type Wrapper func(conn netem.Stream) (netem.Stream, error)

// listenServer is the standard single-listener PT server.
type listenServer struct{ *netem.Listener }

// Addr implements Server.
func (s listenServer) Addr() string { return s.Listener.Addr().String() }

// ServeStream reads the target prologue off an unwrapped stream and
// hands the stream to the handler, which owns it from then on.
func ServeStream(conn netem.Stream, handle StreamHandler) {
	target, err := ReadTarget(conn)
	if err != nil {
		conn.Close()
		return
	}
	handle(target, conn)
}

// ListenAndServe runs the common PT server skeleton: accept, wrap,
// read the target prologue, hand off to the stream handler.
func ListenAndServe(host *netem.Host, port int, wrap Wrapper, handle StreamHandler) (Server, error) {
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	ln.Serve(func(raw *netem.Conn) {
		var conn netem.Stream = raw
		if wrap != nil {
			var err error
			conn, err = wrap(raw)
			if err != nil {
				raw.Close()
				return
			}
		}
		ServeStream(conn, handle)
	})
	return listenServer{ln}, nil
}

// DialWrapped runs the common PT client skeleton: dial, wrap, send the
// target prologue.
func DialWrapped(host *netem.Host, addr string, wrap Wrapper, target string) (netem.Stream, error) {
	raw, err := host.Dial(addr)
	if err != nil {
		return nil, err
	}
	conn, err := wrap(raw)
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
// transport supplies the two sides of its handshake.
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
	// Client and Server run one side of the handshake over a raw conn
	// with that conn's seed and return the obfuscated stream.
	Client, Server func(conn netem.Stream, seed int64) (netem.Stream, error)
}

// StartServer runs the transport's server on host:port, delivering
// unwrapped streams to handle.
func (w WrapTransport) StartServer(host *netem.Host, port int, handle StreamHandler) (Server, error) {
	if !w.Keyed {
		return nil, fmt.Errorf("%s: server needs its shared secret", w.Name)
	}
	seed := w.Seed
	return ListenAndServe(host, port, func(conn netem.Stream) (netem.Stream, error) {
		seed++
		return w.Server(conn, seed)
	}, handle)
}

// NewDialer returns the transport's client for a server at addr.
func (w WrapTransport) NewDialer(host *netem.Host, addr string) Dialer {
	seed := w.Seed + w.DialerOffset
	return DialerFunc(func(target string) (netem.Stream, error) {
		if !w.Keyed {
			return nil, fmt.Errorf("%s: dialer needs its shared secret", w.Name)
		}
		seed++
		s := seed
		conn, err := DialWrapped(host, addr, func(raw netem.Stream) (netem.Stream, error) {
			return w.Client(raw, s)
		}, target)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		return conn, nil
	})
}

// ForwardTo returns a StreamHandler that dials the stream's target from
// fromHost and splices — the integration-set-2 server behaviour (the
// target names the guard the client's Tor selected).
func ForwardTo(fromHost *netem.Host) StreamHandler {
	return HandleWithDialer(fromHost.Network().Clock(), fromHost.Dial)
}

// HandleWithDialer returns a StreamHandler that opens the target through
// an arbitrary dialer and splices — the integration-set-3 server
// behaviour (the dialer is the co-located Tor client).
func HandleWithDialer(clock *netem.Clock, dial func(target string) (netem.Stream, error)) StreamHandler {
	return func(target string, conn netem.Stream) {
		up, err := dial(target)
		if err != nil {
			conn.Close()
			return
		}
		Splice(clock, conn, up)
	}
}
