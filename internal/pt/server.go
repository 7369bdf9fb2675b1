package pt

import (
	"fmt"
	"net"

	"ptperf/internal/netem"
)

// ServerWrapper upgrades an accepted raw connection into the transport's
// obfuscated stream (server side of the handshake).
type ServerWrapper func(conn net.Conn) (net.Conn, error)

// ClientWrapper upgrades a dialed raw connection (client side).
type ClientWrapper func(conn net.Conn) (net.Conn, error)

// listenServer is the standard single-listener PT server.
type listenServer struct {
	ln   *netem.Listener
	addr string
}

// Addr implements Server.
func (s *listenServer) Addr() string { return s.addr }

// Close implements Server.
func (s *listenServer) Close() error { return s.ln.Close() }

// Serve runs the accept loop every PT listener shares: each accepted
// conn is served on a simulation goroutine of its own until ln closes.
func Serve(clock *netem.Clock, ln *netem.Listener, serve func(net.Conn)) {
	clock.Go(func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			clock.Go(func() { serve(conn) })
		}
	})
}

// ServeStream reads the target prologue off an unwrapped stream and
// hands the stream to the handler, which owns it from then on.
func ServeStream(conn net.Conn, handle StreamHandler) {
	target, err := ReadTarget(conn)
	if err != nil {
		conn.Close()
		return
	}
	handle(target, conn)
}

// ListenAndServe runs the common PT server skeleton: accept, wrap,
// read the target prologue, hand off to the stream handler.
func ListenAndServe(host *netem.Host, port int, wrap ServerWrapper, handle StreamHandler) (Server, error) {
	ln, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	Serve(host.Network().Clock(), ln, func(raw net.Conn) {
		conn := raw
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
	return &listenServer{ln: ln, addr: fmt.Sprintf("%s:%d", host.Name(), port)}, nil
}

// DialWrapped runs the common PT client skeleton: dial, wrap, send the
// target prologue.
func DialWrapped(host *netem.Host, addr string, wrap ClientWrapper, target string) (net.Conn, error) {
	raw, err := host.Dial(addr)
	if err != nil {
		return nil, err
	}
	conn := raw
	if wrap != nil {
		conn, err = wrap(raw)
		if err != nil {
			raw.Close()
			return nil, err
		}
	}
	if err := WriteTarget(conn, target); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// ForwardTo returns a StreamHandler that dials the stream's target from
// fromHost and splices — the integration-set-2 server behaviour (the
// target names the guard the client's Tor selected).
func ForwardTo(fromHost *netem.Host) StreamHandler {
	clock := fromHost.Network().Clock()
	return func(target string, conn net.Conn) {
		down, err := fromHost.Dial(target)
		if err != nil {
			conn.Close()
			return
		}
		Splice(clock, conn, down)
	}
}

// HandleWithDialer returns a StreamHandler that opens the target through
// an arbitrary dialer and splices — the integration-set-3 server
// behaviour (the dialer is the co-located Tor client).
func HandleWithDialer(clock *netem.Clock, dial func(target string) (net.Conn, error)) StreamHandler {
	return func(target string, conn net.Conn) {
		up, err := dial(target)
		if err != nil {
			conn.Close()
			return
		}
		Splice(clock, conn, up)
	}
}
