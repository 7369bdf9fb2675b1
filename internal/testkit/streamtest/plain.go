package streamtest

import (
	"io"
	"time"

	"ptperf/internal/netem"
)

// Plain is a stream over rw that never waits, for a test that plays a
// protocol over bytes in memory or a net.Pipe: each event form is the
// plain call, a short threshold read ends with io.EOF, as every stream's
// does, Close closes rw if it can, and the read timeout is ignored. The
// rest of netem.Stream is left unimplemented.
func Plain(rw io.ReadWriter) netem.Stream { return plain{rw: rw} }

type plain struct {
	netem.Stream
	rw io.ReadWriter
}

func (p plain) Read(b []byte) (int, error)  { return p.rw.Read(b) }
func (p plain) Write(b []byte) (int, error) { return p.rw.Write(b) }

func (p plain) ReadEvent(b []byte, _ func()) (int, error, bool) {
	n, err := p.rw.Read(b)
	return n, err, true
}

func (p plain) ReadFullEvent(b []byte, _ func()) (int, error, bool) {
	n, err := io.ReadFull(p.rw, b)
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	return n, err, true
}

func (p plain) WriteEvent(b []byte, _ func()) (int, error, bool) {
	n, err := p.rw.Write(b)
	return n, err, true
}

func (p plain) Close() error {
	if c, ok := p.rw.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func (plain) SetReadTimeout(time.Duration) error { return nil }
