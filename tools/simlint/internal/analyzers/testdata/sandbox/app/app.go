// Package app exercises the noparkinevent analyzer from outside the
// netem/tor no-suppress zone: roots are EventAt arms and SetReadSink
// sinks; reaching a parking primitive is an error; the non-parking
// surface and Clock.Go bodies are legal; a justified directive is
// honored here.
package app

import (
	"io"
	"sync"

	"sandbox/netem"
	"sandbox/pt"
	"sandbox/tor"
)

// joined is filled by several worlds' drivers: app is not a world
// package, so nolocks leaves its real lock alone.
type joined struct {
	mu      sync.Mutex
	results []int
}

type proc struct {
	clock  *netem.Clock
	conn   *netem.Conn
	mu     netem.Mutex
	ch     *netem.Chan[int]
	fn     func()
	handle func()
	pace   func()
}

// badLiteral arms a literal callback that parks directly.
func badLiteral(c *netem.Clock, mu *netem.Mutex) {
	c.EventAt(0, func() {
		mu.Lock() // want `\(netem\.Mutex\)\.Lock parks while contended.*Clock\.EventAt arm.*\[noparkinevent\]`
	})
}

// badTransitive arms a method whose callee's callee parks.
func badTransitive(p *proc) {
	p.clock.EventAt(0, p.step)
}

func (p *proc) step() {
	p.helper()
}

func (p *proc) helper() {
	p.ch.Send(1) // want `\(netem\.Chan\)\.Send parks while full.*via proc\.step → proc\.helper`
}

// badSink installs a read sink that writes with the parking Write.
func badSink(p *proc) {
	p.conn.SetReadSink(func(data []byte, err error) {
		p.conn.Write(data) // want `\(netem\.Conn\)\.Write parks on receive-window backpressure \(use WriteEvent\).*Conn\.SetReadSink sink`
	})
}

// badReceive waits for a message and a record with the parking forms;
// each hint names the event form to use.
func badReceive(p *proc) {
	p.clock.EventAt(0, func() {
		p.ch.Recv()                 // want `\(netem\.Chan\)\.Recv parks while empty \(use RecvEvent\)`
		p.ch.RecvUntilEvent(1, nil) // want `\(netem\.Chan\)\.RecvUntilEvent with a nil continuation parks`
		p.conn.ReadFull(nil)        // want `\(netem\.Conn\)\.ReadFull parks until the record completes \(use ReadFullEvent\)`
	})
}

// badField stores the callback in a func-typed field before arming it;
// the analyzer resolves the field through its assignments.
func badField(p *proc) {
	p.fn = p.onEvent
	p.clock.EventAt(0, p.fn)
}

func (p *proc) onEvent() {
	io.Copy(io.Discard, p.conn) // want `io\.Copy loops over parking Read/Write`
}

// badStream reads and writes a netem.Stream with the plain forms,
// which come from net.Conn; its event forms are the legal surface.
func badStream(c *netem.Clock, s netem.Stream) {
	c.EventAt(0, func() {
		s.Read(nil)           // want `\(net\.Conn\)\.Read dynamic dispatch into a parking Read.*Clock\.EventAt arm`
		s.Write(nil)          // want `\(net\.Conn\)\.Write dynamic dispatch into a parking Write`
		s.ReadEvent(nil, nil) // want `\(netem\.Stream\)\.ReadEvent with a nil continuation parks`
		s.WriteEvent(nil, func() {})
	})
}

// tunnel is a pt.Stream-style endpoint: its read half is an embedded
// netem.Inbox, whose plain Read it has by promotion.
type tunnel struct{ netem.Inbox }

// badPromotedRead reads a tunnel with the promoted plain Read; its
// event forms are the legal surface.
func badPromotedRead(c *netem.Clock, s *tunnel) {
	c.EventAt(0, func() {
		s.Read(nil)               // want `\(netem\.Inbox\)\.Read parks until a delivery \(use ReadEvent\).*Clock\.EventAt arm`
		s.ReadFullEvent(nil, nil) // want `\(netem\.Inbox\)\.ReadFullEvent with a nil continuation parks` `ReadFullEvent given a literal nil continuation.*\[layering\]`
		s.ReadEvent(nil, func() {})
		s.ReadFullEvent(nil, func() {})
	})
}

// badChain is a paced sender: a ReadyEvent starts it, and each step
// re-arms the method value it keeps in a field for the next.
func badChain(p *proc) {
	p.pace = p.step2
	p.clock.ReadyEvent(p.pace)
}

func (p *proc) step2() {
	p.conn.Write(nil) // want `\(netem\.Conn\)\.Write parks on receive-window backpressure.*Clock\.ReadyEvent arm.*via proc\.step2`
	p.clock.EventAt(1, p.pace)
}

// badFieldCall calls a handler stored in a func-typed field inside a
// callback; the analyzer follows the call to what the field was given.
func badFieldCall(p *proc) {
	p.handle = p.onFrame
	p.clock.EventAt(0, func() { p.handle() })
}

func (p *proc) onFrame() {
	p.clock.Sleep(1) // want `\(netem\.Clock\)\.Sleep parks until a virtual instant.*via func literal → proc\.onFrame`
}

// badFrameHandler hands pt's frame endpoint a handler that parks: the
// endpoint's read sink calls it, from another package.
func badFrameHandler(p *proc) {
	var in *pt.FrameConn
	in = pt.NewFrameConn(cutAll, func(body []byte) {
		p.conn.Read(body) // want `\(netem\.Conn\)\.Read parks until arrival \(use ReadEvent\).*pt\.NewFrameConn handler`
		in.Await()
	}, p.onStop)
}

// badFrameStop hands pt's frame endpoint a stop handler that parks: the
// endpoint calls it when an awaited frame cannot come.
func badFrameStop(p *proc) {
	pt.NewFrameConn(cutAll, func([]byte) {}, func() {
		p.clock.Sleep(1) // want `\(netem\.Clock\)\.Sleep parks until a virtual instant.*pt\.NewFrameConn handler`
	})
}

// splicer is a splice pump: each event form it calls takes its
// continuation, which runs where a parked goroutine would have resumed.
type splicer struct {
	in, out *netem.Conn
	buf     []byte
	next    func()
}

// badSpliceSink forwards what its event read returns with the parking
// Write instead of WriteEvent.
func badSpliceSink(s *splicer) {
	s.next = s.pump
	s.in.ReadEvent(s.buf, s.next)
}

func (s *splicer) pump() {
	if n, _, done := s.in.ReadEvent(s.buf, s.next); done {
		s.out.Write(s.buf[:n]) // want `\(netem\.Conn\)\.Write parks on receive-window backpressure.*Conn\.ReadEvent continuation.*splicer\.pump`
	}
}

// goodSpliceSink forwards with the event forms only.
func (s *splicer) goodPump() {
	if n, _, done := s.in.ReadEvent(s.buf, s.goodPump); done {
		s.out.WriteEvent(s.buf[:n], s.goodPump)
	}
}

// cellPump is a tor client's cell pump: it handles each cell it reads
// inline, and answers some with a SENDME, a send that can park.
type cellPump struct {
	clock     *netem.Clock
	conn      *netem.Conn
	mu        netem.Mutex
	cell      []byte
	cells     *netem.Chan[[]byte]
	next      func()
	flushNext func()
}

// badCellPump sends its SENDME from the pump's continuation with a
// parking sendRelay-style write: the bug a sendRelayAsync avoids.
func badCellPump(p *cellPump) {
	p.next = p.pump
	p.clock.ReadyEvent(p.next)
}

func (p *cellPump) pump() {
	if _, _, done := p.conn.ReadEvent(p.cell, p.next); done {
		p.sendRelay()
	}
}

func (p *cellPump) sendRelay() {
	p.mu.Lock()          // want `\(netem\.Mutex\)\.Lock parks while contended.*Clock\.ReadyEvent arm.*via cellPump\.pump → cellPump\.sendRelay`
	p.conn.Write(p.cell) // want `\(netem\.Conn\)\.Write parks on receive-window backpressure.*via cellPump\.pump → cellPump\.sendRelay`
	p.mu.Unlock()
}

// goodPump hands the SENDME to a ReadyEvent, whose callback writes with
// the event form.
func (p *cellPump) goodPump() {
	if _, _, done := p.conn.ReadEvent(p.cell, p.goodPump); done {
		p.clock.ReadyEvent(p.sendAsync)
	}
}

func (p *cellPump) sendAsync() {
	p.conn.WriteEvent(p.cell, p.sendAsync)
}

// flush is a PT-link flusher that writes what its event receive returns
// with the parking Write: Chan.RecvEvent's continuation is a root too.
func (p *cellPump) flush() {
	p.flushNext = p.flush
	if c, ok, done := p.cells.RecvEvent(p.flushNext); done && ok {
		p.conn.Write(c) // want `\(netem\.Conn\)\.Write parks on receive-window backpressure.*Chan\.RecvEvent continuation.*cellPump\.flush`
	}
}

// stream is a pt.Stream-style conn whose plain Read is its event form
// called with a nil continuation, which parks: the walker does not enter
// an event form, so the literal nil is what it sees.
type stream struct {
	clock *netem.Clock
	conn  *netem.Conn
	cond  netem.Cond
	next  func()
}

func (s *stream) Read(p []byte) (int, error) {
	n, err, _ := s.readEvent(p, nil) // want `\(app\.stream\)\.readEvent with a nil continuation parks.*Clock\.EventAt arm.*via func literal → stream\.Read`
	return n, err
}

func (s *stream) readEvent(p []byte, again func()) (int, error, bool) {
	if s.cond.WaitEvent(again) {
		return 0, nil, false
	}
	return len(p), nil, true
}

// badNilContinuation reads with the plain Read from an event, and
// writes with an event form handed nil; goodContinuation hands each
// event form itself.
func badNilContinuation(s *stream) {
	s.clock.EventAt(0, func() {
		s.Read(nil)
		s.conn.WriteEvent(nil, nil) // want `\(netem\.Conn\)\.WriteEvent with a nil continuation parks.*Clock\.EventAt arm`
	})
}

func (s *stream) goodContinuation() {
	if _, _, done := s.readEvent(nil, s.next); done {
		s.conn.WriteEvent(nil, s.goodContinuation)
	}
}

// relayLink is a relay's link pump: an EXTEND dials the next hop and a
// BEGIN the target, and a server takes its next conn.
type relayLink struct {
	host *netem.Host
	ln   *netem.Listener
	next *netem.Conn
	cell []byte
	pump func()
}

// badDial dials with the parking forms from the pump's continuation.
func badDial(l *relayLink) {
	l.pump = l.read
	l.next.ReadEvent(l.cell, l.pump)
}

func (l *relayLink) read() {
	if _, _, done := l.next.ReadEvent(l.cell, l.pump); done {
		l.next, _ = l.host.Dial("exit:9001") // want `\(netem\.Host\)\.Dial parks for the handshake's round trip \(use DialEvent\).*Conn\.ReadEvent continuation.*relayLink\.read`
		l.ln.Accept()                        // want `\(netem\.Listener\)\.Accept parks until a conn arrives \(use Listener\.Serve\)`
		l.host.DialEvent("exit:9001", nil)   // want `\(netem\.Host\)\.DialEvent with a nil continuation parks` `DialEvent given a literal nil continuation.*\[layering\]`
	}
}

// goodDial dials with the event form; what it hands over goes on in
// dialed, which is a root too and must not park either.
func (l *relayLink) goodDial() {
	if c, err, done := l.host.DialEvent("exit:9001", l.dialed); done {
		l.dialed(c, err)
	}
}

func (l *relayLink) dialed(c *netem.Conn, err error) {
	if err == nil {
		c.Write(l.cell) // want `\(netem\.Conn\)\.Write parks on receive-window backpressure.*Host\.DialEvent continuation.*relayLink\.dialed`
	}
}

// serve is a server's accept path: the handler runs from the run queue
// for each conn, so it and what it calls must not park, and work that
// parks is spawned.
func (p *proc) serve(ln *netem.Listener) {
	ln.Serve(func(c *netem.Conn) {
		c.Read(nil) // want `\(netem\.Conn\)\.Read parks until arrival \(use ReadEvent\).*Listener\.Serve handler`
	})
	ln.Serve(p.accepted)
}

func (p *proc) accepted(c *netem.Conn) {
	p.clock.Sleep(1)                                                // want `\(netem\.Clock\)\.Sleep parks until a virtual instant.*Listener\.Serve handler`
	pt.Handshake{}.RunEvent(c, 1, nil)                              // want `\(pt\.Handshake\)\.RunEvent with a nil continuation parks.*Listener\.Serve handler` `RunEvent given a literal nil continuation.*\[layering\]`
	pt.Handshake{}.RunEvent(c, 1, func(any, error) { c.Read(nil) }) // want `\(netem\.Conn\)\.Read parks until arrival.*Handshake\.RunEvent continuation`
	p.clock.Go(func() { c.Read(nil) })
}

// setThree is a set-3 server: its handler starts the dial of the Tor
// client beside it from the run queue, so the dial is the event form,
// and so is every dial an event makes.
func setThree(clock *netem.Clock, cl *tor.Client) {
	pt.HandleWithDialer(clock, pt.DialerFunc(func(target string, fn func(netem.Stream, error)) (netem.Stream, error, bool) {
		s, err := cl.Dial(target) // want `\(tor\.Client\)\.Dial parks for the circuit's build and the stream's open \(use DialEvent\).*pt\.HandleWithDialer dial`
		return s, err, true
	}))
	pt.HandleWithDialer(clock, cl)
	clock.EventAt(0, func() {
		cl.Preheat()              // want `\(tor\.Client\)\.Preheat parks for the circuit's build.*Clock\.EventAt arm`
		cl.DialEvent("exit", nil) // want `\(tor\.Client\)\.DialEvent with a nil continuation parks` `DialEvent given a literal nil continuation.*\[layering\]`
		cl.DialEvent("exit", func(netem.Stream, error) {})
	})
}

// firstHop is a Tor client's first hop through a transport, dialed from
// an event: a PT dialer has one dial body, its DialEvent, which a
// goroutine awaits through netem.Await and an event calls itself.
func firstHop(clock *netem.Clock, d pt.Dialer) {
	clock.EventAt(0, func() {
		d.DialEvent("guard:9001", nil) // want `\(pt\.Dialer\)\.DialEvent with a nil continuation parks.*Clock\.EventAt arm` `DialEvent given a literal nil continuation.*\[layering\]`
		d.DialEvent("guard:9001", func(netem.Stream, error) {})
		netem.Await(clock, func(done func(netem.Stream, error)) (netem.Stream, error, bool) { // want `netem\.Await parks until the event form's continuation runs.*Clock\.EventAt arm`
			return d.DialEvent("guard:9001", done)
		})
	})
	clock.Go(func() {
		netem.Await(clock, func(done func(netem.Stream, error)) (netem.Stream, error, bool) {
			return d.DialEvent("guard:9001", done)
		})
	})
}

// hopDial is a PT dialer's one dial body: its event form runs Next from
// each wait's continuation, so Next waits only through its Chain.
type hopDial struct {
	pt.Chain
	host *netem.Host
}

func (x *hopDial) DialEvent(target string, done func(netem.Stream, error)) (netem.Stream, error, bool) {
	return x.Play(x, done)
}

func (x *hopDial) Next() {
	x.host.Dial("guard:443") // want `\(netem\.Host\)\.Dial parks for the handshake's round trip.*pt\.Chain\.Play body`
}

// cutAll and onStop are handlers that stay on the non-parking surface.
func cutAll(b []byte) (int, int, error) { return 0, len(b), nil }

func (p *proc) onStop() { p.ch.TrySend(0) }

// good stays on the non-parking surface; the Clock.Go body is a
// registered goroutine and may park.
func good(p *proc) {
	p.clock.EventAt(0, func() {
		if p.mu.LockEvent(p.onStop) {
			p.mu.Unlock()
		}
		p.ch.TrySend(1)
		p.conn.TryWriteOwned(nil, nil)
		p.clock.EventAt(1, func() {})
		p.clock.Go(func() {
			p.mu.Lock()
			p.mu.Unlock()
		})
	})
}

// allowed: outside netem/tor, a directive with a recorded reason is
// honored.
func allowed(p *proc) {
	p.clock.EventAt(0, func() {
		//simlint:allow noparkinevent -- sandbox fixture: provably uncontended here
		p.mu.Lock()
	})
}
