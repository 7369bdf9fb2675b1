package pt

import (
	rf "io"
	"sync"

	"sandbox/netem"
)

func DialWrapped(target string, done func(netem.Stream, error)) {}

func ReadPrefixed(conn netem.Stream, done func([]byte, error)) {}

// readFlight reads a handshake flight by hand, through a renamed import
// and in a call written over two lines: only pt.Handshake's engine reads
// flights.
func readFlight(r rf.Reader, p []byte) {
	rf.ReadFull( // want `a call of io\.ReadFull in sandbox/pt: the layering row "io\.ReadFull" of pt keeps it out \(DESIGN\.md "Transport layer"\) \[layering\]`
		r, p)
	// A comment may name rf.ReadFull(r, p).
}

// spawn starts goroutines where a chain of clock events serves.
func spawn(c *netem.Clock, n *netem.Network) {
	c.Go(func() {}) // want `a call of \(netem\.Clock\)\.Go in sandbox/pt: the layering row "\*\.Go" of netem/host\.go pt`
	n.Go(func() {}) // want `a call of \(netem\.Network\)\.Go`
}

// nilForms hands each dial engine a literal nil continuation, the first
// over two lines.
func nilForms(c *netem.Clock, d Dialer, in *netem.Inbox, s netem.Stream) {
	d.DialEvent("guard:9001", // want `DialEvent given a literal nil continuation in sandbox/pt: the layering row "DialEvent" of every package`
		nil)
	Handshake{}.RunEvent(s, 1, nil)        // want `RunEvent given a literal nil continuation`
	DialWrapped("exit:9001", nil)          // want `DialWrapped given a literal nil continuation`
	ReadPrefixed(s, nil)                   // want `ReadPrefixed given a literal nil continuation`
	in.ReadFullEvent(make([]byte, 4), nil) // want `ReadFullEvent given a literal nil continuation`
	c.SleepEvent(1, nil)                   // want `SleepEvent given a literal nil continuation`
	c.SleepEvent(1, func() {})
}

// covers pools buffers in a sync.Pool of its own; a *sync.Pool, a buffer
// class's token, may be passed, but not leased from.
var covers sync.Pool // want `sync\.Pool by value in sandbox/pt`

func recycle(pool *sync.Pool, pools []*sync.Pool) {
	b := pool.Get() // want `a call of \(sync\.Pool\)\.Get`
	pool.Put(b)     // want `a call of \(sync\.Pool\)\.Put`
	_ = pools
}
