// Package camoufler's camoufler.go holds the IM provider, which serves
// each conn with a chain of clock events: it takes no bufio reader and
// never sleeps. The pt rows apply to the whole package.
package camoufler

import (
	"bufio" // want `import of "bufio" in sandbox/pt/camoufler: the layering row "bufio" of web fetch camoufler/camoufler\.go`
	"io"

	"sandbox/netem"
)

func provide(c *netem.Clock, r io.Reader) {
	_ = bufio.NewReader(r)
	c.Sleep(1)                 // want `a call of \(netem\.Clock\)\.Sleep in sandbox/pt/camoufler`
	io.ReadFull(r, nil)        // want `a call of io\.ReadFull in sandbox/pt/camoufler: the layering row "io\.ReadFull" of pt`
	io.CopyN(io.Discard, r, 1) // want `a call of io\.CopyN in sandbox/pt/camoufler`
}
