// Package web's origin.go serves each conn with a chain of clock
// events; every file of the package reads only its writers' grammar.
package web

import (
	"bufio" // want `import of "bufio" in sandbox/web`
	"io"
	"unicode" // want `import of "unicode" in sandbox/web: the layering row "unicode" of web stegotorus`

	"sandbox/netem"
)

func serve(c *netem.Clock, conn *netem.Conn, r io.Reader) {
	_ = bufio.NewReader(r)
	_ = unicode.IsUpper('A')
	io.ReadFull(r, nil) // want `a call of io\.ReadFull in sandbox/web: the layering row "\*\.ReadFull" of fetch web/origin\.go`
	conn.ReadFull(nil)  // want `a call of \(netem\.Conn\)\.ReadFull`
	c.Sleep(1)          // want `a call of \(netem\.Clock\)\.Sleep in sandbox/web`
}
