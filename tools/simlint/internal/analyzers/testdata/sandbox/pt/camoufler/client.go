package camoufler

import (
	"bufio"
	"io"

	"sandbox/netem"
)

// The client is no event chain: the provider's file rows skip it.
func client(c *netem.Clock, r io.Reader) {
	_ = bufio.NewReader(r)
	c.Sleep(1)
}
