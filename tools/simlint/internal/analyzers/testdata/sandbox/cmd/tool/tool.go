// Package tool is no simulation package: the rows of every package
// apply to it too.
package tool

import (
	"net"
	"time"

	_ "sandbox/internal/testkit" // want `import of "sandbox/internal/testkit" in sandbox/cmd/tool: the layering row "internal/testkit" of every package`
	"sandbox/netem"
)

var Epoch time.Time // want `the name Epoch in sandbox/cmd/tool`

func VirtualDeadline(c *netem.Clock) time.Duration { return c.Now() } // want `the name VirtualDeadline`

func deadlines(c net.Conn, h *netem.Host) {
	c.SetDeadline(time.Time{})      // want `a call of \(net\.Conn\)\.SetDeadline`
	c.SetReadDeadline(time.Time{})  // want `a call of \(net\.Conn\)\.SetReadDeadline`
	c.SetWriteDeadline(time.Time{}) // want `a call of \(net\.Conn\)\.SetWriteDeadline`
	h.DialEvent("exit:9001", nil)   // want `DialEvent given a literal nil continuation in sandbox/cmd/tool`
}
