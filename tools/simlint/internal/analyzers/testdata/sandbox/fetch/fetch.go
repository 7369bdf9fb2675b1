// Package fetch reads through the conn's event forms only.
package fetch

import (
	"bufio" // want `import of "bufio" in sandbox/fetch`
	"io"

	"sandbox/netem"
)

type FullReader interface{ ReadFull(p []byte) (int, error) } // want `the name FullReader in sandbox/fetch`

func get(conn *netem.Conn, r io.Reader) {
	_ = bufio.NewScanner(r)
	conn.Read(nil)      // want `a call of \(netem\.Conn\)\.Read in sandbox/fetch`
	r.Read(nil)         // want `a call of \(io\.Reader\)\.Read`
	io.ReadFull(r, nil) // want `a call of io\.ReadFull in sandbox/fetch`
	conn.ReadEvent(nil, func() {})
}
