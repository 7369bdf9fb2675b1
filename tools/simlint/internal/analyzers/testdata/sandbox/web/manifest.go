package web

import (
	"io"
	"strings"
)

// The origin's file rows skip the rest of the package.
func parse(r io.Reader, s string) bool {
	io.ReadFull(r, nil)
	return strings.EqualFold(s, "get") // want `a call of strings\.EqualFold in sandbox/web`
}
